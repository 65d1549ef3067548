"""Golden outputs: every configs/*.ini fixture, byte for byte, with its exit status.

After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and record in CHANGES.md which fixtures changed and by how much.
"""

import json
from pathlib import Path

import pytest

from heatkern.cli import RunConfig, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(p.stem for p in CONFIGS.glob("*.ini"))


def run_fixture(name, out_dir):
    """(exit status, output path) of one fixture run with its output in out_dir."""
    config = CONFIGS / f"{name}.ini"
    cfg = RunConfig.from_ini(config)
    out = Path(out_dir) / Path(cfg.out_path).name
    return main([cfg.task, "--config", str(config), "--out", str(out)]), out


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_matches_golden(tmp_path, name):
    status, out = run_fixture(name, tmp_path)
    expected = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))
    assert status == expected[name]
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    statuses = {name: run_fixture(name, GOLDEN)[0] for name in FIXTURES}
    (GOLDEN / "exit_status.json").write_text(
        json.dumps(statuses, indent=2, sort_keys=True) + "\n", encoding="utf-8")
