"""Every python code block of README.md runs, so the quickstart follows the API, and
the config block names every key of the CLI's table with the range it enforces."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from heatkern import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _ini_lines():
    """{(section, key): [the comment of each README line that documents it]}, the
    section read from the line or carried over from the line above."""
    (block,) = re.findall(r"^```ini\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
    lines, section = {}, None
    for line in block.splitlines():
        got = re.match(r"(\[\w+\])?\s+(\w+)[^;]*(?:;(.*))?$", line)
        if got and not line.startswith(";"):
            section = got[1] or section
            lines.setdefault((section, got[2]), []).append(got[3] or "")
    return lines


def test_readme_config_block_names_every_key_and_its_range():
    # a closed integer range of cli._KEYS is stated as "lo .. hi" on its key's
    # line, and no other line states one: a range the table dropped cannot linger
    lines = _ini_lines()
    for section, key, _, parse, _, allowed in cli._KEYS:
        assert (f"[{section}]", key) in lines, (section, key)
        closed = parse is int and allowed is not None
        want = [f"{allowed[0]} .. {allowed[1]}"] if closed else []
        for comment in lines[f"[{section}]", key]:
            assert re.findall(r"\d+ \.\. \d+", comment) == want, (section, key, comment)
    documented = {(f"[{s}]", k) for s, k, *_ in cli._KEYS}
    assert set(lines) == documented
