"""Config-driven runner: exit codes, output schema, byte determinism."""

import configparser
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern import cli, spectra
from heatkern.cli import RunConfig, main
from heatkern.errors import ValidationError

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _subprocess_env():
    src = str(Path(cli.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def sphere_compare_ini(tmp_path, out, kmax=3, abs_tol="1e-12", rel_tol="1e-6",
                       stop="5e-2"):
    return write_ini(tmp_path, f"""
[run]
task = compare

[geometry]
kind = sphere
dimension = 2
radius = 1.0

[operator]
potential = 0.1

[asymptotics]
kmax = {kmax}

[grid]
start = 1e-3
stop = {stop}
count = 8
geometric = true

[tolerances]
abs = {abs_tol}
rel = {rel_tol}

[output]
format = csv
path = {out}
""")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_from_ini_full_roundtrip(tmp_path):
    out = tmp_path / "o.csv"
    cfg = RunConfig.from_ini(sphere_compare_ini(tmp_path, out))
    assert cfg.task == "compare" and cfg.kind == "sphere"
    assert len(cfg.grid) == 8
    assert abs(cfg.grid[0] - 1e-3) < 1e-18 and abs(cfg.grid[-1] - 5e-2) < 1e-16
    # geometric spacing: constant ratio
    ratios = [cfg.grid[i + 1] / cfg.grid[i] for i in range(7)]
    assert max(ratios) - min(ratios) < 1e-12
    assert cfg.abs_tol == 1e-12 and cfg.rel_tol == 1e-6
    assert cfg.params["kmax"] == 3
    assert cfg.params["potential"] == 0.1


def test_from_ini_linear_grid_and_defaults(tmp_path):
    path = write_ini(tmp_path, """
[run]
task = oracle

[geometry]
kind = landau

[grid]
start = 0.1
stop = 0.5
count = 5
geometric = false
""")
    cfg = RunConfig.from_ini(path)
    diffs = [cfg.grid[i + 1] - cfg.grid[i] for i in range(4)]
    assert max(diffs) - min(diffs) < 1e-15
    assert cfg.abs_tol == 1e-12 and cfg.rel_tol == 1e-6   # fallbacks
    assert cfg.out_format == "csv"
    assert cfg.out_path == "oracle.csv"


def test_from_ini_singleton_grid(tmp_path):
    path = write_ini(tmp_path, """
[run]
task = report

[geometry]
kind = sphere

[grid]
start = 1e-2
""")
    assert RunConfig.from_ini(path).grid == (1e-2,)


@pytest.mark.parametrize("mutation,needle", [
    ("[run]\n", "missing [run] task"),
    ("[run]\ntask = melt\n",
     "bad value for [run] task: 'melt'; expected one of asymptotics/oracle/compare/report"),
    ("[run]\ntask = oracle\n[geometry]\nkind = klein\n[grid]\nstart = 0.1\n",
     "bad value for [geometry] kind: 'klein'; "
     "expected one of sphere/circle/torus/landau/interval"),
])
def test_from_ini_validation(tmp_path, mutation, needle):
    path = write_ini(tmp_path, mutation)
    with pytest.raises(ValidationError, match=needle.replace("[", "\\[")):
        RunConfig.from_ini(path)


@pytest.mark.parametrize("grid_block", [
    "start = 0.0\n", "start = -1.0\n", "start = 0.2\nstop = 0.1\n",
    "start = 0.1\ncount = 0\n", "start = nan\n", "start = inf\n",
    "start = 0.1\nstop = nan\n", "start = 0.1\nstop = inf\n",
    "start = 0.1\nstop = abc\n", "start = 0.1\ncount = 1000001\n",
    "start = 0.1\ncount = many\n",
])
def test_from_ini_grid_validation(tmp_path, grid_block):
    path = write_ini(tmp_path, "[run]\ntask = oracle\n[geometry]\nkind = landau\n"
                     "[grid]\n" + grid_block)
    with pytest.raises(ValidationError):
        RunConfig.from_ini(path)


@pytest.mark.parametrize("tol_block", [
    "abs = nan\n", "rel = nan\n", "abs = inf\n", "rel = inf\n", "rel = -inf\n",
    "abs = tiny\n",
])
def test_from_ini_tolerances_must_be_finite(tmp_path, tol_block):
    path = write_ini(tmp_path, "[run]\ntask = compare\n[geometry]\nkind = landau\n"
                     "[grid]\nstart = 0.1\n[tolerances]\n" + tol_block)
    with pytest.raises(ValidationError):
        RunConfig.from_ini(path)


def test_from_ini_grid_count_cap_boundary(tmp_path):
    path = write_ini(tmp_path, "[run]\ntask = report\n[geometry]\nkind = landau\n"
                     "[grid]\nstart = 0.1\nstop = 0.2\ncount = 1000000\n")
    assert len(RunConfig.from_ini(path).grid) == 1_000_000


def test_non_finite_grid_exits_1_not_2(tmp_path, capsys):
    path = write_ini(tmp_path, "[run]\ntask = compare\n[geometry]\nkind = landau\n"
                     f"[grid]\nstart = nan\n[output]\npath = {tmp_path / 'o.csv'}\n")
    assert main(["compare", "--config", path]) == 1
    assert "finite" in capsys.readouterr().err


def test_from_ini_tolerance_and_format_validation(tmp_path):
    base = "[run]\ntask = compare\n[geometry]\nkind = landau\n[grid]\nstart = 0.1\n"
    with pytest.raises(ValidationError):
        RunConfig.from_ini(write_ini(tmp_path, base + "[tolerances]\nabs = 0\n"))
    with pytest.raises(ValidationError):
        RunConfig.from_ini(write_ini(tmp_path, base + "[output]\nformat = yaml\n"))


def test_parse_modes():
    modes = cli._parse_modes("1,0:0.5; -1,0:0.5;")
    assert modes == {(1, 0): 0.5, (-1, 0): 0.5}
    with pytest.raises(ValidationError):
        cli._parse_modes("1,0")


def test_repo_config_fixtures_parse():
    paths = sorted(REPO_CONFIGS.glob("*.ini"))
    assert len(paths) >= 6
    for p in paths:
        RunConfig.from_ini(str(p))


LANDAU_RUN = b"[run]\ntask = compare\n[geometry]\nkind = landau\n[grid]\nstart = 0.1\n"


@pytest.mark.parametrize("text,needle", [
    (b"[run]\ntask = compare\njunk\n", "line 3: 'junk' is not 'key = value'"),
    (b"task = compare\n[run]\n", "line 1: a key before any [section]"),
    (b"\xff\xfe[run]\ntask = compare\n", "'utf-8' codec can't decode byte 0xff"),
    (LANDAU_RUN + b"[output]\npath = o\x00.csv\n", "line 8: a NUL byte"),
    (b"[run]\ntask = compare\nTask = oracle\n", "line 3: duplicate key [run] task"),
    (LANDAU_RUN + b"[run]\n", "line 7: duplicate section [run]"),
    (b"[]\ntask = compare\n", "line 1: bad section header '[]'"),
    (b"[run]\ntask = compare\n  more\n", "line 3: an indented line"),
    (b"[run]\n  task = compare\n", "line 2: an indented line"),
    (LANDAU_RUN + b"[output]\npath = o%%.csv\n", "line 8: '%' in the value of [output] path"),
    (LANDAU_RUN + b"[output]\npath = %(task)s.csv\n", "line 8: '%' in the value"),
    (b"[DEFAULT]\ntask = compare\n", "line 1: bad section header '[DEFAULT]'"),
    (b"[run] x\ntask = compare\n", "line 1: bad section header '[run] x'"),
    (b"[run]]\ntask = compare\n", "line 1: bad section header '[run]]'"),
    (b"[run]\n= compare\n", "line 2: '= compare' is not 'key = value'"),
], ids=["no-delimiter", "no-section", "not-utf8", "nul", "duplicate-key",
        "duplicate-section", "empty-section", "continuation", "indented-key", "percent",
        "interpolation", "default", "after-bracket", "bracket-in-name", "no-key"])
def test_config_parse_error_exits_1_with_one_line(tmp_path, capsys, text, needle):
    path = tmp_path / "run.ini"
    path.write_bytes(text)
    rc = main(["compare", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    what = "cannot read config" if text.startswith(b"\xff") else "config parse error in"
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {what} {path}: ") and needle in err
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_compare_sphere_passes(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--config", sphere_compare_ini(tmp_path, out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "# heatkern-schema=1"
    assert lines[1] == "t,asymptotic,oracle,abs_err,rel_err"
    assert len(lines) == 2 + 8 + 1
    assert lines[-1].startswith("# summary: status=ok max_abs=")
    row = lines[2].split(",")
    assert len(row) == 5
    assert all(float(x) >= 0 or True for x in row)   # every field parses
    t0, asym, orac, abs_err, rel_err = map(float, row)
    assert abs(abs_err - abs(asym - orac)) < 1e-18 + 1e-12 * abs_err


def test_compare_breach_exit_2(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    cfg = sphere_compare_ini(tmp_path, out, kmax=1, abs_tol="1e-15",
                             rel_tol="1e-12", stop="5e-2")
    rc = main(["compare", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("tolerance breach at t=")
    summary = out.read_text().splitlines()[-1]
    assert summary.startswith("# summary: status=fail first_t=")
    first_t = summary.split("first_t=")[1].split()[0]
    assert f"t={first_t}" in err


def test_task_subcommand_mismatch(tmp_path, capsys):
    cfg = sphere_compare_ini(tmp_path, tmp_path / "x.csv")
    rc = main(["oracle", "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "does not match subcommand 'oracle'" in err


def test_missing_config_exit_1(tmp_path, capsys):
    rc = main(["oracle", "--config", str(tmp_path / "absent.ini")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# the command line: TASK --config CFG [--out OUT]
# ---------------------------------------------------------------------------

USAGE = "usage: heatkern {asymptotics,oracle,compare,report} --config CFG [--out OUT]"
CFG = str(REPO_CONFIGS / "interval_dd.ini")


@pytest.mark.parametrize("argv", [
    [],
    ["bogus", "--config", CFG],
    ["compare"],
    ["compare", "--out", "o.csv"],
    ["compare", "--config"],
    ["compare", "--out", "o.csv", "--config"],
    ["compare", "--config", "--out", "o.csv"],
    ["compare", "--config", CFG, "--out", "a.csv", "--out", "b.csv"],
    ["compare", "--config", CFG, "--config", CFG],
    ["compare", "--config=" + CFG, "--config", CFG],
    ["compare", "--config", CFG, "--verbose"],
    ["compare", "--conf", CFG],
    ["compare", "--conf=" + CFG],
    ["compare", "--config", CFG, "extra"],
    ["compare", "extra", "--config", CFG],
    ["--config", CFG, "compare"],
    ["compare", "-c", CFG],
])
def test_malformed_command_line_exits_1_with_the_usage_line(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {USAGE}\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["compare", "--config", CFG, "-h"],
                                  ["compare", "--help", "--config", "absent.ini"]])
def test_help_prints_the_usage_line_and_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr() == (USAGE + "\n", "")


FIXTURES = sorted(p.stem for p in REPO_CONFIGS.glob("*.ini"))
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("form", ["out-first", "equals"])
@pytest.mark.parametrize("name", FIXTURES)
def test_option_order_and_equals_form_reproduce_the_golden_bytes(tmp_path, name, form):
    cfg = REPO_CONFIGS / f"{name}.ini"
    parsed = RunConfig.from_ini(cfg)
    out = tmp_path / Path(parsed.out_path).name
    argv = ([parsed.task, "--out", str(out), "--config", str(cfg)] if form == "out-first"
            else [parsed.task, f"--config={cfg}", f"--out={out}"])
    expected = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))
    assert main(argv) == expected[name]
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_module_entrypoint_refuses_a_missing_config_in_one_line():
    proc = subprocess.run([sys.executable, "-m", "heatkern.cli", "compare"],
                          capture_output=True, text=True, timeout=120, env=_subprocess_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {USAGE}\n"


def test_a_cold_fixture_process_loads_no_argparse_gettext_or_locale(tmp_path):
    # runs heatkern.cli as __main__, as `python -m heatkern.cli` does, then reads
    # sys.modules once main has returned; the config is read without configparser
    code = ("import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('heatkern.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, *sorted({'argparse', 'configparser', 'gettext', 'locale'}\n"
            "                            & set(sys.modules)))\n")
    out = tmp_path / "interval_dd.csv"
    proc = subprocess.run([sys.executable, "-c", code, "compare", "--config", CFG,
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=120, env=_subprocess_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


GRID = "[grid]\nstart = 0.1\n"


@pytest.mark.parametrize("kind,blocks,needle", [
    ("torus", GRID, "missing [geometry] periods"),
    ("sphere", GRID + "[operator]\npotential = abc\n",
     "bad value for [operator] potential: 'abc'"),
    ("circle", GRID + "[operator]\nmode = 1.5\n", "bad value for [operator] mode"),
    ("torus", "periods = 1,1\n" + GRID + "[operator]\nmodes = a,0:0.1\n",
     "bad value for [operator] modes"),
    ("sphere", GRID + "[asymptotics]\nkmax = abc\n",
     "bad value for [asymptotics] kmax: 'abc'"),
    ("sphere", GRID + "[asymptotics]\nkmax = -1\n",
     "bad value for [asymptotics] kmax: '-1'; expected an integer in [0, 4]"),
    ("sphere", GRID + "[asymptotics]\nkmax = 5\n",
     "bad value for [asymptotics] kmax: '5'; expected an integer in [0, 4]"),
    ("landau", GRID + "geometric = maybe\n", "bad value for [grid] geometric"),
    ("landau", GRID + "[output]\npath = out%x.csv\n", "config parse error"),
    ("landau", GRID + "[operator]\nfield = nan\n", "bad value for [operator] field: 'nan'"),
    ("landau", GRID + "[operator]\nfield = 0\n",
     "bad value for [operator] field: '0'; expected a finite number in "
     "[2.2250738585072014e-308, inf]"),
    ("landau", GRID + "[operator]\nfield = 1e-320\n",
     "bad value for [operator] field: '1e-320'; expected a finite number in "
     "[2.2250738585072014e-308, inf]"),
    ("landau", GRID + "[operator]\nfield = -1\n", "bad value for [operator] field: '-1'"),
    ("interval", "length = nan\n" + GRID, "bad value for [geometry] length: 'nan'"),
    ("sphere", "radius = inf\n" + GRID, "bad value for [geometry] radius: 'inf'"),
    ("sphere", GRID + "[operator]\npotential = nan\n",
     "bad value for [operator] potential: 'nan'"),
    ("circle", "length = -inf\n" + GRID, "bad value for [geometry] length: '-inf'"),
    ("circle", GRID + "[operator]\namplitude = inf\n",
     "bad value for [operator] amplitude: 'inf'"),
    ("torus", "periods = 1,nan\n" + GRID, "bad value for [geometry] periods: '1,nan'"),
    ("sphere", "radius = 1e-200\n" + GRID, "sphere radius 1e-200 is below 1e-100 or not finite"),
    ("sphere", "radius = 1e200\n" + GRID, "sphere radius 1e+200 gives a non-finite"),
    ("interval", "length = 1e300\n" + GRID, "over the cap of 1000000"),
    ("sphere", "radius = 1e10\n" + GRID, "over the cap of 2000000"),
    ("sphere", "[grid]\nstart = 1e300\n", "heat-trace expansion overflows at t=1e+300"),
    ("interval", "length = 1e-300\n" + GRID,
     "interval length 1e-300 is below 1e-100 or not finite"),
    ("circle", GRID + "[operator]\nmode = 1000000000000000000000\n",
     "potential mode (1000000000000000000000,) exceeds 9007199254740992"),
    ("circle", "length = 1e-300\n" + GRID, "period 1e-300 is below 1e-100 or not finite"),
    ("circle", GRID + "[operator]\namplitude = 1e300\n", "amplitude exceeds 1e+100"),
    ("sphere", GRID + "[operator]\npotential = 1e300\n", "heat coefficient a_2 is not finite"),
    ("circle", "[grid]\nstart = 1e300\nstop = 1e300\n[operator]\namplitude = 0.5\n",
     "heat-trace expansion overflows at t=1e+300"),
    ("sphere", "radus = 3.0\n" + GRID, "unknown key [geometry] radus for kind 'sphere'"),
    ("sphere", GRID + "[operator]\npotental = 0.5\n",
     "unknown key [operator] potental for kind 'sphere'"),
    ("landau", GRID + "[opertor]\nfield = 3.0\n", "unknown section [opertor] for kind 'landau'"),
    ("circle", GRID + "[asymptotics]\nkmax = 2\n",
     "unknown section [asymptotics] for kind 'circle'"),
])
def test_bad_config_value_exits_1_with_one_line(tmp_path, capsys, kind, blocks, needle):
    path = write_ini(tmp_path,
                     f"[run]\ntask = compare\n[geometry]\nkind = {kind}\n{blocks}")
    with warnings.catch_warnings():
        # a numpy RuntimeWarning would be a second stderr line
        warnings.simplefilter("error")
        rc = main(["compare", "--config", path, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind,line", [
    ("sphere", "radius = -1"), ("sphere", "radius = 1e-200"),
    ("interval", "length = -1"), ("interval", "length = 0"), ("circle", "length = -1"),
])
def test_every_task_refuses_a_bad_length_alike(tmp_path, capsys, kind, line):
    # a sphere oracle checks its radius in sphere_trace, the other sphere tasks in
    # the geometry; all go through the one length check
    assert_every_task_refuses_alike(tmp_path, capsys, kind, line)


@pytest.mark.parametrize("field", ["0", "-1", "-0.0"])
def test_every_task_refuses_a_nonpositive_field_alike(tmp_path, capsys, field):
    # the config row refuses B <= 0 before any task reads it
    assert_every_task_refuses_alike(tmp_path, capsys, "landau", f"[operator]\nfield = {field}")


@pytest.mark.parametrize("field", ["5e-324", "1e-320", "2.2e-308"])
def test_every_task_refuses_a_subnormal_field_alike(tmp_path, capsys, field):
    # the oracle's first level count, 20 / (t B), overflows for a subnormal B, so the
    # config row refuses it before any task reads it; spectra refuses it in the library
    assert_every_task_refuses_alike(tmp_path, capsys, "landau", f"[operator]\nfield = {field}")


@pytest.mark.parametrize("field,start", [("1e-6", "0.1"), ("1e-300", "1e-300")])
def test_every_task_refuses_a_field_too_weak_for_the_grid_alike(tmp_path, capsys, field, start):
    # the oracle's first level count, 20 / (start B), is over its cap (or infinite,
    # start B underflowing to 0): refused by the config before any task runs
    err = assert_every_task_refuses_alike(tmp_path, capsys, "landau",
                                          f"[operator]\nfield = {field}\n[grid]\nstart = {start}",
                                          grid="")
    assert err == (f"error: landau field {float(field)!r} at grid start {float(start)!r} "
                   "needs 20 / (start field) levels, over the cap of 2000000\n")


@pytest.mark.parametrize("task", ["oracle", "compare"])
def test_a_subnormal_field_is_refused_in_finite_words(tmp_path, capsys, task):
    # B = 1e-320 stops at the config row, which names the value and the least normal
    # field; the level sum never runs, so no overflowed level count is printed
    path = write_ini(tmp_path, f"[run]\ntask = {task}\n[geometry]\nkind = landau\n"
                               f"[operator]\nfield = 1e-320\n{GRID}")
    rc = main([task, "--config", path, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert "field: '1e-320'" in err and "[2.2250738585072014e-308, inf]" in err
    assert "levels" not in err


def assert_every_task_refuses_alike(tmp_path, capsys, kind, line, grid=GRID):
    """The one stderr line with which every task refuses the config."""
    errs = set()
    for task in ("asymptotics", "oracle", "compare", "report"):
        path = write_ini(tmp_path, f"[run]\ntask = {task}\n[geometry]\nkind = {kind}\n"
                                   f"{line}\n{grid}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([task, "--config", path, "--out", str(tmp_path / "o.txt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        errs.add(err)
    (err,) = errs
    return err


BUDGET_M5 = ("error: cutoff-6 geometry: N = comb(13, 5) monomials of degree <= 8 in m = 5 "
             "pass BASIS_BUDGET = 1001\n")


@pytest.mark.parametrize("task,dimension", [
    ("compare", 4), ("oracle", 4), ("compare", 1), ("asymptotics", 5), ("oracle", 5),
])
def test_sphere_dimension_out_of_range_exits_1(tmp_path, capsys, task, dimension):
    path = write_ini(tmp_path, f"[run]\ntask = {task}\n[geometry]\nkind = sphere\n"
                               f"dimension = {dimension}\n{GRID}")
    rc = main([task, "--config", path, "--out", str(tmp_path / "o.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    # the library's basis budget bounds the jet's dimension, the oracle bounds its
    # own; an oracle task builds no jet
    assert err == (BUDGET_M5 if dimension == 5 and task != "oracle"
                   else f"error: sphere spectra implemented for m in {{2, 3}}, not {dimension}\n")


def test_sphere_dimension_9_exits_before_building_the_jet(tmp_path):
    # the basis budget is checked when the geometry is built, before any jet array
    path = write_ini(tmp_path, "[run]\ntask = compare\n[geometry]\nkind = sphere\n"
                               f"dimension = 9\n{GRID}")
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "compare", "--config", path,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 1
    assert proc.stderr == ("error: cutoff-6 geometry: N = comb(17, 9) monomials of degree <= 8 "
                           "in m = 9 pass BASIS_BUDGET = 1001\n")


def test_sphere_m1_report_is_the_circle(tmp_path):
    # a circle of radius a has the trace sqrt(pi) a t^{-1/2} e^{-tq} up to
    # exponentially small terms, so A_2k = sqrt(pi) a (-q)^k / k!
    out = tmp_path / "report.json"
    path = write_ini(tmp_path, "[run]\ntask = report\n[geometry]\nkind = sphere\ndimension = 1\n"
                               "radius = 2.0\n[operator]\npotential = 0.5\n[asymptotics]\n"
                               f"kmax = 4\n{GRID}")
    assert main(["report", "--config", path, "--out", str(out)]) == 0
    terms = json.loads(out.read_text())["model"]["expansion"]
    want = {k - 0.5: math.sqrt(math.pi) * 2.0 * (-0.5) ** k / math.factorial(k) for k in range(5)}
    assert {float(e) for e in terms} == {e / 2 for e in range(-1, 8)}
    for e, c in terms.items():
        assert c == pytest.approx(want.get(float(e), 0.0), rel=1e-14, abs=0.0)


def test_relative_error_overflow_is_one_breach_line(tmp_path, capsys):
    # the oracle underflows to 0, so abs_err / 1e-300 overflows to an infinite rel_err
    path = write_ini(tmp_path, "[run]\ntask = compare\n[geometry]\nkind = sphere\n"
                               "[operator]\npotential = 99999999999999999999999\n"
                               "[grid]\nstart = 1e-2\nstop = 1e-1\ncount = 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["compare", "--config", path, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("tolerance breach at t=0.01 ") and err.count("\n") == 1


@pytest.mark.parametrize("task,columns", [
    ("asymptotics", ["asymptotic"]),
    ("oracle", ["oracle"]),
    ("compare", ["asymptotic", "oracle", "abs_err", "rel_err"]),
])
def test_csv_rows_spell_each_value_as_fmt(tmp_path, monkeypatch, task, columns):
    # each data row is written with one "%.17g,...,%.17g" format sized to its columns:
    # it must spell -0.0, a subnormal and the rel_err that overflows (oracle 0) as _fmt does
    grid = (0.1, 0.25, 1 / 3)
    values = {"asymptotic": np.array([-0.0, 1e10, 1 / 7]), "oracle": np.array([-0.0, 0.0, 1e-320])}
    monkeypatch.setitem(cli._MODELS, "landau", lambda cfg: {
        name: (lambda ts, col=col: col) for name, col in values.items()})
    out = tmp_path / "o.csv"
    rc = cli.run(RunConfig(task=task, kind="landau", grid=grid, out_format="csv",
                           out_path=str(out), abs_tol=1e-12, rel_tol=1e-6, params={}))
    with np.errstate(over="ignore"):
        values["abs_err"] = np.abs(values["asymptotic"] - values["oracle"])
        values["rel_err"] = values["abs_err"] / np.maximum(np.abs(values["oracle"]), 1e-300)
    lines = out.read_text().split("\n")
    rows = list(zip(grid, *(values[name].tolist() for name in columns)))
    assert lines[:2] == ["# heatkern-schema=1", ",".join(["t", *columns])]
    assert lines[2:5] == [",".join(cli._fmt(x) for x in row) for row in rows]
    assert lines[2].split(",")[1] == "-0"
    if task == "compare":
        assert rc == 2 and lines[3].endswith(",inf")
        assert lines[5:] == ["# summary: status=fail first_t=0.25 max_abs=10000000000 "
                             "max_rel=inf", ""]
    else:
        assert rc == 0 and lines[5:] == [""]


def test_json_compare_writes_non_finite_errors_as_csv_strings(tmp_path, capsys):
    # strict JSON has no Infinity token: the overflowing rel_err is the string "inf"
    out = tmp_path / "o.json"
    path = write_ini(tmp_path, "[run]\ntask = compare\n[geometry]\nkind = sphere\n"
                               "[operator]\npotential = 99999999999999999999999\n"
                               "[grid]\nstart = 1e-2\nstop = 1e-1\ncount = 4\n"
                               "[output]\nformat = json\n")

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    assert main(["compare", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    payload = json.loads(out.read_text(), parse_constant=refuse)
    assert payload["summary"]["max_rel"] == "inf"
    assert [row["rel_err"] for row in payload["rows"]] == ["inf"] * 4
    assert math.isfinite(payload["summary"]["max_abs"])


SPECIAL = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]


def strict(x):
    """A non-finite float as the string of its CSV spelling, in nested payloads."""
    if isinstance(x, dict):
        return {k: strict(v) for k, v in x.items()}
    if isinstance(x, list):
        return [strict(v) for v in x]
    return cli._fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


@pytest.mark.parametrize("task,columns", [
    ("asymptotics", ["asymptotic"]),
    ("oracle", ["oracle"]),
    ("compare", ["asymptotic", "oracle", "abs_err", "rel_err"]),
])
def test_json_rows_are_the_json_dumps_of_the_row_dicts(tmp_path, monkeypatch, task, columns):
    # the rows are one % operation on a template; their bytes must be json.dumps'
    # (sort_keys, indent=2) of one dict per row, with each special float in every
    # column, so the evaluators' non-finite check is bypassed here
    grid = tuple(SPECIAL)
    values = {"asymptotic": np.array(SPECIAL), "oracle": np.array(SPECIAL[::-1])}
    monkeypatch.setattr(cli, "_column", lambda model, column, ts: values[column])
    monkeypatch.setitem(cli._MODELS, "landau", lambda cfg: {})
    out = tmp_path / "o.json"
    with np.errstate(invalid="ignore"):
        cli.run(RunConfig(task=task, kind="landau", grid=grid, out_format="json",
                          out_path=str(out), abs_tol=1e-12, rel_tol=1e-6, params={}))
        values["abs_err"] = np.abs(values["asymptotic"] - values["oracle"])
        values["rel_err"] = values["abs_err"] / np.maximum(np.abs(values["oracle"]), 1e-300)
    text = out.read_text(encoding="utf-8")
    rows = [dict(zip(["t", *columns], row))
            for row in zip(grid, *(values[name].tolist() for name in columns))]
    payload = {"schema": 1, "task": task, "rows": rows}
    if task == "compare":
        payload["summary"] = json.loads(text)["summary"]
    assert text == json.dumps(strict(payload), sort_keys=True, indent=2) + "\n"


def test_unwritable_output_exits_1_with_one_line(tmp_path, capsys):
    path = write_ini(tmp_path, "[run]\ntask = report\n[geometry]\nkind = landau\n"
                               f"{GRID}[output]\npath = {tmp_path}\n")
    assert main(["report", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


def test_huge_interval_exits_1_without_building_the_spectrum(tmp_path):
    # the first partial sum would need ~1e301 eigenvalues; it is refused up front
    path = write_ini(tmp_path, "[run]\ntask = compare\n[geometry]\nkind = interval\n"
                               f"length = 1e300\n{GRID}")
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "compare", "--config", path,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: interval trace needs about")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("kind,blocks,start", [
    ("sphere", "", "1e-9"),
    ("torus", "periods = 1,1\n[operator]\ncutoff = 31\n", "0.01"),
], ids=["sphere", "fourier"])
def test_long_fine_grid_exits_1_before_summing(tmp_path, kind, blocks, start):
    # a million t at about 2e5 sphere levels, or 3969 Fourier levels, each is
    # refused up front; summed, they ran for most of an hour and about 70 s
    path = write_ini(tmp_path, f"[run]\ntask = oracle\n[geometry]\nkind = {kind}\n{blocks}"
                               f"[grid]\nstart = {start}\nstop = 1\ncount = 1000000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "oracle", "--config", path,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 1
    assert "trace needs " in proc.stderr and "over the work cap" in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_interval_robin_rejected(tmp_path, capsys):
    path = write_ini(tmp_path, f"""
[run]
task = compare

[geometry]
kind = interval
length = 3.14159

[boundary]
bc = robin

[grid]
start = 0.01
stop = 0.1
count = 4

[output]
path = {tmp_path / 'i.csv'}
""")
    rc = main(["compare", "--config", path])
    assert rc == 1
    assert "DD/NN/DN" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz of main() generated from the key table
# ---------------------------------------------------------------------------

ADVERSARIAL = ("nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "0", "-1",
               "12345678901234567890123", "abc", "", "1,nan", "1:nan;-1:nan")
SIZE_CAPS = {"count": 16, "cutoff": 32}      # keeps every valid run small
KINDS = next(row[5] for row in cli._KEYS if row[1] == "kind")


def valid_values(key, parse, allowed):
    """Raw values that the row of cli._KEYS for `key` accepts."""
    if allowed is not None and isinstance(allowed[0], str):
        return st.sampled_from(allowed)
    if parse is int:
        lo, hi = allowed or (0, 32)
        return st.integers(lo, min(hi, SIZE_CAPS.get(key, 32))).map(str)
    if parse is cli._finite:
        return st.floats(0.05, 5.0).map(repr)
    if parse is cli._floats:
        return st.lists(st.floats(0.5, 8.0), min_size=1, max_size=2).map(
            lambda xs: ",".join(map(repr, xs)))
    if parse is cli._parse_modes:
        return st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=2),
                         st.floats(-0.2, 0.2)).map(
            lambda p: "; ".join(",".join(str(s * n) for n in p[0]) + f":{p[1]!r}"
                                for s in (1, -1)))
    return st.just("out.csv")


@st.composite
def fuzz_configs(draw):
    """(task, INI text): every row of cli._KEYS that the drawn kind reads holds a
    valid value, except a few rows left absent or given an adversarial value;
    sometimes a key or section that no row reads is added."""
    task = draw(st.sampled_from(cli._TASKS))
    kind = draw(st.sampled_from(KINDS))
    rows = [row for row in cli._KEYS if row[2] is None or kind in row[2]]
    keys = [row[1] for row in rows]       # unique within one kind
    absent = draw(st.sets(st.sampled_from(keys), max_size=3))
    bad = draw(st.sets(st.sampled_from(keys), max_size=2))
    sections = {}
    for section, key, _, parse, _, allowed in rows:
        if key in bad:
            value = draw(st.sampled_from(ADVERSARIAL))
        elif key in absent:
            continue
        else:
            value = {"task": task, "kind": kind}.get(key) or draw(
                valid_values(key, parse, allowed))
        sections.setdefault(section, {})[key] = value
    extra = draw(st.sampled_from((None, None, None, ("geometry", "radus"), ("opertor", "field"))))
    if extra:
        sections.setdefault(extra[0], {})[extra[1]] = "1.0"
    return task, "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                         for name, items in sections.items())


@settings(max_examples=400, deadline=5000)
@given(fuzz_configs())
def test_main_fuzz(case):
    task, text = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # a numpy RuntimeWarning would be a second stderr line
        warnings.simplefilter("error")
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([task, "--config", path, "--out", os.path.join(tmp, "out")])
    err = err.getvalue()
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n")


def configparser_sections(text):
    """The reading of text that cli._sections must match: configparser's defaults."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


@settings(max_examples=300, deadline=None)
@given(fuzz_configs())
def test_reader_reads_the_fuzz_configs_as_configparser_does(case):
    # derandomized and with no example database, as every test here (conftest.py)
    _, text = case
    assert cli._sections(text, "run.ini") == configparser_sections(text)


@pytest.mark.parametrize("text", [
    "",
    "# a comment\n; another\n\n[run]\n  # an indented comment\ntask=compare\n",
    "[run]\nTask : compare\nkEy = a = b: c\nother: x = y\nempty =\nspaced   =   v  \n",
    "[Run]\n[run]\nk = a\x0cb\x85c\u2028d\x1ce\nj = \x0c\n",
    "[run]\r\nk = v\r\n\r\n[ a b ]\r\nj=w\r\n",
    "[run]\nk = v\n\n\n[geometry]\nkind = sphere\n\n",
    "[[run]\nk = [v]\n[a = b]\n",
], ids=["empty", "comments", "delimiters", "line-breaks", "crlf", "blank-lines", "brackets"])
def test_reader_reads_grammar_corners_as_configparser_does(text):
    # delimiters ':' and '=', case, comments, blank lines, Unicode line breaks
    # that a text file keeps inside a line, carriage returns and odd section names
    assert cli._sections(text, "run.ini") == configparser_sections(text)


# ---------------------------------------------------------------------------
# per-kind runs
# ---------------------------------------------------------------------------

def test_oracle_task_matches_library(tmp_path):
    out = tmp_path / "o.csv"
    path = write_ini(tmp_path, f"""
[run]
task = oracle

[geometry]
kind = sphere
dimension = 2
radius = 1.0

[operator]
potential = 0.2

[grid]
start = 0.05
stop = 0.2
count = 3

[output]
path = {out}
""")
    assert main(["oracle", "--config", path]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "t,oracle"
    for line in lines[2:]:
        t, v = map(float, line.split(","))
        want = spectra.sphere_trace(2, 1.0, t) * math.exp(-0.2 * t)
        assert abs(v - want) < 1e-13 * want


def test_asymptotics_task_header(tmp_path):
    out = tmp_path / "a.csv"
    path = write_ini(tmp_path, f"""
[run]
task = asymptotics

[geometry]
kind = interval
length = 2.0

[boundary]
bc = NN

[grid]
start = 0.01
stop = 0.05
count = 4

[output]
path = {out}
""")
    assert main(["asymptotics", "--config", path]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# heatkern-schema=1" and lines[1] == "t,asymptotic"
    t, v = map(float, lines[2].split(","))
    assert abs(v - ((4 * math.pi * t) ** -0.5 * 2.0 + 0.5)) < 1e-12


@pytest.mark.parametrize("bc", ["DD", "NN", "DN"])
def test_interval_compare_passes(tmp_path, bc):
    out = tmp_path / f"{bc}.csv"
    path = write_ini(tmp_path, f"""
[run]
task = compare

[geometry]
kind = interval
length = 3.141592653589793

[boundary]
bc = {bc}

[grid]
start = 0.01
stop = 0.1
count = 5

[tolerances]
abs = 1e-9
rel = 1e-9

[output]
path = {out}
""", name=f"{bc}.ini")
    assert main(["compare", "--config", path]) == 0


def test_landau_compare_exact(tmp_path):
    out = tmp_path / "landau.csv"
    path = write_ini(tmp_path, f"""
[run]
task = compare

[geometry]
kind = landau

[operator]
field = 1.5

[grid]
start = 0.01
stop = 2.0
count = 6

[tolerances]
abs = 1e-300
rel = 1e-10

[output]
path = {out}
""")
    assert main(["compare", "--config", path]) == 0


def test_landau_compare_weak_field(tmp_path):
    # a field below 1e-12 keeps its frequency: at tB = 1 the closed form is the
    # level sum, not the free density, with an absolute tolerance far below both
    out = tmp_path / "landau.csv"
    path = write_ini(tmp_path, f"""
[run]
task = compare

[geometry]
kind = landau

[operator]
field = 1e-13

[grid]
start = 1e12
stop = 1e13
count = 6
geometric = true

[tolerances]
abs = 1e-30
rel = 1e-10

[output]
path = {out}
""")
    assert main(["compare", "--config", path]) == 0


def test_landau_oracle_is_the_level_sum(monkeypatch):
    # the oracle shares no code with the closed form it checks: with that form
    # broken it still matches a 40-digit (B/4 pi)/sinh(tB) on the fixture grid
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    from heatkern import symmspace

    def broken(x):
        raise AssertionError("the oracle called the closed form")

    monkeypatch.setattr(symmspace, "_x_over_sinh", broken)
    cfg = RunConfig.from_ini(REPO_CONFIGS / "landau.ini")
    B = cfg.params["field"]
    got = cli._MODELS["landau"](cfg)["oracle"](np.asarray(cfg.grid))
    for t, g in zip(cfg.grid, got):
        want = mp.mpf(B) / (4 * mp.pi * mp.sinh(mp.mpf(t) * B))
        assert abs((mp.mpf(float(g)) - want) / want) <= 1e-15


def test_landau_compare_past_sinh_overflow(tmp_path):
    # tB reaches 1200: both columns underflow toward 0 instead of overflowing
    out = tmp_path / "landau.csv"
    path = write_ini(tmp_path, f"""
[run]
task = compare

[geometry]
kind = landau

[operator]
field = 1.5

[grid]
start = 0.01
stop = 800
count = 8

[tolerances]
abs = 1e-15
rel = 1e-10

[output]
path = {out}
""")
    assert main(["compare", "--config", path]) == 0
    assert out.read_text().splitlines()[-2].startswith("800,0,0,")


@pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
def test_circle_non_finite_amplitude_exits_1(tmp_path, amplitude):
    # a NaN amplitude once spun forever in the oracle's tail loop
    path = write_ini(tmp_path, f"""
[run]
task = oracle

[geometry]
kind = circle

[operator]
mode = 3
amplitude = {amplitude}
cutoff = 64

[grid]
start = 0.05

[output]
path = {tmp_path / "o.csv"}
""")
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "oracle", "--config", path],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


def test_circle_compare_gamma_channel(tmp_path):
    # weak cosine background: the t^{3/2} functional closes the gap to 1e-3
    out = tmp_path / "circle.csv"
    path = write_ini(tmp_path, f"""
[run]
task = compare

[geometry]
kind = circle
length = 6.283185307179586

[operator]
mode = 3
amplitude = 0.01
cutoff = 64

[grid]
start = 0.05
stop = 0.5
count = 5

[tolerances]
abs = 1e-300
rel = 1e-3

[output]
path = {out}
""")
    assert main(["compare", "--config", path]) == 0


def test_report_sphere_expansion(tmp_path):
    out = tmp_path / "report.json"
    path = write_ini(tmp_path, f"""
[run]
task = report

[geometry]
kind = sphere
dimension = 2
radius = 1.0

[grid]
start = 1e-2

[output]
format = json
path = {out}
""")
    assert main(["report", "--config", path]) == 0
    text = out.read_text()
    assert text.startswith("{\n  ")      # indent=2
    payload = json.loads(text)
    assert payload["schema"] == 1
    exp = payload["model"]["expansion"]
    assert abs(exp["-1.0"] - 1.0) < 1e-12
    assert abs(exp["0.0"] - 1.0 / 3.0) < 1e-12
    assert abs(exp["1.0"] - 1.0 / 15.0) < 1e-12
    assert abs(exp["2.0"] - 4.0 / 315.0) < 1e-12
    assert exp["-0.5"] == 0.0 and exp["0.5"] == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("task", cli._TASKS)
def test_each_task_writes_the_format_it_names(tmp_path, capsys, task, fmt):
    out = tmp_path / f"out.{fmt}"
    path = write_ini(tmp_path, f"[run]\ntask = {task}\n[geometry]\nkind = landau\n"
                               "[grid]\nstart = 0.1\nstop = 0.2\ncount = 3\n"
                               f"[output]\nformat = {fmt}\npath = {out}\n")
    rc = main([task, "--config", path])
    err = capsys.readouterr().err
    if (task, fmt) == ("report", "csv"):
        assert rc == 1 and not out.exists()
        assert err == ("error: [output] format = csv is not available for the report task, "
                       "which writes json\n")
        return
    assert rc == 0 and err == ""
    text = out.read_text()
    columns = ["t"] + {"asymptotics": ["asymptotic"], "oracle": ["oracle"], "report": [],
                       "compare": ["asymptotic", "oracle", "abs_err", "rel_err"]}[task]
    if fmt == "csv":
        lines = text.splitlines()
        assert lines[:2] == ["# heatkern-schema=1", ",".join(columns)]
        assert len(lines) == 5 + (task == "compare")
        return
    payload = json.loads(text)
    assert payload["schema"] == 1 and payload["task"] == task
    assert ("summary" in payload) == (task == "compare")
    if task == "report":
        assert payload["model"] == {"kind": "landau", "field": 1.0}
    else:
        assert [sorted(row) for row in payload["rows"]] == [sorted(columns)] * 3
        assert [row["t"] for row in payload["rows"]] == list(RunConfig.from_ini(path).grid)


def test_report_defaults_to_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_ini(tmp_path, f"[run]\ntask = report\n[geometry]\nkind = landau\n{GRID}")
    assert main(["report", "--config", path]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["task"] == "report"


def test_out_flag_overrides_config(tmp_path):
    configured = tmp_path / "configured.csv"
    actual = tmp_path / "actual.csv"
    cfg = sphere_compare_ini(tmp_path, configured)
    assert main(["compare", "--config", cfg, "--out", str(actual)]) == 0
    assert actual.exists() and not configured.exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_compare_byte_deterministic_across_runs(tmp_path):
    cfg = str(REPO_CONFIGS / "circle_gamma.ini")
    outs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        out = tmp_path / name
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "compare", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]


def _loaded_scipy_modules(code):
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_core_imports_load_no_scipy():
    # scipy costs most of a cold CLI start; it stays behind the routes that need it
    names = ("cli", "hmds", "tensorcalc", "spectra", "formfactors", "symmspace",
             "nonlaplace", "oblique", "quadrature", "zaremba")
    assert _loaded_scipy_modules(
        "\n".join(f"import heatkern.{name}" for name in names)) == "[]"


def test_quadrature_routes_run_without_scipy():
    # scipy is a test dependency only: with its import blocked, every library route the
    # quadratures benchmark workload drives runs, the Bessel oracle from 3 and 60 modes
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
from heatkern import formfactors, nonlaplace, oblique, symmspace, zaremba
W = zaremba.WedgePoint
p, pp = W(1.0, 0.1), W(1.0, -0.2)
for terms in (3, 60):
    res = zaremba.bessel_oracle(0.02, p, pp, terms=terms)
    assert abs(res.value - zaremba.wedge_kernel(0.02, p, pp)) <= res.tail_bound
assert zaremba.corner_coefficient(2) == -1 / 16
zaremba.wedge_trace_expansion(2, 1, 1.0, 1.0, 1.0)
assert max(zaremba.bc_residuals(0.1)) < 1e-6
space = symmspace.build_symmetric_space("S2", 1.0)
symmspace.theta_quadrature(space, Q=0.2, t=0.01)
symmspace.theta_series(space, Q=0.2, order=4)
sym = nonlaplace.one_form_symbol(2, 0.8)
nonlaplace.h_endomorphism(sym, nonlaplace.eigenstructure(sym))
nonlaplace.torus_oracle(sym, Q=0.2 * np.eye(2), t=0.01, cutoff=12, periods=[1.0, 1.0])
s3 = np.diag([1.0, -1.0]).astype(complex)
data = oblique.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                   Gamma=(0.4j * s3, np.zeros((2, 2))))
oblique.a1_quadrature(data), oblique.a1_abelian(data)
s1 = np.array([[0, 1], [1, 0]], dtype=complex)
oblique.a1_clifford(oblique.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                                Gamma=(0.4j * s1, 0.4j * s3)))
formfactors.gamma_factor(2, 0.5), formfactors.gamma_factor(2, 20.0)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_circle_compare_loads_no_scipy(tmp_path):
    # circle_gamma's grid puts t |k|^2 on both sides of the gamma branch point z = 1
    cfg = str(REPO_CONFIGS / "circle_gamma.ini")
    out = str(tmp_path / "c.csv")
    assert _loaded_scipy_modules(
        "from heatkern.cli import main\n"
        f"assert main(['compare', '--config', {cfg!r}, '--out', {out!r}]) == 0") == "[]"


# the heatkern modules each fixture's cold `python -m heatkern.cli` process imports,
# besides heatkern.cli itself, which runs as __main__
CORE = {"heatkern", "heatkern.errors", "heatkern.spectra", "heatkern.quadrature"}
JET = CORE | {"heatkern.hmds", "heatkern.tensorcalc"}
FOURIER = CORE | {"heatkern.formfactors"}
KIND_MODULES = {
    "interval_dd": CORE,
    "sphere_s2": JET, "sphere_tight": JET, "sphere_report": JET,
    "circle_gamma": FOURIER, "torus_separable": FOURIER,
    "landau": CORE | {"heatkern.symmspace"},
    "sphere_oracle": CORE,
}
# the stdlib modules only some fixtures read: formfactors' exact profile table
# and the JSON output
STDLIB_KINDS = {"fractions": {"circle_gamma", "torus_separable"}, "json": {"sphere_report"}}


def _imported_from_heatkern(log):
    """The modules of a `-X importtime` log from the import of heatkern on: the
    package's own subtree, printed just before its line, and every line after,
    so that nothing a site hook loads first is read."""
    rows = [line.split("|")[-1] for line in log.splitlines() if line.startswith("import time:")]
    start = next(i for i, row in enumerate(rows) if row.strip() == "heatkern")
    indent = rows[start][:-len("heatkern")]
    while start and rows[start - 1].startswith(indent + " "):
        start -= 1
    return {row.strip() for row in rows[start:]}


@functools.lru_cache(maxsize=None)
def _bare_numpy_modules():
    """What `import numpy` loads on its own, which no heatkern module can drop."""
    proc = subprocess.run([sys.executable, "-c", "import sys, numpy; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=120, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


@pytest.mark.parametrize("name", sorted(KIND_MODULES))
def test_each_kind_imports_only_its_modules(tmp_path, name):
    # a cold process pays each module's compile and set-up, so a module-level
    # import of a layer the kind never reads would show here
    if name == "sphere_oracle":
        text = (REPO_CONFIGS / "sphere_s2.ini").read_text().replace("task = compare",
                                                                    "task = oracle")
        cfg = write_ini(tmp_path, text)
    else:
        cfg = str(REPO_CONFIGS / f"{name}.ini")
    task = RunConfig.from_ini(cfg).task
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "heatkern.cli", task, "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=_subprocess_env())
    # the run went through every layer it reads: 2 is sphere_tight's tolerance breach
    assert proc.returncode in (0, 2), proc.stderr
    imported = _imported_from_heatkern(proc.stderr)
    assert {n for n in imported if n.split(".")[0] == "heatkern"} == KIND_MODULES[name]
    bare = _bare_numpy_modules()
    extra = imported - bare
    assert not {n for n in extra if n.split(".")[:2] == ["numpy", "ma"]}
    for module, kinds in STDLIB_KINDS.items():
        assert (module in extra) == (name in kinds and module not in bare)


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "sub.csv"
    cfg = sphere_compare_ini(tmp_path, tmp_path / "unused.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "compare",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "# heatkern-schema=1"
