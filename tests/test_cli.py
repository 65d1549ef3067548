"""Config-driven runner: exit codes, output schema, byte determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

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
    assert cfg.kmax == 3
    assert cfg.operator["potential"] == "0.1"


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
    ("[run]\ntask = melt\n", "unknown task"),
    ("[run]\ntask = oracle\n[geometry]\nkind = klein\n[grid]\nstart = 0.1\n",
     "unknown geometry kind"),
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
    ("landau", GRID + "geometric = maybe\n", "bad value for [grid] geometric"),
    ("landau", GRID + "[output]\npath = out%x.csv\n", "config parse error"),
    ("landau", GRID + "[operator]\nfield = nan\n", "bad value for [operator] field: 'nan'"),
    ("interval", "length = nan\n" + GRID, "bad value for [geometry] length: 'nan'"),
    ("sphere", "radius = inf\n" + GRID, "bad value for [geometry] radius: 'inf'"),
    ("sphere", GRID + "[operator]\npotential = nan\n",
     "bad value for [operator] potential: 'nan'"),
    ("circle", "length = -inf\n" + GRID, "bad value for [geometry] length: '-inf'"),
    ("circle", GRID + "[operator]\namplitude = inf\n",
     "bad value for [operator] amplitude: 'inf'"),
    ("torus", "periods = 1,nan\n" + GRID, "bad value for [geometry] periods: '1,nan'"),
    ("sphere", "radius = 1e-200\n" + GRID, "sphere radius 1e-200 gives a non-finite"),
    ("sphere", "radius = 1e200\n" + GRID, "sphere radius 1e+200 gives a non-finite"),
    ("interval", "length = 1e300\n" + GRID, "over the cap of 1000000"),
    ("sphere", "radius = 1e10\n" + GRID, "over the cap of 2000000"),
    ("sphere", "[grid]\nstart = 1e300\n", "heat-trace expansion overflows at t=1e+300"),
    ("interval", "length = 1e-300\n" + GRID, "interval length 1e-300 is below 1e-100"),
    ("circle", GRID + "[operator]\nmode = 1000000000000000000000\n",
     "potential mode (1000000000000000000000,) exceeds 9007199254740992"),
    ("circle", "length = 1e-300\n" + GRID, "period 1e-300 is below 1e-100"),
    ("circle", GRID + "[operator]\namplitude = 1e300\n", "amplitude exceeds 1e+100"),
    ("sphere", GRID + "[operator]\npotential = 1e300\n", "heat coefficient a_2 is not finite"),
    ("circle", "[grid]\nstart = 1e300\nstop = 1e300\n[operator]\namplitude = 0.5\n",
     "heat-trace expansion overflows at t=1e+300"),
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


@pytest.mark.parametrize("task,dimension", [
    ("compare", 4), ("oracle", 4), ("compare", 1), ("asymptotics", 5), ("report", 1),
])
def test_sphere_dimension_out_of_range_exits_1(tmp_path, capsys, task, dimension):
    path = write_ini(tmp_path, f"[run]\ntask = {task}\n[geometry]\nkind = sphere\n"
                               f"dimension = {dimension}\n{GRID}")
    rc = main([task, "--config", path, "--out", str(tmp_path / "o.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: sphere dimension must be in [2, ")
    assert err.count("\n") == 1


def test_sphere_dimension_9_exits_before_building_the_jet(tmp_path):
    # the jet's cost grows steeply with m, so the bound is checked before it is built
    path = write_ini(tmp_path, "[run]\ntask = compare\n[geometry]\nkind = sphere\n"
                               f"dimension = 9\n{GRID}")
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "compare", "--config", path,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 1
    assert proc.stderr == ("error: sphere dimension must be in [2, 3] "
                           "for task 'compare', got 9\n")


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


def test_circle_compare_loads_no_scipy(tmp_path):
    # circle_gamma's grid puts t |k|^2 on both sides of the gamma branch point z = 1
    cfg = str(REPO_CONFIGS / "circle_gamma.ini")
    out = str(tmp_path / "c.csv")
    assert _loaded_scipy_modules(
        "from heatkern.cli import main\n"
        f"assert main(['compare', '--config', {cfg!r}, '--out', {out!r}]) == 0") == "[]"


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "sub.csv"
    cfg = sphere_compare_ini(tmp_path, tmp_path / "unused.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "compare",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "# heatkern-schema=1"
