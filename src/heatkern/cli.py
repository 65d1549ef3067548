"""Config-driven runner: asymptotic predictions vs exact-spectrum oracles.

The command line is `heatkern TASK --config CFG [--out OUT]`, each option at most
once, as --flag VALUE or --flag=VALUE; -h or --help prints that usage line.  Four
tasks:

* asymptotics: tabulate the asymptotic model over the t-grid;
* oracle: tabulate the exact-spectrum oracle;
* compare: both, with per-t errors and a tolerance verdict as exit status;
* report: a JSON summary of the assembled model.

A config is a flat INI file in UTF-8 (see configs/ for the fixtures), read by
_sections.  Its lines are `[name]` section headers (a non-empty name other than
DEFAULT, case-sensitive, with no text after the `]`), `key = value` or
`key: value` lines (split at the first `=` or `:`; the key is stripped and
lower-cased, the value stripped), blank lines and full-line `#` or `;`
comments.  Any other line is a config parse error: a line with no delimiter, a
key before any section, a duplicate section or key, an indented line (where
configparser would read a continuation), a value holding `%` (which
configparser would interpolate) and a NUL byte.  So no value is read
differently from configparser's reading of the same file.

Every config key is one row of _KEYS.  A missing required key, a value its
row rejects, and a section or key no row reads for the configured geometry
kind are config errors.

Exit codes: 0 success, 1 a malformed command line (the usage line) or a
validation/config error, 2 tolerance breach; each error is one stderr line.
The three table tasks write CSV or JSON, as [output] format says; report
writes JSON only.  Output is byte-deterministic for a fixed config: floats
are printed with %.17g and rows are written in grid order.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import HeatkernError, ValidationError
from .spectra import (_LEVEL_CAP, MIN_LENGTH, FourierBackground, _like_t, _number,
                      interval_trace, landau_trace_density, sphere_trace,
                      torus_potential_trace)

_TASKS = ("asymptotics", "oracle", "compare", "report")
_USAGE = "usage: heatkern {%s} --config CFG [--out OUT]" % ",".join(_TASKS)
_SCHEMA = "# heatkern-schema=1"
_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True,
             "0": False, "no": False, "false": False, "off": False}


_fmt = lambda x: "%.17g" % float(x)
_finite = lambda raw: _number(float(raw), "value")      # config text, converted first
_floats = lambda raw: tuple(_finite(x) for x in raw.split(","))


def _parse_modes(raw):
    modes = {}
    for entry in filter(None, map(str.strip, raw.split(";"))):
        key, _, val = entry.partition(":")
        if not val:
            raise ValidationError(f"mode entry {entry!r} must look like 'n1,n2:amp'")
        modes[tuple(int(x) for x in key.split(","))] = complex(val)
    return modes


# Rows (section, key, kinds, parse, default, allowed).  kinds: the geometry
# kinds that read the key, None for all.  default: a value, _REQUIRED, or a
# function of the common values read before it.  allowed: None, a tuple of
# choices or a closed range (lo, hi); the library checks its own ranges.
_REQUIRED = object()
_POSITIVE = (math.ulp(0.0), math.inf)
_NORMAL = (sys.float_info.min, math.inf)       # a subnormal field overflows the level count
_EXPECTED = {int: "an integer", _finite: "a finite number",
             _floats: "finite numbers 'a,b,...'", _parse_modes: "modes 'n1,n2:amp; ...'"}
_KEYS = (
    ("run", "task", None, str, _REQUIRED, _TASKS),
    ("geometry", "kind", None, str, _REQUIRED,
     ("sphere", "circle", "torus", "landau", "interval")),
    ("grid", "start", None, _finite, _REQUIRED, _POSITIVE),
    ("grid", "stop", None, _finite, lambda v: v["start"], _POSITIVE),
    ("grid", "count", None, int, 1, (1, 1_000_000)),
    ("grid", "geometric", None, str.lower, "true", tuple(_BOOLEANS)),
    ("tolerances", "abs", None, _finite, 1e-12, _POSITIVE),
    ("tolerances", "rel", None, _finite, 1e-6, _POSITIVE),
    ("output", "format", None, str, lambda v: "json" if v["task"] == "report" else "csv",
     ("csv", "json")),
    ("output", "path", None, str, lambda v: f"{v['task']}.{v['format']}", None),
    # no range: tensorcalc.BASIS_BUDGET bounds the jet's m, the oracle knows m = 2, 3
    ("geometry", "dimension", ("sphere",), int, 2, None),
    ("geometry", "radius", ("sphere",), _finite, 1.0, None),
    ("operator", "potential", ("sphere",), _finite, 0.0, None),
    # the orders whose float towers tests/test_exact_towers.py pins against exact ones
    ("asymptotics", "kmax", ("sphere",), int, 3, (0, 4)),
    ("geometry", "length", ("circle",), _finite, 2.0 * math.pi, None),
    ("operator", "mode", ("circle",), int, 1, None),
    ("operator", "amplitude", ("circle",), _finite, 0.0, None),
    ("operator", "cutoff", ("circle", "torus"), int, 64, None),
    ("geometry", "periods", ("torus",), _floats, _REQUIRED, None),
    ("operator", "modes", ("torus",), _parse_modes, {}, None),
    ("operator", "field", ("landau",), _finite, 1.0, _NORMAL),
    ("geometry", "length", ("interval",), _finite, math.pi, None),
    ("boundary", "bc", ("interval",), str, "DD", ("DD", "NN", "DN")),
)


def _read(row, items, values):
    """The value of one row of _KEYS from its section's raw items, which it pops."""
    section, key, _, parse, default, allowed = row
    if key not in items:
        if default is _REQUIRED:
            raise ValidationError(f"missing [{section}] {key}")
        return default(values) if callable(default) else default
    raw = items.pop(key)
    choices = allowed is not None and isinstance(allowed[0], str)
    try:
        value = parse(raw)
        if allowed is None or (value in allowed if choices else allowed[0] <= value <= allowed[1]):
            return value
    except (ValueError, ValidationError):
        pass
    expected = ("one of " + "/".join(allowed) if choices else _EXPECTED[parse]
                + ("" if allowed is None else " in [%r, %r]" % allowed))
    raise ValidationError(f"bad value for [{section}] {key}: {raw!r}; expected {expected}")


def _sections(text, path):
    """{section: {key: value}} of a config's text in the grammar of the module
    docstring; any other line is a ValidationError naming its number.  Lines end
    at "\\n" only, as in a text file: str.splitlines would also end one at a form
    feed or U+0085, which configparser keeps inside a value."""
    sections, items = {}, None
    for number, line in enumerate(text.split("\n"), 1):
        body = line.strip()
        if not body or body[0] in "#;":
            continue
        if line[0].isspace():
            why = "an indented line (no continuation lines)"
        elif "\0" in body:
            why = "a NUL byte"
        elif body[0] == "[":
            section = body[1:-1]
            if body[-1] != "]" or not section or "]" in section or section == "DEFAULT":
                why = f"bad section header {body!r}"
            elif section in sections:
                why = f"duplicate section [{section}]"
            else:
                items = sections[section] = {}
                continue
        elif items is None:
            why = "a key before any [section]"
        else:
            key, eq, value = body.partition("=")
            if ":" in key:
                key, eq, value = body.partition(":")
            key, value = key.rstrip().lower(), value.strip()
            if not (eq and key):
                why = f"{body!r} is not 'key = value'"
            elif key in items:
                why = f"duplicate key [{section}] {key}"
            elif "%" in value:
                why = f"'%' in the value of [{section}] {key} (no interpolation)"
            else:
                items[key] = value
                continue
        raise ValidationError(f"config parse error in {path}: line {number}: {why}")
    return sections


@dataclass(frozen=True)
class RunConfig:
    """A config's parsed values; params holds the kind-specific rows of _KEYS."""
    task: str
    kind: str
    grid: tuple
    out_format: str
    out_path: str
    abs_tol: float
    rel_tol: float
    params: dict

    @classmethod
    def from_ini(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}")
        sections = _sections(text, path)

        values, params, known = {}, {}, set()
        for row in _KEYS:
            section, key, kinds = row[:3]
            if kinds is None or values["kind"] in kinds:
                known.add(section)
                value = _read(row, sections.get(section, {}), values)
                (values if kinds is None else params)[key] = value
        for section, items in sections.items():
            if section not in known:
                raise ValidationError(f"unknown section [{section}] for kind {values['kind']!r}")
            for key in items:
                raise ValidationError(f"unknown key [{section}] {key} for kind {values['kind']!r}")

        start, stop, count = values["start"], values["stop"], values["count"]
        if stop < start:
            raise ValidationError("grid must satisfy 0 < start <= stop")
        if values["kind"] == "landau":
            # landau_trace_density's first level count at the grid's least t, so that
            # every task refuses a field the oracle cannot sum, in the same words
            field = params["field"]
            if not (20.0 / (start * field) if start * field else math.inf) <= _LEVEL_CAP:
                raise ValidationError(f"landau field {field!r} at grid start {start!r} needs "
                                      f"20 / (start field) levels, over the cap of {_LEVEL_CAP}")
        # both spacings return start and stop exactly as the end points
        spacing = np.geomspace if _BOOLEANS[values["geometric"]] else np.linspace
        return cls(task=values["task"], kind=values["kind"],
                   grid=tuple(spacing(start, stop, count).tolist()),
                   out_format=values["format"], out_path=values["path"],
                   abs_tol=values["abs"], rel_tol=values["rel"], params=params)


# Each kind's model: {"asymptotic", "oracle", "describe"}; the evaluators take the
# whole t-grid as one array and return an array.  A builder imports the library
# modules only its kind reads, so a cold process loads no other.

def _sphere(cfg):
    """The sphere's oracle, plus its HMDS expansion unless the task is oracle."""
    p = cfg.params
    m, a, q, kmax = p["dimension"], p["radius"], p["potential"], p["kmax"]
    model = {"oracle": lambda ts: sphere_trace(m, a, ts) * np.exp(-ts * q)}
    if cfg.task == "oracle":
        return model
    from .hmds import build_operator_jet, hmds_coefficients, trace_expansion
    from .tensorcalc import PotentialJet, build_model_geometry
    cut = 2 * kmax
    geom = build_model_geometry("sphere", m, cutoff=cut, radius=a)
    pot = PotentialJet.constant(m, 1, q, cutoff=cut)
    jet = build_operator_jet(geom, pot, cutoff=cut)
    expansion = trace_expansion(geom, hmds_coefficients(jet, kmax, cutoff=0))
    model["asymptotic"] = expansion.evaluate
    model["describe"] = {"kind": "sphere", "m": m, "radius": a, "potential": q,
                         "expansion": {str(e): c for e, c in expansion.terms}}
    return model


def _fourier(cfg):
    """A circle or a flat torus: the form-factor resummation and the Fourier oracle."""
    from .formfactors import h_functional
    p = cfg.params
    if cfg.kind == "circle":
        bg = FourierBackground.circle_cosine(p["length"], p["mode"], p["amplitude"])
    else:
        bg = FourierBackground(len(p["periods"]), p["periods"], potential_modes=p["modes"])
    m, vol, modes = bg.m, bg.volume, bg.potential_modes
    pref = (4.0 * math.pi) ** (-m / 2.0)
    q0 = modes.get((0,) * m)
    a2 = -pref * vol * (0.0 if q0 is None else float(q0[0, 0].real))
    return {"asymptotic": lambda ts: (pref * vol * ts ** (-m / 2.0)
                                      + a2 * ts ** (1.0 - m / 2.0)
                                      + ts ** (2.0 - m / 2.0) * h_functional(bg, ts)),
            "oracle": partial(torus_potential_trace, bg.periods, modes, p["cutoff"]),
            "describe": {"kind": cfg.kind, "periods": list(bg.periods),
                         "modes": {",".join(map(str, k)): [q[0, 0].real, q[0, 0].imag]
                                   for k, q in sorted(modes.items())},
                         "A0": pref * vol, "A2": a2}}


def _landau(cfg):
    """The constant-field plane: the nilpotent closed form and the Landau levels."""
    from .symmspace import ConstantFieldStrength, nilpotent_trace_density
    B = cfg.params["field"]
    fs = ConstantFieldStrength(m=2, rhat=[[0.0, B], [-B, 0.0]])
    return {"asymptotic": partial(nilpotent_trace_density, fs),
            "oracle": partial(landau_trace_density, B),
            "describe": {"kind": "landau", "field": B}}


def _interval(cfg):
    """The interval: Weyl's two terms and the Dirichlet/Neumann spectrum."""
    L, bc = _number(cfg.params["length"], "interval length", MIN_LENGTH), cfg.params["bc"]
    const = {"DD": -0.5, "NN": 0.5, "DN": 0.0}[bc]
    return {"asymptotic": lambda ts: (4.0 * math.pi * ts) ** -0.5 * L + const,
            "oracle": partial(interval_trace, L, bc),
            "describe": {"kind": "interval", "length": L, "bc": bc,
                         "weyl": [(4.0 * math.pi) ** -0.5 * L, const]}}


_MODELS = {"sphere": _sphere, "circle": _fourier, "torus": _fourier, "landau": _landau,
           "interval": _interval}


def _column(model, column, ts):
    """model[column](ts), a non-finite value a NumericError naming its t."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = model[column](ts)
    return _like_t(ts, values, "heat-trace expansion" if column == "asymptotic" else "oracle")


def _json(payload):
    """payload as indented JSON text.  A non-finite float is written as the string
    of its CSV spelling ("inf", "-inf", "nan"), so that strict parsers read it."""
    import json

    def strict(x):
        if isinstance(x, dict):
            return {k: strict(v) for k, v in x.items()}
        if isinstance(x, list):
            return [strict(v) for v in x]
        return _fmt(x) if isinstance(x, float) and not math.isfinite(x) else x
    return json.dumps(strict(payload), sort_keys=True, indent=2) + "\n"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run(cfg):
    """Execute one task in cfg.out_format; returns the process exit status."""
    if cfg.task == "report" and cfg.out_format != "json":
        raise ValidationError(f"[output] format = {cfg.out_format} is not available for "
                              "the report task, which writes json")
    model = _MODELS[cfg.kind](cfg)
    if cfg.task == "report":
        _write_text(cfg.out_path, _json({"schema": 1, "task": cfg.task, "model": model["describe"],
                                         "grid": [float(t) for t in cfg.grid]}))
        return 0

    ts = np.asarray(cfg.grid)
    names = {"asymptotics": ["asymptotic"], "oracle": ["oracle"],
             "compare": ["asymptotic", "oracle"]}[cfg.task]
    cols = {name: _column(model, name, ts) for name in names}
    summary = first_fail = None
    if cfg.task == "compare":
        with np.errstate(over="ignore"):
            cols["abs_err"] = abs_err = np.abs(cols["asymptotic"] - cols["oracle"])
            cols["rel_err"] = rel_err = abs_err / np.maximum(np.abs(cols["oracle"]), 1e-300)
        fails = np.flatnonzero(~((abs_err <= cfg.abs_tol) | (rel_err <= cfg.rel_tol)))
        first_fail = cfg.grid[fails[0]] if fails.size else None
        summary = {"status": "ok" if first_fail is None else "fail",
                   "max_abs": float(abs_err.max()), "max_rel": float(rel_err.max()),
                   "first_failing_t": first_fail}
    table = {"t": ts, **cols}
    keys = sorted(table) if cfg.out_format == "json" else list(table)    # json sorts keys
    data = np.column_stack([table[key] for key in keys])
    values = data.ravel().tolist()

    # each table is one % operation over all its rows
    if cfg.out_format == "json":
        if not np.isfinite(data).all():
            values = [v if math.isfinite(v) else '"%s"' % _fmt(v) for v in values]
        # a row as json.dumps(indent=2) spells it, a float as %s does (float.__repr__);
        # the rows take the place of the null that is the document's first value
        row = "{\n      " + ",\n      ".join('"%s": %%s' % key for key in keys) + "\n    }"
        rows = ",\n    ".join([row] * len(ts)) % tuple(values)
        payload = {"schema": 1, "task": cfg.task, "rows": [None]}
        _write_text(cfg.out_path, _json(payload | ({"summary": summary} if summary else {}))
                    .replace("null", rows, 1))
    else:
        row = ",".join(["%.17g"] * len(keys))     # _fmt's spelling
        lines = [_SCHEMA, ",".join(keys), "\n".join([row] * len(ts)) % tuple(values)]
        if summary:
            status = "ok" if first_fail is None else f"fail first_t={_fmt(first_fail)}"
            lines.append(f"# summary: status={status} max_abs={_fmt(summary['max_abs'])} "
                         f"max_rel={_fmt(summary['max_rel'])}")
        _write_text(cfg.out_path, "\n".join(lines) + "\n")

    if first_fail is not None:
        print(f"tolerance breach at t={_fmt(first_fail)} "
              f"(abs {_fmt(cfg.abs_tol)}, rel {_fmt(cfg.rel_tol)})",
              file=sys.stderr)
        return 2
    return 0


def _args(argv):
    """(task, config, out or None) of the usage line's shape; else ValidationError(_USAGE)."""
    task, *rest = argv or [""]
    opts = {}
    while rest:
        flag, eq, value = rest.pop(0).partition("=")
        if not eq and rest and not rest[0].startswith("-"):
            eq, value = "=", rest.pop(0)
        if not eq or flag not in ("--config", "--out") or flag in opts:
            raise ValidationError(_USAGE)
        opts[flag] = value
    if task not in _TASKS or "--config" not in opts:
        raise ValidationError(_USAGE)
    return task, opts["--config"], opts.get("--out")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return 0
    try:
        task, config, out = _args(argv)
        cfg = RunConfig.from_ini(config)
        if cfg.task != task:
            raise ValidationError(f"config task {cfg.task!r} does not match subcommand {task!r}")
        if out is not None:
            cfg = dataclasses.replace(cfg, out_path=out)
        return run(cfg)
    except (HeatkernError, OSError) as exc:   # OSError: the output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
