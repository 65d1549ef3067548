"""Config-driven runner: asymptotic predictions vs exact-spectrum oracles.

Configs are flat INI files; see configs/ for the fixtures.  Four tasks:

* asymptotics: tabulate the asymptotic model over the t-grid;
* oracle: tabulate the exact-spectrum oracle;
* compare: both, with per-t errors and a tolerance verdict as exit status;
* report: a JSON summary of the assembled model.

Exit codes: 0 success, 1 validation/config error, 2 tolerance breach.
Output is byte-deterministic for a fixed config: floats are printed with
%.17g and rows are written in grid order.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import HeatkernError, NumericError, ValidationError
from .formfactors import FourierBackground, h_functional
from .hmds import build_operator_jet, hmds_coefficients, trace_expansion
from .spectra import (interval_trace, landau_trace_density, sphere_trace,
                      torus_potential_trace)
from .symmspace import ConstantFieldStrength, nilpotent_trace_density
from .tensorcalc import PotentialJet, build_model_geometry

_TASKS = ("asymptotics", "oracle", "compare", "report")
_KINDS = ("sphere", "circle", "torus", "landau", "interval")
_SCHEMA = "# heatkern-schema=1"
_MAX_GRID = 1_000_000


def _fmt(x):
    return "%.17g" % float(x)


@dataclass(frozen=True)
class RunConfig:
    task: str
    kind: str
    grid: tuple
    out_format: str
    out_path: str
    abs_tol: float = 1e-12
    rel_tol: float = 1e-6
    geometry: dict = field(default_factory=dict)
    operator: dict = field(default_factory=dict)
    boundary: dict = field(default_factory=dict)
    kmax: int = 3

    @classmethod
    def from_ini(cls, path):
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
            sections = {name: dict(parser.items(name)) for name in parser.sections()}
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc}")
        except configparser.Error as exc:
            raise ValidationError(f"config parse error in {path}: {exc}")

        def need(section, key, cast=str, fallback=None):
            return _value(sections.get(section, {}), section, key, cast, fallback)

        task = need("run", "task")
        if task not in _TASKS:
            raise ValidationError(f"unknown task {task!r}; expected one of {_TASKS}")
        kind = need("geometry", "kind")
        if kind not in _KINDS:
            raise ValidationError(f"unknown geometry kind {kind!r}")

        start = need("grid", "start", float)
        stop = need("grid", "stop", float, fallback=start)
        count = need("grid", "count", int, fallback=1)
        geometric = need("grid", "geometric", _boolean, fallback=True)
        if not 1 <= count <= _MAX_GRID:
            raise ValidationError(f"grid count must be in [1, {_MAX_GRID}]")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValidationError("grid start and stop must be finite")
        if start <= 0 or stop < start:
            raise ValidationError("grid must satisfy 0 < start <= stop")
        if count == 1:
            grid = (start,)
        elif geometric:
            grid = tuple(float(x) for x in np.geomspace(start, stop, count))
        else:
            grid = tuple(float(x) for x in np.linspace(start, stop, count))

        abs_tol = need("tolerances", "abs", float, fallback=1e-12)
        rel_tol = need("tolerances", "rel", float, fallback=1e-6)
        if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
            raise ValidationError("tolerances must be positive and finite")

        out_format = need("output", "format", fallback="csv")
        if out_format not in ("csv", "json"):
            raise ValidationError(f"unknown output format {out_format!r}")
        out_path = need("output", "path", fallback=f"{task}.{out_format}")

        return cls(task=task, kind=kind, grid=grid, out_format=out_format,
                   out_path=out_path, abs_tol=abs_tol, rel_tol=rel_tol,
                   geometry=sections.get("geometry", {}),
                   operator=sections.get("operator", {}),
                   boundary=sections.get("boundary", {}),
                   kmax=need("asymptotics", "kmax", int, fallback=3))


def _value(items, section, key, cast=str, fallback=None):
    """items[key] through `cast`, or `fallback` when the key is absent.

    Every config value is read here, so a missing key or one that `cast`
    rejects ends in a one-line ValidationError naming [section] key.
    """
    if key not in items:
        if fallback is not None:
            return fallback
        raise ValidationError(f"missing [{section}] {key}")
    raw = items[key]
    try:
        return cast(raw)
    except ValueError:
        raise ValidationError(f"bad value for [{section}] {key}: {raw!r}") from None


def _boolean(raw):
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
    if value is None:
        raise ValueError(raw)
    return value


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _floats(raw):
    return tuple(_finite(x) for x in raw.split(","))


def _parse_modes(raw):
    modes = {}
    for entry in raw.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        key, _, val = entry.partition(":")
        if not val:
            raise ValidationError(f"mode entry {entry!r} must look like 'n1,n2:amp'")
        n = tuple(int(x) for x in key.split(","))
        modes[n] = complex(val)
    return modes


class _Model:
    """Asymptotic/oracle evaluator pair for one configured geometry.

    Both evaluators take the whole t-grid and return one value per point.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        kind, geo, op = cfg.kind, cfg.geometry, cfg.operator
        if kind == "sphere":
            m = _value(geo, "geometry", "dimension", int, 2)
            # the oracle knows S^2 and S^3; the jet alone is bounded by cost
            top = 3 if cfg.task in ("compare", "oracle") else 4
            if not 2 <= m <= top:
                raise ValidationError(
                    f"sphere dimension must be in [2, {top}] for task {cfg.task!r}, got {m}")
            a = _value(geo, "geometry", "radius", _finite, 1.0)
            q = _value(op, "operator", "potential", _finite, 0.0)
            kmax = cfg.kmax
            cut = 2 * kmax
            geom = build_model_geometry("sphere", m, cutoff=cut, radius=a)
            pot = PotentialJet.constant(m, 1, q, cutoff=cut)
            jet = build_operator_jet(geom, pot, cutoff=cut)
            expansion = trace_expansion(geom, hmds_coefficients(jet, kmax, cutoff=0))
            self.asymptotic = lambda ts: [expansion.evaluate(t) for t in ts]
            self.oracle = lambda ts: [sphere_trace(m, a, t) * math.exp(-t * q)
                                      for t in ts]
            self.describe = {"kind": kind, "m": m, "radius": a, "potential": q,
                             "expansion": {str(e): c for e, c in expansion.terms}}
        elif kind in ("circle", "torus"):
            if kind == "circle":
                periods = (_value(geo, "geometry", "length", _finite, 2.0 * math.pi),)
                n = _value(op, "operator", "mode", int, 1)
                qamp = _value(op, "operator", "amplitude", _finite, 0.0)
                modes = {(n,): qamp / 2.0, (-n,): qamp / 2.0} if n else {(0,): qamp}
            else:
                periods = _value(geo, "geometry", "periods", _floats)
                modes = _value(op, "operator", "modes", _parse_modes, {})
            m = len(periods)
            bg = FourierBackground(m=m, periods=periods, d=1,
                                   potential_modes={k: [[v]] for k, v in modes.items()})
            vol = bg.volume
            pref = (4.0 * math.pi) ** (-m / 2.0)
            a2 = -pref * vol * float(np.real(modes.get((0,) * m, 0.0)))
            cutoff = _value(op, "operator", "cutoff", int, 64)

            def asym(t, bg=bg, vol=vol, pref=pref, a2=a2, m=m):
                try:
                    val = pref * vol * t ** (-m / 2.0) + a2 * t ** (1.0 - m / 2.0)
                    if bg.potential_modes:
                        val += t ** (2.0 - m / 2.0) * h_functional(bg, t)
                except OverflowError:
                    raise NumericError(f"heat-trace expansion overflows at t={t!r}") from None
                return val

            spectra_modes = {k: complex(v) for k, v in modes.items()}
            self.asymptotic = lambda ts: [asym(t) for t in ts]
            self.oracle = lambda ts: torus_potential_trace(periods, spectra_modes,
                                                           cutoff, np.asarray(ts))
            self.describe = {"kind": kind, "periods": list(periods),
                             "modes": {",".join(map(str, k)): [v.real, v.imag]
                                       for k, v in sorted(modes.items())},
                             "A0": pref * vol, "A2": a2}
        elif kind == "landau":
            B = _value(op, "operator", "field", _finite, 1.0)
            fs = ConstantFieldStrength(m=2, rhat=[[0.0, B], [-B, 0.0]])
            self.asymptotic = lambda ts: [nilpotent_trace_density(fs, t) for t in ts]
            self.oracle = lambda ts: [landau_trace_density(B, t) for t in ts]
            self.describe = {"kind": kind, "field": B}
        elif kind == "interval":
            L = _value(geo, "geometry", "length", _finite, math.pi)
            bc = _value(cfg.boundary, "boundary", "bc", fallback="DD")
            if bc not in ("DD", "NN", "DN"):
                raise ValidationError(
                    f"interval comparison supports bc DD/NN/DN, not {bc!r}")
            const = {"DD": -0.5, "NN": 0.5, "DN": 0.0}[bc]
            self.asymptotic = lambda ts: [(4.0 * math.pi * t) ** -0.5 * L + const
                                          for t in ts]
            self.oracle = lambda ts: [interval_trace(L, bc, t) for t in ts]
            self.describe = {"kind": kind, "length": L, "bc": bc,
                             "weyl": [(4.0 * math.pi) ** -0.5 * L, const]}
        else:
            raise ValidationError(f"unsupported geometry kind {kind!r}")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run(cfg):
    """Execute one task; returns the process exit status."""
    model = _Model(cfg)

    if cfg.task == "report":
        payload = {"schema": 1, "task": cfg.task,
                   "grid": [float(t) for t in cfg.grid],
                   "model": model.describe}
        _write_text(cfg.out_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0

    if cfg.task in ("asymptotics", "oracle"):
        column = "asymptotic" if cfg.task == "asymptotics" else "oracle"
        values = getattr(model, column)(cfg.grid)
        lines = [_SCHEMA, f"t,{column}"]
        lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(cfg.grid, values)]
        _write_text(cfg.out_path, "\n".join(lines) + "\n")
        return 0

    # compare
    table = []
    first_fail = None
    max_abs = 0.0
    max_rel = 0.0
    for t, a, o in zip(cfg.grid, model.asymptotic(cfg.grid), model.oracle(cfg.grid)):
        a, o = float(a), float(o)
        abs_err = abs(a - o)
        rel_err = abs_err / max(abs(o), 1e-300)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
        ok = abs_err <= cfg.abs_tol or rel_err <= cfg.rel_tol
        if not ok and first_fail is None:
            first_fail = t
        table.append((t, a, o, abs_err, rel_err))

    if cfg.out_format == "json":
        payload = {"schema": 1, "task": "compare",
                   "rows": [{"t": t, "asymptotic": a, "oracle": o,
                             "abs_err": e, "rel_err": r}
                            for t, a, o, e, r in table],
                   "summary": {"status": "ok" if first_fail is None else "fail",
                               "max_abs": max_abs, "max_rel": max_rel,
                               "first_failing_t": first_fail}}
        _write_text(cfg.out_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        lines = [_SCHEMA, "t,asymptotic,oracle,abs_err,rel_err"]
        lines += [",".join(_fmt(x) for x in row) for row in table]
        if first_fail is None:
            lines.append(f"# summary: status=ok max_abs={_fmt(max_abs)} "
                         f"max_rel={_fmt(max_rel)}")
        else:
            lines.append(f"# summary: status=fail first_t={_fmt(first_fail)} "
                         f"max_abs={_fmt(max_abs)} max_rel={_fmt(max_rel)}")
        _write_text(cfg.out_path, "\n".join(lines) + "\n")

    if first_fail is not None:
        print(f"tolerance breach at t={_fmt(first_fail)} "
              f"(abs {_fmt(cfg.abs_tol)}, rel {_fmt(cfg.rel_tol)})",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="heatkern",
        description="short-time heat kernel asymptotics vs exact-spectrum oracles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_ini(args.config)
        if cfg.task != args.command:
            raise ValidationError(
                f"config task {cfg.task!r} does not match subcommand {args.command!r}")
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_path=args.out)
        return run(cfg)
    except HeatkernError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
