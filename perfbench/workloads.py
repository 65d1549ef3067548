"""The four workloads: set-up, the timed operations, and the output checks.

A workload object is built in three steps.  `setup()` imports the program
and generates the seeded inputs; it is all that a set-up probe runs.
`cases()` lists the operations of one pass as (name, run) pairs; only
`run()` is timed.  `collect(case, value)` runs untimed right after each
operation and returns (record, digest, error): the record is kept from the
first pass for `check()`, the digest must repeat in every pass, and an error
marks the operation failed.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _remove(path):
    if os.path.exists(path):
        os.remove(path)


def _cli_errors(case, rc, stderr, data):
    import checks

    try:
        errs = checks.cli_output(case, rc, stderr, data)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    if rc != case.get("expect_rc", 0):
        errs.append(f"exit {rc}, expected {case.get('expect_rc', 0)}")
    return errs


class ColdCli:
    """Fresh `python -m heatkern.cli` processes, one after another."""

    name = "cli-cold"
    headline = None     # the median over every process of the run
    clock = "cold"

    def __init__(self, seed, workdir, root):
        self.seed, self.workdir, self.root = seed, workdir, root
        self.trace_dir = None   # set while traced passes run
        self.env = dict(os.environ)
        self.env.pop("HEATKERN_THREADS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.spans = []

    def setup(self):
        self.configs = gen.cli_cold(self.seed, self.workdir, self.root)
        self.by_name = {c["name"]: c for c in self.configs}
        for case in self.configs:
            case["expect_rc"] = 2 if case["name"] == "sphere_tight" else 0

    def _argv(self, case):
        args = [case["task"], "--config", case["config"], "--out", case["out"]]
        if self.trace_dir is None:
            return [sys.executable, "-m", "heatkern.cli"] + args
        spans = os.path.join(self.trace_dir, f"{case['name']}-{len(self.spans)}.json")
        self.spans.append(spans)
        return [sys.executable, os.path.join(HERE, "cli_child.py"), spans] + args

    def cases(self):
        def make(case):
            def run():
                _remove(case["out"])
                argv = self._argv(case)
                proc = subprocess.run(argv, cwd=self.workdir, env=self.env,
                                      capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
                return proc.returncode, proc.stderr
            return case["name"], run
        return [make(c) for c in self.configs]

    def collect(self, case_name, value):
        rc, stderr = value
        case = self.by_name[case_name]
        if rc not in (0, 2) or not os.path.exists(case["out"]):
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            return None, _digest(rc, last), f"{case_name}: exit {rc}: {last}"
        data = _read(case["out"])
        return (rc, stderr, data.decode()), _digest(rc, data), None

    def named(self, pass_s, headline_s):
        return {"cli_cold_s": (headline_s, "s")}

    def check(self, records):
        import checks

        errs = []
        for name, (rc, stderr, data) in records.items():
            case = self.by_name[name]
            errs += [f"{name}: {e}" for e in _cli_errors(case, rc, stderr, data)]
            if name == "sphere_tight" and rc == 2:
                t = float(stderr.strip().splitlines()[-1].split("t=")[1].split()[0])
                if not checks.breach_is_real(case, t):
                    errs.append(f"sphere_tight: own S^2 sum shows no breach at t={t!r}")
        return errs


class CompareSweep:
    """In-process RunConfig.from_ini + cli.run over generated configs."""

    name = "compare-sweep"
    clock = "warm"
    headline = "circle_200"

    def __init__(self, seed, workdir, root):
        self.seed, self.workdir = seed, workdir

    def setup(self):
        os.environ.pop("HEATKERN_THREADS", None)
        import heatkern.cli
        self.cli = heatkern.cli
        self.configs = gen.compare_sweep(self.seed, self.workdir)
        self.by_name = {c["name"]: c for c in self.configs}

    def cases(self):
        cli = self.cli

        def make(case):
            def run():
                return cli.run(cli.RunConfig.from_ini(case["config"]))
            return case["name"], run
        return [make(c) for c in self.configs]

    def collect(self, case_name, rc):
        case = self.by_name[case_name]
        if rc not in (0, 2) or not os.path.exists(case["out"]):
            return None, _digest(rc), f"{case_name}: run returned {rc}"
        data = _read(case["out"])
        _remove(case["out"])
        return (rc, data.decode()), _digest(rc, data), None

    def named(self, pass_s, headline_s):
        points = sum(int(c["sections"]["grid"]["count"]) for c in self.configs)
        return {"sweep_points_per_s": (points / pass_s, "t-points/s")}

    def check(self, records):
        errs = []
        for name, (rc, data) in records.items():
            errs += [f"{name}: {e}" for e in _cli_errors(self.by_name[name], rc, None, data)]
        return errs


class Coefficients:
    """build_model_geometry -> PotentialJet -> operator jet -> recursion -> trace."""

    name = "coefficients"
    clock = "warm"
    headline = "sphere_m3_k4"

    def __init__(self, seed, workdir, root):
        self.seed = seed

    def setup(self):
        import numpy as np

        from heatkern import hmds, spectra, tensorcalc
        self.np, self.hmds, self.spectra, self.tc = np, hmds, spectra, tensorcalc
        self.towers = gen.coefficients(self.seed)
        for case in self.towers:
            if case["kind"] == "sphere" and case["m"] == 4:
                # no S^4 oracle in the package: samples from the spectral sum
                case["samples"] = [(t, math.exp(-case["q"] * t) * gen.s4_trace(case["radius"], t))
                                   for t in gen.fit_grid(case["radius"])]

    def _run(self, case):
        np, tc, hmds, spectra = self.np, self.tc, self.hmds, self.spectra
        m, d, kmax, cutoff = case["m"], case["d"], case["kmax"], case["cutoff"]
        cap = cutoff + 2 * kmax
        geo = {"sphere": {"radius": case.get("radius")},
               "flat": {"volume": case.get("volume")},
               "torus": {"periods": case.get("periods")}}[case["kind"]]
        geom = tc.build_model_geometry(case["kind"], m, cutoff=cap, **geo)
        curvature = None
        if "field" in case:
            curvature = np.zeros((m, m, d, d), dtype=complex)
            curvature[0, 1] = case["field"]
            curvature[1, 0] = -curvature[0, 1]
        Q = case.get("Q", case["q"] * np.eye(d))
        pot = tc.PotentialJet.constant(m, d, Q, curvature=curvature, cutoff=cap)
        jet = hmds.build_operator_jet(geom, pot, cap)
        coeffs = hmds.hmds_coefficients(jet, kmax, cutoff)
        expansion = hmds.trace_expansion(geom, coeffs)
        fit = None
        if case.get("fit"):
            samples = case.get("samples") or [
                (t, math.exp(-case["q"] * t) * spectra.sphere_trace(m, case["radius"], t))
                for t in gen.fit_grid(case["radius"])]
            fit = spectra.fit_expansion(samples, m, [j - m / 2.0 for j in range(4)])
        return coeffs, expansion, fit

    def cases(self):
        return [(c["name"], (lambda c=c: self._run(c))) for c in self.towers]

    def collect(self, case_name, value):
        coeffs, expansion, fit = value
        rec = {"diag": [c.diagonal for c in coeffs],
               "series": [[comp.entries[0, :] for comp in
                           (c.series.component(n) for n in range(c.series.cutoff + 1))]
                          for c in coeffs],
               "terms": expansion.terms}
        if fit is not None:
            rec["fit"] = (fit.exponents, [float(x) for x in fit.coefficients])
        digest = _digest(*[a.tobytes() for a in rec["diag"]], rec["terms"], rec.get("fit"))
        return rec, digest, None

    def named(self, pass_s, headline_s):
        return {"coeff_matrix_s": (pass_s, "s"), "coeff_s3_k4_s": (headline_s, "s")}

    def check(self, records):
        import checks

        errs = []
        for case in self.towers:
            errs += checks.tower(case, records[case["name"]])
        return errs


class Quadratures:
    """Gauss-Hermite node doubling, Bessel and corner routes, gamma branches."""

    name = "quadratures"
    clock = "warm"
    headline = "symbol_m3"

    def __init__(self, seed, workdir, root):
        self.seed = seed

    def setup(self):
        import numpy as np

        from heatkern import formfactors, nonlaplace, oblique, symmspace, zaremba
        self.np = np
        self.ff, self.nl, self.ob, self.ss, self.za = (formfactors, nonlaplace, oblique,
                                                       symmspace, zaremba)
        self.p = gen.quadratures(self.seed)

    def _theta(self, c):
        space = self.ss.build_symmetric_space(c["space"], c["radius"])
        return (self.ss.theta_quadrature(space, Q=c["q"], t=c["t"]),
                self.ss.theta_series(space, Q=c["q"], order=c["order"]))

    def _symbol(self, c):
        np, nl = self.np, self.nl
        sym = nl.one_form_symbol(c["m"], c["c"])
        spec = nl.eigenstructure(sym)
        H = nl.h_endomorphism(sym, spec)
        traces = [nl.torus_oracle(sym, Q=c["q"] * np.eye(c["m"]), t=t, cutoff=12,
                                  periods=c["periods"]) for t in c["t"]]
        return H, traces

    def _oblique(self, c):
        np, ob = self.np, self.ob
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        s3 = np.diag([1.0, -1.0]).astype(complex)
        g = c["gamma"]
        zero = np.zeros((2, 2))
        if c["family"] == "commuting":
            gammas = (1j * g * s3,) + (zero,) * (c["m"] - 2)
        else:
            gammas = tuple(1j * g * s for s in (s1, s2, s3)[:c["m"] - 1])
        data = ob.ObliqueBoundaryData(m=c["m"], d=2, Pi=zero, Gamma=gammas)
        closed = ob.a1_abelian if c["family"] == "commuting" else ob.a1_clifford
        return ob.a1_quadrature(data), closed(data)

    def _zaremba(self):
        za = self.za
        kernels = []
        for w in self.p["wedge"]:
            p, pp = za.WedgePoint(*w["p"]), za.WedgePoint(*w["pp"])
            kernels.append((za.bessel_oracle(w["t"], p, pp, terms=60),
                            za.wedge_kernel(w["t"], p, pp)))
        corners = [za.corner_coefficient(m) for m in (2, 3)]
        return kernels, corners, za.bc_residuals(self.p["bc_t"])

    def _gamma(self):
        return [[self.ff.gamma_factor(i, z) for z in self.p["zgrid"]] for i in range(1, 6)]

    def cases(self):
        p = self.p
        out = [(f"theta_{c['space']}", (lambda c=c: self._theta(c))) for c in p["theta"]]
        out += [(f"symbol_m{c['m']}", (lambda c=c: self._symbol(c))) for c in p["symbols"]]
        out += [(f"oblique_{c['family']}_m{c['m']}", (lambda c=c: self._oblique(c)))
                for c in p["oblique"]]
        out += [("zaremba", self._zaremba), ("gamma_grid", self._gamma)]
        return out

    def collect(self, case_name, value):
        return value, _digest(_flatten(value)), None

    def named(self, pass_s, headline_s):
        return {"quad_matrix_s": (pass_s, "s")}

    def check(self, records):
        import checks

        return checks.quadratures(self.p, records)


def _flatten(value):
    """A stable byte string for nested tuples of numbers, arrays and results."""
    import numpy as np

    if isinstance(value, (list, tuple)):
        return b"|".join(_flatten(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if hasattr(value, "value"):
        return repr((value.value, value.tail_bound, value.terms)).encode()
    return repr(value).encode()


WORKLOADS = {w.name: w for w in (ColdCli, CompareSweep, Coefficients, Quadratures)}
