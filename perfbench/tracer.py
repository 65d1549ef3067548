"""Span recorder for the traced run, installed from outside the package.

Each measured public function is replaced, for the length of the traced
passes, by a wrapper that records (name, start, end, parent) in memory.  The
wrapper goes on the module attribute and on every `from`-import binding of
the same object in any loaded heatkern module, so calls made through either
name are seen.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict


def _jet_monomials(args, kwargs, result):
    """Basis monomials L is applied to: sum over n <= cutoff of C(m+n-1, n)."""
    geom = args[0] if args else kwargs["geom"]
    cutoff = args[2] if len(args) > 2 else kwargs["cutoff"]
    return sum(math.comb(geom.m + n - 1, n) for n in range(cutoff + 1))


def _torus_dim(args, kwargs, result):
    periods = args[0] if args else kwargs["periods"]
    cutoff = args[2] if len(args) > 2 else kwargs["cutoff"]
    m = 1 if isinstance(periods, (int, float)) else len(periods)
    return (2 * cutoff + 1) ** m


def _output_bytes(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return os.path.getsize(cfg.out_path) if os.path.exists(cfg.out_path) else 0


def _gamma_branch(args, kwargs):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return "formfactors.gamma_series" if float(z) < 1.0 else "formfactors.gamma_quad"


# (module, attribute path, span name or name function, count name, sizer)
TARGETS = (
    ("heatkern.cli", "RunConfig.from_ini", "cli.from_ini", None, None),
    ("heatkern.cli", "run", "cli.run_self", "cli.output_bytes", _output_bytes),
    ("heatkern.tensorcalc", "build_model_geometry", "tensorcalc.build_model_geometry",
     None, None),
    ("heatkern.tensorcalc", "PotentialJet.constant", "tensorcalc.potential_jet", None, None),
    ("heatkern.hmds", "build_operator_jet", "hmds.build_operator_jet",
     "hmds.jet_monomials", _jet_monomials),
    ("heatkern.hmds", "hmds_coefficients", "hmds.hmds_coefficients", None, None),
    ("heatkern.hmds", "trace_expansion", "hmds.trace_expansion", None, None),
    ("heatkern.hmds", "HeatTraceExpansion.evaluate", "hmds.evaluate", None, None),
    ("heatkern.spectra", "sphere_trace", "spectra.sphere_trace", None, None),
    ("heatkern.spectra", "interval_trace", "spectra.interval_trace", None, None),
    ("heatkern.spectra", "landau_trace_density", "spectra.landau_trace_density", None, None),
    ("heatkern.spectra", "torus_potential_trace", "spectra.torus_potential_trace",
     "spectra.torus_matrix_dim", _torus_dim),
    ("heatkern.spectra", "fit_expansion", "spectra.fit_expansion", None, None),
    ("heatkern.formfactors", "h_functional", "formfactors.h_functional", None, None),
    ("heatkern.formfactors", "gamma_factor", _gamma_branch, None, None),
    ("heatkern.symmspace", "theta_series", "symmspace.theta_series", None, None),
    ("heatkern.symmspace", "theta_quadrature", "symmspace.theta_quadrature", None, None),
    ("heatkern.symmspace", "nilpotent_trace_density", "symmspace.nilpotent_density",
     None, None),
    ("heatkern.nonlaplace", "eigenstructure", "nonlaplace.eigenstructure", None, None),
    ("heatkern.nonlaplace", "h_endomorphism", "nonlaplace.h_endomorphism", None, None),
    ("heatkern.nonlaplace", "torus_oracle", "nonlaplace.torus_oracle", None, None),
    ("heatkern.oblique", "a1_quadrature", "oblique.a1_quadrature", None, None),
    ("heatkern.oblique", "a1_abelian", "oblique.a1_closed_form", None, None),
    ("heatkern.oblique", "a1_clifford", "oblique.a1_closed_form", None, None),
    ("heatkern.zaremba", "bessel_oracle", "zaremba.bessel_oracle", None, None),
    ("heatkern.zaremba", "corner_coefficient", "zaremba.corner_coefficient", None, None),
    ("heatkern.zaremba", "bc_residuals", "zaremba.bc_residuals", None, None),
)

SPAN_NAMES = ("cli.from_ini", "cli.run_self", "tensorcalc.build_model_geometry",
              "tensorcalc.potential_jet", "hmds.build_operator_jet",
              "hmds.hmds_coefficients", "hmds.trace_expansion", "hmds.evaluate",
              "spectra.sphere_trace", "spectra.interval_trace",
              "spectra.landau_trace_density", "spectra.torus_potential_trace",
              "spectra.fit_expansion", "formfactors.h_functional",
              "formfactors.gamma_series", "formfactors.gamma_quad",
              "symmspace.theta_series", "symmspace.theta_quadrature",
              "symmspace.nilpotent_density", "nonlaplace.eigenstructure",
              "nonlaplace.h_endomorphism", "nonlaplace.torus_oracle",
              "oblique.a1_quadrature", "oblique.a1_closed_form",
              "zaremba.bessel_oracle", "zaremba.corner_coefficient",
              "zaremba.bc_residuals")
COUNT_NAMES = ("cli.output_bytes", "hmds.jet_monomials", "spectra.torus_matrix_dim")


class Recorder:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, count_name=None, sizer=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(self.spans)
            self.spans.append([label, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count_name:
                self.counts[count_name] += sizer(args, kwargs, result)
            return result
        return wrapper

    def self_times(self):
        """{name: (summed self seconds, calls)} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name][0] += end - start - inner
            out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        rec = cls()
        rec.spans = data["spans"]
        rec.counts.update(data["counts"])
        return rec

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(recorder):
    """Wrap every target; returns the undo list for uninstall()."""
    undo = []
    for modname, attr, name, count_name, sizer in TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(module, clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(name, raw.__func__, count_name, sizer))
            else:
                new = recorder.wrap(name, raw, count_name, sizer)
            undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            continue
        orig = getattr(module, attr)
        new = recorder.wrap(name, orig, count_name, sizer)
        for modname2, mod in list(sys.modules.items()):
            if modname2 != "heatkern" and not modname2.startswith("heatkern."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, new)
    return undo


def uninstall(undo):
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def merge(recorders):
    """Summed ({name: (self seconds, calls)}, {counter: total}) over recorders."""
    times = defaultdict(lambda: [0.0, 0])
    counts = defaultdict(int)
    for rec in recorders:
        for name, (secs, calls) in rec.self_times().items():
            times[name][0] += secs
            times[name][1] += calls
        for name, value in rec.counts.items():
            counts[name] += value
    return {k: tuple(v) for k, v in times.items()}, dict(counts)


def layer_metrics(times, counts, passes):
    """Per-pass self time and calls for every span name, plus the counters."""
    out = {}
    for name in SPAN_NAMES:
        secs, calls = times.get(name, (0.0, 0))
        out[name + "_s"] = (secs / passes, "s")
        out[name + "_calls"] = (_per_pass(calls, passes), "count")
    for name in COUNT_NAMES:
        out[name] = (_per_pass(counts.get(name, 0), passes),
                     "bytes" if name == "cli.output_bytes" else "count")
    return out


def _per_pass(total, passes):
    return total // passes if total % passes == 0 else total / passes
