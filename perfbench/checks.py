"""Output checks: every figure the program prints is recomputed apart from it.

Each check returns a list of error strings; an empty list means the output
is correct.  Tolerances follow the accuracy each routine documents: sphere
and interval sums to 1e-14 of the total, gamma_factor to 1e-12 absolute.
The Fourier oracles build the same truncated matrix as the program, so they
differ only by the eigensolvers' rounding, about eps * lambda_max * t of the
trace (1e-12 here).  Full values are compared to 1e-11 relative, far inside
every compare tolerance the configs set.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles as orc

REL = 1e-11
SCHEMA = "# heatkern-schema=1"


def close(x, ref, rel=REL, floor=1e-300):
    return abs(x - ref) <= rel * max(abs(ref), floor) or abs(x - ref) <= floor


def close_part(x, ref, part, rel=1e-7):
    """x matches ref to `rel` of a small part of it, plus summation rounding.

    The quadratic channel is ~1e-7 of a circle or torus asymptotic value, so
    the full-value check cannot see an error confined to it.
    """
    return abs(x - ref) <= rel * abs(part) + 1e-13 * abs(ref)


# ---------------------------------------------------------------------------
# the reference model of one config
# ---------------------------------------------------------------------------

def _parse_modes(raw):
    modes = {}
    for entry in raw.split(";"):
        entry = entry.strip()
        if entry:
            key, _, val = entry.partition(":")
            modes[tuple(int(x) for x in key.split(","))] = complex(val)
    return modes


def _landau_closed(B, t):
    """B/(4 pi sinh tB) written so that large tB underflows instead of overflowing."""
    x = math.exp(-t * B)
    return B * x / (2.0 * math.pi * (1.0 - x * x))


def _fourier_oracle(periods, modes, cutoff):
    """Oracle from tridiagonal chains: one mode pair, or one pair per axis."""
    pairs = [n for n in modes if n > tuple(-x for x in n)]
    m = len(periods)
    if any(all(x == 0 for x in n) for n in modes):
        raise ValueError("zero mode not covered by the chain oracle")
    if len(pairs) == 1:
        n = pairs[0]
        return lambda t: orc.chain_trace(periods, n, abs(modes[n]), cutoff, t)
    factors = [((1,), 0.0)] * m
    for n in pairs:
        nz = [i for i, x in enumerate(n) if x]
        if len(nz) != 1 or factors[nz[0]][1]:
            raise ValueError("chain oracle needs one mode pair per axis")
        factors[nz[0]] = ((n[nz[0]],), abs(modes[n]))
    return lambda t: math.prod(orc.chain_trace((L,), mode, amp, cutoff, t)
                               for L, (mode, amp) in zip(periods, factors))


def _fourier(sections):
    """(periods, modes) of a circle or torus config, else None."""
    geo = sections["geometry"]
    op = sections.get("operator", {})
    if geo["kind"] == "circle":
        n, amp = int(op.get("mode", 1)), float(op.get("amplitude", 0.0))
        return (float(geo.get("length", 2.0 * math.pi)),), {(n,): amp / 2.0, (-n,): amp / 2.0}
    if geo["kind"] == "torus":
        return (tuple(float(x) for x in geo["periods"].split(",")),
                _parse_modes(op.get("modes", "")))
    return None


def channel(sections):
    """(weyl(t), channel(t)) of a circle or torus config, else None."""
    fourier = _fourier(sections)
    if fourier is None:
        return None
    periods, modes = fourier
    return (lambda t: orc.fourier_weyl(periods, modes, t),
            lambda t: orc.fourier_channel(periods, modes, t))


def reference(sections):
    """(asymptotic(t), oracle(t)) rebuilt from the INI sections alone."""
    geo = sections.get("geometry", {})
    op = sections.get("operator", {})
    kind = geo["kind"]
    if kind == "sphere":
        m = int(geo.get("dimension", 2))
        a = float(geo.get("radius", 1.0))
        q = float(op.get("potential", 0.0))
        kmax = int(sections.get("asymptotics", {}).get("kmax", 3))
        terms = orc.sphere_expansion(m, a, q, kmax)
        return (lambda t: orc.evaluate_expansion(terms, t),
                lambda t: math.exp(-q * t) * orc.sphere_trace(m, a, t))
    if kind == "interval":
        L = float(geo.get("length", math.pi))
        bc = sections.get("boundary", {}).get("bc", "DD")
        return (lambda t: orc.interval_weyl(L, bc, t),
                lambda t: orc.interval_trace(L, bc, t))
    if kind == "landau":
        B = float(op.get("field", 1.0))
        return (lambda t: _landau_closed(B, t), lambda t: orc.landau_levels(B, t))
    if kind in ("circle", "torus"):
        periods, modes = _fourier(sections)
        return (lambda t: orc.fourier_weyl(periods, modes, t)
                + orc.fourier_channel(periods, modes, t),
                _fourier_oracle(periods, modes, int(op.get("cutoff", 64))))
    raise ValueError(f"no reference for kind {kind!r}")


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def _table(text, fmt):
    """(columns, rows, summary) from a CSV or JSON task output."""
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("schema") != 1:
            raise ValueError("missing schema 1")
        rows = payload["rows"]
        cols = ["t", "asymptotic", "oracle", "abs_err", "rel_err"]
        return cols, [[r[c] for c in cols] for r in rows], payload["summary"]
    lines = text.splitlines()
    if not lines or lines[0] != SCHEMA:
        raise ValueError("missing schema line")
    cols = lines[1].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[2:] if not ln.startswith("#")]
    summary = None
    for ln in lines:
        if ln.startswith("# summary:"):
            fields = dict(f.split("=", 1) for f in ln[len("# summary:"):].split())
            summary = {"status": fields["status"],
                       "max_abs": float(fields["max_abs"]),
                       "max_rel": float(fields["max_rel"]),
                       "first_failing_t": float(fields["first_t"])
                       if "first_t" in fields else None}
    return cols, rows, summary


def _grid_errors(sections, ts):
    grid = sections["grid"]
    start = float(grid["start"])
    stop = float(grid.get("stop", start))
    count = int(grid.get("count", 1))
    errs = []
    if len(ts) != count:
        errs.append(f"grid has {len(ts)} points, config asks {count}")
    elif not (close(ts[0], start, 1e-12) and close(ts[-1], stop, 1e-12)):
        errs.append(f"grid ends {ts[0]}, {ts[-1]} differ from {start}, {stop}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        errs.append("grid not increasing")
    return errs


def _report_errors(sections, payload):
    geo = sections["geometry"]
    m = int(geo.get("dimension", 2))
    a = float(geo.get("radius", 1.0))
    q = float(sections.get("operator", {}).get("potential", 0.0))
    kmax = int(sections.get("asymptotics", {}).get("kmax", 3))
    got = {float(k): v for k, v in payload["model"]["expansion"].items()}
    want = dict(orc.sphere_expansion(m, a, q, kmax))
    errs = []
    for e, c in got.items():
        ref = want.get(e, 0.0)
        if not (close(c, ref) or (ref == 0.0 and abs(c) < 1e-14)):
            errs.append(f"report coefficient of t^{e}: {c!r}, expected {ref!r}")
    if set(want) - set(got):
        errs.append(f"report misses exponents {sorted(set(want) - set(got))}")
    return errs


def cli_output(case, rc, stderr, data):
    """Check one task output; `data` is the output file's text."""
    sections = case["sections"]
    task = sections["run"]["task"]
    fmt = sections.get("output", {}).get("format", "csv")
    if task == "report":
        if rc != 0:
            return [f"report exited {rc}"]
        payload = json.loads(data)
        ts = payload["grid"]
        return _grid_errors(sections, ts) + _report_errors(sections, payload)

    cols, rows, summary = _table(data, fmt)
    asym, oracle = reference(sections)
    ts = [r[0] for r in rows]
    errs = _grid_errors(sections, ts)
    idx = {c: i for i, c in enumerate(cols)}
    for r in rows:
        t = r[0]
        if "asymptotic" in idx and not close(r[idx["asymptotic"]], asym(t)):
            errs.append(f"asymptotic at t={t!r}: {r[idx['asymptotic']]!r} vs {asym(t)!r}")
        if "oracle" in idx and not close(r[idx["oracle"]], oracle(t)):
            errs.append(f"oracle at t={t!r}: {r[idx['oracle']]!r} vs {oracle(t)!r}")
    split = channel(sections)
    if split and "asymptotic" in idx:
        # the quadratic channel is ~1e-5 of the total: check it on its own
        weyl, quad_channel = split
        for r in rows:
            got, want = r[idx["asymptotic"]] - weyl(r[0]), quad_channel(r[0])
            if not close_part(r[idx["asymptotic"]], asym(r[0]), want):
                errs.append(f"quadratic channel at t={r[0]!r}: {got!r} vs {want!r}")
    if task != "compare":
        return errs + ([] if rc == 0 else [f"{task} exited {rc}"])

    tol = sections.get("tolerances", {})
    abs_tol = float(tol.get("abs", 1e-12))
    rel_tol = float(tol.get("rel", 1e-6))
    first_fail = None
    for t, a, o, e_abs, e_rel in rows:
        if e_abs != abs(a - o) or e_rel != e_abs / max(abs(o), 1e-300):
            errs.append(f"error columns at t={t!r} disagree with the values")
        passed = e_abs <= abs_tol or e_rel <= rel_tol
        # the verdict must be the one our own values give, unless they sit on the edge
        own_abs = abs(asym(t) - oracle(t))
        own_rel = own_abs / max(abs(oracle(t)), 1e-300)
        own_pass = own_abs <= abs_tol or own_rel <= rel_tol
        edge = abs(own_abs / abs_tol - 1.0) < 1e-6 or abs(own_rel / rel_tol - 1.0) < 1e-6
        if own_pass != passed and not edge:
            errs.append(f"verdict at t={t!r} is {passed}, own values give {own_pass}")
        if not passed and first_fail is None:
            first_fail = t
    want_status = "ok" if first_fail is None else "fail"
    if summary is None or summary["status"] != want_status:
        errs.append(f"summary status {summary and summary['status']!r}, expected {want_status}")
    elif first_fail is not None and summary["first_failing_t"] != first_fail:
        errs.append("summary first failing t disagrees with the rows")
    if rows and summary is not None:
        if summary["max_abs"] != max(r[3] for r in rows) or \
                summary["max_rel"] != max(r[4] for r in rows):
            errs.append("summary maxima disagree with the rows")
    want_rc = 0 if first_fail is None else 2
    if rc != want_rc:
        errs.append(f"exit {rc}, expected {want_rc}")
    if want_rc == 2:
        line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        prefix = "tolerance breach at t="
        if not line.startswith(prefix) or float(line[len(prefix):].split()[0]) != first_fail:
            errs.append(f"breach message {line!r} does not name t={first_fail!r}")
    return errs


def breach_is_real(case, t):
    """Confirm from our own spectral sum that the reported t breaches."""
    sections = case["sections"]
    asym, oracle = reference(sections)
    tol = sections["tolerances"]
    err = abs(asym(t) - oracle(t))
    return err > float(tol["abs"]) and err / oracle(t) > float(tol["rel"])


# ---------------------------------------------------------------------------
# library outputs
# ---------------------------------------------------------------------------

def tower(case, out):
    """Diagonal tower, off-diagonal components, trace expansion and fit."""
    errs = []
    m, kmax, name = case["m"], case["kmax"], case["name"]
    diag = out["diag"]
    if case["kind"] == "sphere":
        a, q = case["radius"], case["q"]
        want = {}
        if m in (2, 3):
            want = dict(enumerate(orc.diag_from_series(orc.sphere_a_series(m, a, q, kmax + 1))))
        a1, a2 = orc.sphere_curvature_a1_a2(m, a, q)
        for k, ref in list(want.items()) + [(1, a1), (2, a2)]:
            got = diag[k][0, 0]
            if not close(got.real, ref, 1e-10, 1e-12) or abs(got.imag) > 1e-12:
                errs.append(f"{name}: a_{k} = {got!r}, expected {ref!r}")
        want.setdefault(1, a1)
        want.setdefault(2, a2)
        # orders without an independent value are held to the tower's own diagonal
        traces = [want.get(k, diag[k][0, 0].real) for k in range(kmax + 1)]
        pref = (4.0 * math.pi) ** (-m / 2.0) * orc.sphere_volume(m, a)
    else:
        vol = case["volume"] if case["kind"] == "flat" else math.prod(case["periods"])
        pref = (4.0 * math.pi) ** (-m / 2.0) * vol
        errs += _flat_components(case, out["series"])
        traces = [sum(float(np.trace(P).real) * orc.constant_field_component(q, B, k, 0)
                      for P, q, B in _fiber(case)) for k in range(kmax + 1)]
    want_terms = {(2 * k - m) / 2.0: pref * (-1) ** k / math.factorial(k) * traces[k]
                  for k in range(kmax + 1)}
    got = dict(out["terms"])
    for e, c in want_terms.items():
        if not close(got.get(e, math.nan), c, 1e-10, 1e-12):
            errs.append(f"{name}: trace coefficient of t^{e} = {got.get(e)!r}, expected {c!r}")
    if "fit" in out:
        exps, coefs = out["fit"]
        for e, c in list(zip(exps, coefs))[:2]:
            ref = want_terms[e]
            if abs(c - ref) > 1e-4 * max(abs(ref), 1.0):
                errs.append(f"{name}: fitted t^{e} coefficient {c!r} vs tower {ref!r}")
    return errs


def _fiber(case):
    """Eigenprojectors and (q, B) pairs of the d = 2 constant-field fiber."""
    if case["d"] == 1:
        return [(np.eye(1), case["q"], case.get("B", 0.0))]
    axis = np.array(case["axis"]) / np.linalg.norm(case["axis"])
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]])]
    ns = sum(a * s for a, s in zip(axis, sigma))
    out = []
    for sgn in (1.0, -1.0):
        P = 0.5 * (np.eye(2) + sgn * ns)
        out.append((P, case["q"] + sgn * case["q1"], case["B"]))
    return out


def _flat_components(case, series):
    """Every Taylor component of every a_k against the radial closed form."""
    from itertools import combinations_with_replacement

    errs = []
    m = case["m"]
    for k, comps in enumerate(series):
        for n, entries in enumerate(comps):
            for li, idx in enumerate(combinations_with_replacement(range(m), n)):
                expo = tuple(idx.count(i) for i in range(m))
                want = np.zeros((case["d"], case["d"]), dtype=complex)
                if n % 2 == 0:
                    w = orc.norm2_power_entry(expo, n // 2)
                    for P, q, B in _fiber(case):
                        want = want + P * orc.constant_field_component(q, B, k, n // 2) * w
                got = entries[li]
                if np.max(np.abs(got - want)) > 1e-10 * max(1.0, np.max(np.abs(want))):
                    errs.append(f"{case['name']}: a_{k} component {expo} = "
                                f"{got.ravel()!r}, expected {want.ravel()!r}")
                    return errs
    return errs


def quadratures(p, records):
    """Quadrature routes against spectral sums, lattice theta products and
    closed forms; gamma_factor against Dawson's function and scipy quad."""
    errs = []
    for c in p["theta"]:
        name = f"theta_{c['space']}"
        quad_val, series = records[name]
        m = 2 if c["space"] == "S2" else 3
        a, q, t = c["radius"], c["q"], c["t"]
        exact = math.exp(-q * t) * orc.sphere_trace(m, a, t) / orc.sphere_volume(m, a)
        if not close(quad_val, exact, 1e-10):
            errs.append(f"{name}: quadrature {quad_val!r} vs spectral sum {exact!r}")
        want = orc.sphere_a_series(m, a, q, c["order"] + 1)
        for k, (got, ref) in enumerate(zip(series, want)):
            if not close(got, ref, 1e-10, 1e-14):
                errs.append(f"{name}: series c_{k} = {got!r}, expected {ref!r}")
    for c in p["symbols"]:
        name = f"symbol_m{c['m']}"
        H, traces = records[name]
        ref = orc.one_form_h(c["m"], c["c"]) * np.eye(c["m"])
        if np.max(np.abs(H - ref)) > 1e-10:
            errs.append(f"{name}: H off the closed form by {np.max(np.abs(H - ref)):.3e}")
        for t, got in zip(c["t"], traces):
            want = orc.one_form_torus_trace(c["m"], c["c"], c["q"], c["periods"], t)
            if not close(got, want, 1e-9):
                errs.append(f"{name}: torus trace at t={t!r} {got!r} vs theta product {want!r}")
    for c in p["oblique"]:
        name = f"oblique_{c['family']}_m{c['m']}"
        quad_val, closed = records[name]
        power = 0.5 if c["family"] == "commuting" else (c["m"] - 1) / 2.0
        own = orc.oblique_a1(c["m"], np.zeros((2, 2)),
                             (1.0 - c["gamma"] ** 2) ** -power * np.eye(2))
        for label, val, tol in (("closed form", closed, 1e-12), ("quadrature", quad_val, 1e-8)):
            if np.max(np.abs(val - own)) > tol:
                errs.append(f"{name}: {label} off the closed value by "
                            f"{np.max(np.abs(val - own)):.3e}")
        if np.max(np.abs(quad_val - closed)) > 1e-8:
            errs.append(f"{name}: quadrature and package closed form differ")
    kernels, corners, (res_d, res_n) = records["zaremba"]
    for w, (bessel, kernel) in zip(p["wedge"], kernels):
        if abs(bessel.value - kernel) > 1e-6 * abs(kernel) or bessel.warning:
            errs.append(f"zaremba: Bessel sum {bessel.value!r} vs kernel {kernel!r} at {w}")
    for m, got in zip((2, 3), corners):
        if abs(got - orc.corner_closed(m)) > 1e-15:
            errs.append(f"zaremba: corner coefficient m={m} {got!r}")
    if not (res_d < 1e-12 and res_n < 1e-6):
        errs.append(f"zaremba: face residuals D {res_d:.2e}, N {res_n:.2e}")
    grid = records["gamma_grid"]
    for i in range(1, 6):
        for z, got in zip(p["zgrid"], grid[i - 1]):
            ref = orc.gamma1(z) if i == 1 else orc.gamma_quad(i, z)
            if abs(got - ref) > 1e-12 * max(1.0, abs(ref)):
                errs.append(f"gamma({i}, {z!r}) = {got!r}, expected {ref!r}")
    return errs
