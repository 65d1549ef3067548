"""Seeded input generator for the four workloads.

Stdlib only, so that generating inputs costs the same whatever the package
imports.  The seed moves t-grid ends, amplitudes, potentials, radii and
periods inside narrow ranges; sizes that set the cost (grid counts, Fourier
cutoffs, kmax, dimensions, quadrature schedules) are fixed, so every seed
does the same amount of work.  The program sees only the INI files written
here or the arguments listed in the case tables.
"""

from __future__ import annotations

import configparser
import math
import os
import random

FIXTURES = ("circle_gamma", "interval_dd", "landau", "sphere_report",
            "sphere_s2", "sphere_tight")

# tB > 710 overflows math.sinh; the correct output underflows toward 0
LANDAU_OVERFLOW = {
    "run": {"task": "compare"},
    "geometry": {"kind": "landau"},
    "operator": {"field": "1.5"},
    "grid": {"start": "0.01", "stop": "800", "count": "8", "geometric": "true"},
    "tolerances": {"abs": "1e-15", "rel": "1e-10"},
    "output": {"format": "csv"},
}


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _g(x):
    return "%.17g" % x


def write_ini(path, sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def read_ini(path):
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _grid(start, stop, count):
    return {"start": _g(start), "stop": _g(stop), "count": str(count),
            "geometric": "true"}


def _tol(abs_tol, rel_tol):
    return {"abs": _g(abs_tol), "rel": _g(rel_tol)}


def sphere_config(r, task, m, kmax, start, stop, count, fmt="csv"):
    return {
        "run": {"task": task},
        "geometry": {"kind": "sphere", "dimension": str(m),
                     "radius": _g(r.uniform(0.9, 1.1))},
        "operator": {"potential": _g(r.uniform(0.0, 0.3))},
        "asymptotics": {"kmax": str(kmax)},
        "grid": _grid(start, stop, count),
        "tolerances": _tol(1e-12, 1e-6),
        "output": {"format": fmt},
    }


def interval_config(r, task, bc, count):
    return {
        "run": {"task": task},
        "geometry": {"kind": "interval", "length": _g(math.pi * r.uniform(0.8, 1.2))},
        "boundary": {"bc": bc},
        "grid": _grid(r.uniform(1e-3, 1.2e-3), r.uniform(0.03, 0.05), count),
        "tolerances": _tol(1e-9, 1e-9),
        "output": {"format": "csv"},
    }


def circle_config(r, task, count, start, stop):
    """One cosine mode n = 3, Fourier cutoff 64 (N = 129).

    gamma_factor takes its quadrature branch for t |k|^2 >= 1, here
    t >= 0.11 (L / 2 pi)^2; the narrow length range keeps the share of
    quadrature-branch calls, and so the cost, the same for every seed.
    """
    return {
        "run": {"task": task},
        "geometry": {"kind": "circle",
                     "length": _g(2.0 * math.pi * r.uniform(0.98, 1.02))},
        "operator": {"mode": "3",
                     "amplitude": _g(r.uniform(0.005, 0.02)), "cutoff": "64"},
        "grid": _grid(start, stop, count),
        "tolerances": _tol(1e-12, 1e-6),
        "output": {"format": "csv"},
    }


def _mode_entry(n, amp):
    key = ",".join(str(x) for x in n)
    return f"{key}:{_g(amp.real)}{'%+.17g' % amp.imag}j"


def torus_config(r, modes, count, start, stop):
    """2-D torus, Fourier cutoff 12 (N = 625).

    The grid starts where the cutoff's tail bound is below 1e-10 and stops
    where the winding terms e^{-L^2/4t} of the shortest period stay below
    the relative tolerance 1e-6: t <= L_min^2 / (4 ln 1e6) = 0.64 at
    L_min = 0.95 * 2 pi.
    """
    periods = [2.0 * math.pi * r.uniform(0.95, 1.05) for _ in range(2)]
    entries = []
    for n, amp in modes:
        entries.append(_mode_entry(n, amp))
        entries.append(_mode_entry(tuple(-x for x in n), amp.conjugate()))
    return {
        "run": {"task": "compare"},
        "geometry": {"kind": "torus", "periods": ",".join(_g(p) for p in periods)},
        "operator": {"modes": "; ".join(entries), "cutoff": "12"},
        "grid": _grid(start, stop, count),
        "tolerances": _tol(1e-12, 1e-6),
        "output": {"format": "csv"},
    }


def landau_config(r, task, count, fmt):
    return {
        "run": {"task": task},
        "geometry": {"kind": "landau"},
        "operator": {"field": _g(r.uniform(1.0, 2.0))},
        "grid": _grid(r.uniform(0.01, 0.012), r.uniform(1.8, 2.2), count),
        "tolerances": _tol(1e-15, 1e-10),
        "output": {"format": fmt},
    }


def _emit(workdir, name, sections, out_in_ini):
    cfg = os.path.join(workdir, name + ".ini")
    fmt = sections.get("output", {}).get("format", "csv")
    out = os.path.join(workdir, f"{name}.{fmt}")
    if out_in_ini:
        sections["output"]["path"] = out
    write_ini(cfg, sections)
    return {"name": name, "task": sections["run"]["task"], "config": cfg,
            "out": out, "sections": sections}


def cli_cold(seed, workdir, root):
    """Six fixtures, three seeded configs and the Landau overflow case."""
    r = rng_for("cli-cold", seed)
    cases = []
    for name in FIXTURES:
        path = os.path.join(root, "configs", name + ".ini")
        sections = read_ini(path)
        fmt = sections.get("output", {}).get("format", "csv")
        cases.append({"name": name, "task": sections["run"]["task"], "config": path,
                      "out": os.path.join(workdir, f"{name}.{fmt}"),
                      "sections": sections})
    gen = {
        "gen_sphere": sphere_config(r, "compare", 2, 3, r.uniform(1e-3, 1.2e-3),
                                    r.uniform(0.03, 0.05), 12),
        "gen_interval": interval_config(r, "compare", "NN", 12),
        "gen_circle": circle_config(r, "compare", 10, r.uniform(0.05, 0.06),
                                    r.uniform(0.4, 0.5)),
        "landau_overflow": {k: dict(v) for k, v in LANDAU_OVERFLOW.items()},
    }
    for name, sections in gen.items():
        cases.append(_emit(workdir, name, sections, out_in_ini=False))
    return cases


def compare_sweep(seed, workdir):
    """Mostly compare, with one oracle and one asymptotics task.

    Sizes: the 200-point circle is the per-t oracle cost at its largest;
    each 2-D torus is N = 625 per t, so eight points each keep a pass near
    four seconds on two cores.
    """
    r = rng_for("compare-sweep", seed)
    phase = r.uniform(0.3, 1.2)
    amp = r.uniform(0.004, 0.008)
    configs = {
        "circle_200": circle_config(r, "compare", 200, r.uniform(0.05, 0.055),
                                    r.uniform(0.45, 0.5)),
        "circle_asym": circle_config(r, "asymptotics", 120, r.uniform(0.05, 0.055),
                                     r.uniform(0.45, 0.5)),
        "torus_separable": torus_config(
            r, [((2, 0), complex(r.uniform(0.002, 0.005))),
                ((0, 1), complex(r.uniform(0.002, 0.005)))],
            8, r.uniform(0.2, 0.22), r.uniform(0.5, 0.55)),
        "torus_phase": torus_config(
            r, [((1, 1), complex(amp * math.cos(phase), amp * math.sin(phase)))],
            8, r.uniform(0.2, 0.22), r.uniform(0.5, 0.55)),
        "sphere_s2": sphere_config(r, "compare", 2, 3, r.uniform(1e-3, 1.1e-3),
                                   r.uniform(0.04, 0.05), 60),
        "sphere_s3": sphere_config(r, "compare", 3, 2, r.uniform(1e-3, 1.1e-3),
                                   r.uniform(0.008, 0.01), 60),
        "interval_dd": interval_config(r, "compare", "DD", 60),
        "interval_nn": interval_config(r, "oracle", "NN", 60),
        "interval_dn": interval_config(r, "compare", "DN", 60),
        "landau": landau_config(r, "compare", 60, "json"),
    }
    return [_emit(workdir, name, sections, out_in_ini=True)
            for name, sections in configs.items()]


def coefficients(seed):
    """Library towers: spheres to the MAX_CUTOFF ceiling, flat and torus jets
    with an off-diagonal cutoff, and a d = 2 fiber with a constant field.

    S^4 stops at kmax = 3: kmax = 4 costs about 7 s per tower.
    """
    r = rng_for("coefficients", seed)
    u = r.uniform
    return [
        {"name": "sphere_m2_k4", "kind": "sphere", "m": 2, "kmax": 4, "cutoff": 0,
         "d": 1, "q": u(0.0, 0.5), "radius": u(0.8, 1.2), "fit": True},
        {"name": "sphere_m3_k4", "kind": "sphere", "m": 3, "kmax": 4, "cutoff": 0,
         "d": 1, "q": u(0.0, 0.5), "radius": 1.0, "fit": True},
        {"name": "sphere_m4_k3", "kind": "sphere", "m": 4, "kmax": 3, "cutoff": 0,
         "d": 1, "q": u(0.0, 0.5), "radius": u(0.8, 1.2), "fit": True},
        {"name": "flat_m2_c2", "kind": "flat", "m": 2, "kmax": 3, "cutoff": 2,
         "d": 1, "q": u(-0.8, 0.8), "volume": u(0.5, 2.0)},
        {"name": "torus_m3_c2", "kind": "torus", "m": 3, "kmax": 3, "cutoff": 2,
         "d": 1, "q": u(-0.8, 0.8), "periods": [u(1.0, 7.0) for _ in range(3)]},
        _field_case(r),
    ]


def _field_case(r):
    """d = 2 fiber: Q = q I + q1 (n . sigma), curvature[0, 1] = i B (n . sigma)."""
    axis = [r.uniform(-1.0, 1.0) for _ in range(3)]
    x, y, z = (c / math.sqrt(sum(c * c for c in axis)) for c in axis)
    nsig = [[complex(z), complex(x, -y)], [complex(x, y), complex(-z)]]
    q, q1, B = r.uniform(-0.5, 0.5), r.uniform(0.05, 0.3), r.uniform(0.3, 1.2)
    return {"name": "flat_m2_d2_field", "kind": "flat", "m": 2, "kmax": 3,
            "cutoff": 2, "d": 2, "q": q, "q1": q1, "B": B, "axis": axis,
            "volume": r.uniform(0.5, 2.0),
            "Q": [[q * (i == j) + q1 * nsig[i][j] for j in range(2)] for i in range(2)],
            "field": [[1j * B * nsig[i][j] for j in range(2)] for i in range(2)]}


def quadratures(seed):
    """Cases for the three node-doubling loops and the boundary routes.

    t, radii and amplitudes move only inside ranges where every doubling
    loop stops at the same node count, so the work per pass is fixed.
    h_endomorphism stops at m = 3: m = 4 costs about 40 s.
    """
    r = rng_for("quadratures", seed)
    u = r.uniform
    theta = [{"space": name, "radius": u(0.95, 1.05), "q": u(0.0, 0.5),
              "t": u(0.008, 0.012), "order": order}
             for name, order in (("S2", 4), ("S3", 6))]
    symbols = [{"m": m, "c": u(0.6, 1.2), "q": u(0.0, 0.5),
                "t": (u(0.009, 0.011), u(0.018, 0.022)),
                "periods": [u(0.9, 1.1) for _ in range(m)]} for m in (2, 3)]
    oblique = [{"family": fam, "m": m, "gamma": u(0.3, 0.6)}
               for fam, m in (("commuting", 3), ("clifford", 3), ("clifford", 4))]
    wedge = []
    for _ in range(5):
        wedge.append({"t": u(0.05, 0.2),
                      "p": (u(0.5, 1.2), u(-1.3, 1.3)),
                      "pp": (u(0.5, 1.2), u(-1.3, 1.3))})
    zgrid = sorted([u(-4.0, 0.0) for _ in range(8)] + [u(0.0, 1.0) for _ in range(12)]
                   + [u(1.0, 40.0) for _ in range(20)])
    return {"theta": theta, "symbols": symbols, "oblique": oblique,
            "wedge": wedge, "bc_t": u(0.05, 0.2), "zgrid": zgrid}


def fit_grid(a):
    """Twelve geometric t from 1e-3 a^2 to 1e-1 a^2 for the spectral fits."""
    return [a * a * 1e-3 * 100.0 ** (j / 11.0) for j in range(12)]


def s4_trace(a, t):
    """Round S^4: eigenvalues l(l+3)/a^2, multiplicity (l+1)(l+2)(2l+3)/6."""
    lmax = int(a * math.sqrt(60.0 / t)) + 14
    return math.fsum((l + 1) * (l + 2) * (2 * l + 3) / 6.0 * math.exp(-t * l * (l + 3) / a ** 2)
                     for l in range(lmax + 1))
