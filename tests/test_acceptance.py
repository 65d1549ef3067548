"""End-to-end acceptance gate: the package's headline numbers, one check per
test, each printing a single PASS/FAIL line with the measured error and the
pinned tolerance."""

import math
import time

import numpy as np
import pytest

from heatkern import (formfactors, hmds, nonlaplace as nl, oblique as ob,
                      spectra, symmspace as ss, tensorcalc as tc, zaremba as za)
from heatkern.errors import DomainError
from heatkern.quadrature import unit_directions
from test_hmds import jet_matrix
from test_zaremba import corner_integral_check


def _report(num, label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:>2} ({label}): {detail}"
    print(line)
    assert ok, line


def sphere_spectral_trace(t, lmax=200):
    ls = np.arange(lmax + 1)
    return float(np.sum((2 * ls + 1) * np.exp(-t * ls * (ls + 1))))


def unit_sphere_fixture(d=1, q=0.0, kmax=3):
    cap = 2 * kmax
    geom = tc.build_model_geometry("sphere", 2, cutoff=cap, radius=1.0)
    pot = tc.PotentialJet.constant(2, d, q * np.eye(d), cutoff=cap)
    jet = hmds.build_operator_jet(geom, pot, cap)
    return geom, hmds.hmds_coefficients(jet, kmax, 0)


def test_criterion_01_a1_identity():
    t0 = time.perf_counter()
    q = 0.7
    _, coeffs = unit_sphere_fixture(d=2, q=q, kmax=1)
    err = float(np.max(np.abs(coeffs[1].diagonal - (q - 1.0 / 3.0) * np.eye(2))))
    dt = time.perf_counter() - t0
    _report(1, "sphere a1 = (q - 1/3) I", err <= 1e-10 and dt < 1.0,
            f"max abs err {err:.2e} (tol 1e-10), {dt:.2f}s (limit 1s)")


def test_criterion_02_recursion_vs_spectrum():
    t0 = time.perf_counter()
    geom, coeffs = unit_sphere_fixture(kmax=3)
    expansion = hmds.trace_expansion(geom, coeffs)
    terms = dict(expansion.terms)
    ts = np.geomspace(1e-3, 1e-1, 12)
    samples = [(t, sphere_spectral_trace(t)) for t in ts]
    fit = spectra.fit_expansion(samples, m=2, exponents=(-1.0, 0.0, 1.0, 2.0))
    err = max(abs(fit.coefficients[0] - terms[-1.0]),
              abs(fit.coefficients[1] - terms[0.0]))
    ok = (abs(terms[-1.0] - 1.0) < 1e-12 and abs(terms[0.0] - 1.0 / 3.0) < 1e-12
          and err <= 1e-4)
    dt = time.perf_counter() - t0
    _report(2, "trace coefficients (1, 1/3) vs spectral fit",
            ok and dt < 5.0,
            f"max coeff err {err:.2e} (tol 1e-4), {dt:.2f}s (limit 5s)")


def test_criterion_03_form_factors_at_zero():
    closed = {1: 1.0, 2: 1.0 / 6.0, 3: 1.0 / 6.0, 4: 1.0 / 30.0, 5: 1.0 / 60.0}
    err = max(abs(formfactors.gamma_factor(i, 0.0) - closed[i]) for i in closed)
    _report(3, "gamma^(i)(0) closed rationals, i = 1..5", err <= 1e-12,
            f"max abs err {err:.2e} (tol 1e-12)")


def test_criterion_04_high_energy_functional():
    t0 = time.perf_counter()
    periods = (2.0 * math.pi,)
    amp = 1e-2
    modes = {(3,): amp / 2.0, (-3,): amp / 2.0}
    bg = formfactors.FourierBackground(
        m=1, periods=periods, d=1,
        potential_modes={k: [[v]] for k, v in modes.items()})
    worst = 0.0
    for t in np.geomspace(0.05, 0.5, 9):
        free = spectra.torus_potential_trace(periods, {}, 64, t)
        full = spectra.torus_potential_trace(periods, modes, 64, t)
        predicted = t ** 1.5 * formfactors.h_functional(bg, t)
        worst = max(worst, abs((full - free) - predicted) / abs(full - free))
    dt = time.perf_counter() - t0
    _report(4, "circle q^2 channel vs gamma^(1)(9t)",
            worst <= 1e-3 and dt < 10.0,
            f"max rel err {worst:.2e} (tol 1e-3), {dt:.2f}s (limit 10s)")


def test_criterion_05_nilpotent_landau():
    B = 1.25
    fs = ss.ConstantFieldStrength(2, np.array([[0.0, B], [-B, 0.0]]))
    worst = 0.0
    for tB in np.geomspace(1e-3, 3.0, 16):
        t = tB / B
        closed = (B / (4.0 * math.pi)) / math.sinh(tB)
        worst = max(worst, abs(ss.nilpotent_trace_density(fs, t) - closed) / closed)
    _report(5, "nilpotent density = (B/4pi)/sinh(tB)", worst <= 1e-10,
            f"max rel err {worst:.2e} (tol 1e-10) over tB in (0, 3]")


def test_criterion_06_symmetric_space_series():
    space = ss.build_symmetric_space("S2")
    c = ss.theta_series(space, order=4)
    ts = np.geomspace(1e-3, 1e-1, 14)
    samples = [(t, t * sphere_spectral_trace(t)) for t in ts]
    fit = spectra.fit_expansion(samples, m=2,
                                exponents=(0.0, 1.0, 2.0, 3.0, 4.0))
    c2_err = abs(fit.coefficients[2] - c[2])
    t = 0.01
    quad = ss.theta_quadrature(space, t=t)
    exact = sphere_spectral_trace(t) / (4.0 * math.pi)
    q_err = abs(quad - exact) / exact
    ok = abs(c[2] - 1.0 / 15.0) < 1e-12 and c2_err <= 1e-4 and q_err <= 1e-5
    _report(6, "S2 theta series c2 and quadrature", ok,
            f"c2 fit err {c2_err:.2e} (tol 1e-4), "
            f"quadrature rel err {q_err:.2e} (tol 1e-5)")


def test_criterion_07_nonlaplace_leading_trace():
    sym = nl.one_form_symbol(2, 1.0)
    t = 1e-3
    trace = nl.torus_oracle(sym, t=t)   # lattice tail below 1e-15 of the sum
    want = 3.0 / (8.0 * math.pi)
    err = abs(t * trace - want) / want
    _report(7, "|xi|^2 I + xi (x) xi leading trace 3/(8 pi)", err <= 1e-3,
            f"rel err {err:.2e} (tol 1e-3, lattice tail < 1e-15 relative)")


def test_criterion_08_oblique_routes():
    gamma = 0.5
    sig1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sig2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    sig3 = np.diag([1.0, -1.0]).astype(complex)
    zero = np.zeros((2, 2))

    commuting = ob.ObliqueBoundaryData(
        m=3, d=2, Pi=zero, Gamma=(1j * gamma * sig3, zero))
    e_ab = float(np.max(np.abs(ob.a1_quadrature(commuting)
                               - ob.a1_abelian(commuting))))
    clifford = ob.ObliqueBoundaryData(
        m=3, d=2, Pi=zero, Gamma=(1j * gamma * sig1, 1j * gamma * sig2))
    e_cl = float(np.max(np.abs(ob.a1_quadrature(clifford)
                               - ob.a1_clifford(clifford))))

    pref = (4.0 * math.pi) ** -1.0
    zg = (zero, zero)
    dir_lim = ob.a1_quadrature(ob.ObliqueBoundaryData(m=3, d=2, Pi=np.eye(2),
                                                      Gamma=zg))
    neu_lim = ob.a1_quadrature(ob.ObliqueBoundaryData(m=3, d=2, Pi=zero,
                                                      Gamma=zg))
    e_dn = max(float(np.max(np.abs(dir_lim + 0.25 * pref * np.eye(2)))),
               float(np.max(np.abs(neu_lim - 0.25 * pref * np.eye(2)))))

    raised = False
    try:
        ob.a1_quadrature(ob.ObliqueBoundaryData(
            m=3, d=2, Pi=zero, Gamma=(1.5j * sig1, 1.5j * sig2)))
    except DomainError:
        raised = True

    ok = e_ab <= 1e-8 and e_cl <= 1e-8 and e_dn == 0.0 and raised
    _report(8, "oblique a1 cross-routes and limits", ok,
            f"abelian gap {e_ab:.2e}, clifford gap {e_cl:.2e} (tol 1e-8), "
            f"D/N limit gap {e_dn:.1e} (exact), divergence raised: {raised}")


def test_criterion_09_zaremba_corner_and_kernel():
    got, expected, rel, _ = corner_integral_check()
    kernel_worst = 0.0
    points = [
        (0.05, za.WedgePoint(1.0, -0.9), za.WedgePoint(0.85, 0.4)),
        (0.10, za.WedgePoint(0.7, 0.2), za.WedgePoint(0.9, -0.3)),
        (0.20, za.WedgePoint(1.2, 1.0), za.WedgePoint(1.1, -1.2)),
        (0.08, za.WedgePoint(0.5, 0.0), za.WedgePoint(0.6, 0.7)),
        (0.15, za.WedgePoint(1.0, 1.4), za.WedgePoint(0.8, 1.3)),
    ]
    for t, p, pp in points:
        res = za.bessel_oracle(t, p, pp, terms=60)
        want = za.wedge_kernel(t, p, pp)
        kernel_worst = max(kernel_worst, abs(res.value - want) / abs(want))
    max_d, max_n = za.bc_residuals(0.1)
    ok = (rel <= 1e-6 and abs(za.corner_coefficient(2) + 1.0 / 16.0) < 1e-15
          and kernel_worst <= 1e-6 and max_d < 1e-12 and max_n < 1e-6)
    _report(9, "corner pi/4 factor, Bessel oracle, face residuals", ok,
            f"corner rel {rel:.2e} (tol 1e-6), kernel rel {kernel_worst:.2e} "
            f"(tol 1e-6), faces D {max_d:.1e} N {max_n:.1e} (tol 1e-12/1e-6)")


def test_criterion_10_interval_constants():
    L = math.pi
    ts = np.geomspace(1e-3, 1e-2, 10)
    errs = {}
    for bc, want in (("DD", -0.5), ("NN", 0.5)):
        samples = [(t, spectra.interval_trace(L, bc, t)) for t in ts]
        fit = spectra.fit_expansion(samples, m=1, exponents=(-0.5, 0.0))
        assert abs(fit.coefficients[0] - math.sqrt(math.pi) / 2.0) < 1e-6
        errs[bc] = abs(fit.coefficients[1] - want)
    ok = errs["DD"] <= 1e-6 and errs["NN"] <= 1e-6
    _report(10, "interval constants -1/2 (DD), +1/2 (NN)", ok,
            f"abs err DD {errs['DD']:.2e}, NN {errs['NN']:.2e} (tol 1e-6)")


def test_criterion_11_algebraic_residual_suites():
    # hmds recursion residuals on every fixture
    worst_rec = 0.0
    for kind, m, q, geo in [("sphere", 2, 0.3, dict(radius=1.0)),
                            ("sphere", 3, 0.0, dict(radius=1.4)),
                            ("flat", 2, -0.7, dict(volume=1.0)),
                            ("torus", 2, 0.2, dict(periods=(2 * math.pi, 4.0)))]:
        kmax, cutoff = 3, 2
        cap = cutoff + 2 * kmax
        geom = tc.build_model_geometry(kind, m, cutoff=cap, **geo)
        pot = tc.PotentialJet.constant(m, 1, q * np.eye(1), cutoff=cap)
        jet = hmds.build_operator_jet(geom, pot, cap)
        coeffs = hmds.hmds_coefficients(jet, kmax, cutoff)
        expo, M = jet.basis.expo, jet_matrix(jet)
        for prev, cur in zip(coeffs, coeffs[1:]):
            a, b = prev.coeffs, cur.coeffs
            lhs = (1.0 + expo[:len(b)].sum(axis=1) / cur.order)[:, None, None] * b
            rhs = np.matmul(M[:len(b), :len(a)], a[None]).sum(axis=1)
            worst_rec = max(worst_rec, float(np.max(np.abs(lhs - rhs))))

    # nonlaplace projector algebra on every fixture
    worst_proj = 0.0
    for sym in (nl.laplace_symbol(3, d=2), nl.one_form_symbol(2, 1.0),
                nl.one_form_symbol(3, 0.6)):
        spec = nl.eigenstructure(sym)
        dirs = unit_directions(sym.m, *nl._DIRECTIONS)
        P = spec.projectors_batch(dirs)
        eye = np.eye(sym.d)
        for n in range(dirs.shape[0]):
            worst_proj = max(worst_proj,
                             float(np.max(np.abs(P[n].sum(axis=0) - eye))))
            for i in range(spec.s):
                worst_proj = max(worst_proj, float(np.max(np.abs(
                    P[n, i] @ P[n, i] - P[n, i]))))

    # symmspace Jacobi identities on both fixtures
    worst_jac = 0.0
    for name in ("S2", "S3"):
        C = ss.build_symmetric_space(name).C
        jac = (np.einsum("aij,bjk->abik", C, C)
               - np.einsum("bij,ajk->abik", C, C)
               - np.einsum("axb,xik->abik", C, C))
        worst_jac = max(worst_jac, float(np.max(np.abs(jac))))

    ok = worst_rec < 1e-10 and worst_proj < 1e-10 and worst_jac < 1e-12
    _report(11, "residual suites: recursion, projectors, Jacobi", ok,
            f"recursion {worst_rec:.2e} (tol 1e-10), projectors "
            f"{worst_proj:.2e} (tol 1e-10), Jacobi {worst_jac:.2e} (tol 1e-12)")
