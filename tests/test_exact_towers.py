"""Exact rational HMDS towers through the production operator.

The jet algebra and the recursion are dtype-neutral: `OperatorJet.apply` and
`hmds.hmds_coefficients` on object arrays of Fractions, with the metric series
that `hmds._metric_series` builds from a Fraction radial profile, compute every
coefficient exactly.  These towers pin
the recursion to closed forms with Fraction equality, and pin the float
towers to them at a tolerance measured per order k.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from heatkern import hmds
from heatkern import tensorcalc as tc


def exact_geometry(kind, m, cutoff, r2=None, **geo):
    """`build_model_geometry`'s geometry with an exact radial profile through the
    degree cutoff + 2 that an operator jet of that cutoff reads; a sphere takes
    its radius squared r2 as a Fraction."""
    profile = (Fraction(1),)
    if kind == "sphere":
        geo["radius"] = math.sqrt(r2)
        profile = tuple(Fraction((-1) ** k * 2 ** (2 * k + 1), math.factorial(2 * k + 2)) / r2 ** k
                        for k in range(cutoff // 2 + 2))
    geom = tc.build_model_geometry(kind, m, cutoff=cutoff, **geo)
    return dataclasses.replace(geom, radial_profile=profile)


def exact_jet(geom, cutoff, Q=(), curvature=None, d=1):
    """The operator jet on object arrays, built as `build_operator_jet` builds the
    float one: Q holds the Taylor coefficients of Q on `_basis(m, cutoff)`, and
    A_mu = -1/2 R_{mu alpha} y^alpha."""
    m, B = geom.m, tc._basis(geom.m, cutoff + 2)
    Qx = np.zeros((B.N, d, d), dtype=object) + Fraction(0)
    Qx[:len(Q)] = np.asarray(Q, dtype=object).reshape(-1, d, d)
    conn = None
    if curvature is not None:
        conn = np.zeros((m, B.N, d, d), dtype=object) + Fraction(0)
        conn[:, 1:m + 1] = -Fraction(1, 2) * np.asarray(curvature, dtype=object)
    return hmds.OperatorJet(m=m, d=d, cutoff=cutoff, series=hmds._metric_series(geom, B.deg),
                            connection=conn, Q=Qx, basis=B)


def exact_sphere_diagonal(m, r2, kmax):
    jet = exact_jet(exact_geometry("sphere", m, 2 * kmax, r2), 2 * kmax)
    tower = hmds.hmds_coefficients(jet, kmax, 0)
    values = [c.coeffs[0, 0, 0] for c in tower]
    assert all(type(v) is Fraction for v in values)
    return values


@pytest.mark.parametrize("m,r2", [(2, Fraction(3, 2)), (3, Fraction(2, 3)), (4, Fraction(5, 4))])
def test_a1_a2_are_the_curvature_invariants(m, r2):
    # a_1 = -R/6 and a_2 = (5 R^2 - 2 |Ric|^2 + 2 |Riem|^2)/180, 2! times
    # Gilkey's A_2; on a sphere of curvature 1/r2, R = m(m - 1)/r2,
    # |Ric|^2 = m(m - 1)^2/r2^2 and |Riem|^2 = 2m(m - 1)/r2^2
    R, ric2, riem2 = m * (m - 1) / r2, m * (m - 1) ** 2 / r2 ** 2, 2 * m * (m - 1) / r2 ** 2
    assert exact_sphere_diagonal(m, r2, 2) == [1, -R / 6, (5 * R * R - 2 * ric2 + 2 * riem2) / 180]


def test_unit_s4_diagonal():
    # the Euler-Maclaurin expansion of sum_l (2l + 3)(l + 1)(l + 2)/6 e^{-t l(l + 3)}
    want = [1, -2, Fraction(58, 15), Fraction(-148, 21), Fraction(1192, 105)]
    assert exact_sphere_diagonal(4, Fraction(1), 4) == want


def test_unit_s2_diagonal_through_k6():
    # Mulholland's rationals, (-1)^k k! times the t^k coefficient of the S^2
    # heat kernel diagonal; a cutoff-12 jet
    want = [1, Fraction(-1, 3), Fraction(2, 15), Fraction(-8, 105), Fraction(8, 105),
            Fraction(-32, 231), Fraction(6112, 15015)]
    assert exact_sphere_diagonal(2, Fraction(1), 6) == want


def test_s3_diagonal_is_a_power():
    # the S^3 kernel is (4 pi t)^{-3/2} (r/a / sin(r/a)) e^{-r^2/4t} e^{t/a^2}
    assert exact_sphere_diagonal(3, Fraction(1, 2), 4) == [(-2) ** k for k in range(5)]


def test_constant_potential_is_undone_by_b_lambda():
    # Q = q shifts L by q, so b_q(k) of the tower with Q is the tower without it
    q, kmax = Fraction(3, 10), 3
    geom = exact_geometry("sphere", 2, 2 * kmax, Fraction(3, 2))
    plain = hmds.hmds_coefficients(exact_jet(geom, 2 * kmax), kmax, 0)
    tower = hmds.hmds_coefficients(exact_jet(geom, 2 * kmax, Q=[q]), kmax, 0)
    for k in range(kmax + 1):
        assert np.array_equal(hmds.b_lambda(k, q, tower).coeffs, plain[k].coeffs)


# the worst |float - exact| / max|exact| over the cases below was 0, 3.6e-16,
# 2.8e-15, 2.5e-14 and 3.2e-14 for a_0..a_4, and 2.2e-15 for b_lambda; each
# bound is 2 to 3 times that
FLOAT_TOL, B_LAMBDA_TOL = [0.0, 1e-15, 8e-15, 6e-14, 1e-13], 6e-15

# Taylor coefficients of a potential on _basis(2, .): 1/5 + y0/3 - y0 y1/4 + y1^2/7
POLY_Q = [Fraction(1, 5), Fraction(1, 3), 0, 0, Fraction(-1, 4), Fraction(1, 7)]
# a real antisymmetric fiber block is anti-Hermitian, so a rational field stays real
FIELD = np.array([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], dtype=object)
Q0_D2 = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1, 5)]]


def jet_pair(kind, m, cap, r2=None, periods=None, Q=(), curvature=None, d=1):
    """The exact jet, and `build_operator_jet`'s float jet, of one geometry and potential."""
    geom = exact_geometry(kind, m, cap, r2, periods=periods)
    radius = None if r2 is None else math.sqrt(r2)
    fgeom = tc.build_model_geometry(kind, m, cutoff=cap, radius=radius, periods=periods)
    Qf = np.zeros((math.comb(m + cap, m), d, d))
    Qf[:len(Q)] = np.array(Q, dtype=float).reshape(-1, d, d)
    curv = np.zeros((m, m, d, d)) if curvature is None else np.array(curvature, dtype=float)
    return (exact_jet(geom, cap, Q, curvature, d),
            hmds.build_operator_jet(fgeom, tc.PotentialJet(m, d, cap, Qf, curv), cap))


def field_curvature(m):
    curv = np.zeros((m, m, 2, 2), dtype=object) + Fraction(0)
    curv[0, 1], curv[1, 0] = FIELD, -FIELD
    return curv


CASES = {
    "s2": ("sphere", 2, 4, 0, dict(r2=Fraction(3, 2))),
    "s2-cutoff-2": ("sphere", 2, 3, 2, dict(r2=Fraction(1, 3))),
    "s3": ("sphere", 3, 4, 0, dict(r2=Fraction(2, 3))),
    "s4": ("sphere", 4, 3, 2, dict(r2=Fraction(5, 4))),
    "s2-potential": ("sphere", 2, 4, 0, dict(r2=Fraction(3, 2), Q=[Fraction(3, 10)])),
    "torus-polynomial-potential": ("torus", 2, 3, 2, dict(Q=POLY_Q, periods=(2 * math.pi, 4.0))),
    "flat-d2-field": ("flat", 2, 3, 2, dict(Q=Q0_D2, curvature=field_curvature(2), d=2)),
    "flat-m3-d2-field": ("flat", 3, 2, 2, dict(Q=Q0_D2, curvature=field_curvature(3), d=2)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_float_tower_matches_the_exact_tower(name):
    kind, m, kmax, cutoff, kw = CASES[name]
    exact, floats = jet_pair(kind, m, cutoff + 2 * kmax, **kw)
    exact, floats = (hmds.hmds_coefficients(jet, kmax, cutoff) for jet in (exact, floats))
    assert all(type(v) in (int, Fraction) for c in exact for v in c.coeffs.flat)
    lam = Fraction(7, 10)
    pairs = [(c.coeffs, a.coeffs, FLOAT_TOL[k]) for k, (c, a) in enumerate(zip(floats, exact))]
    pairs.append((hmds.b_lambda(kmax, float(lam), floats).coeffs,
                  hmds.b_lambda(kmax, lam, exact).coeffs, B_LAMBDA_TOL))
    for k, (got, want, tol) in enumerate(pairs):
        want = np.array(want, dtype=float)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), k
