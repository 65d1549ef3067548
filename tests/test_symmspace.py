"""Nilpotent closed forms and curved symmetric-space theta machinery."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from heatkern import hmds, spectra, symmspace as ss
from heatkern import tensorcalc as tc
from heatkern.errors import DomainError, ValidationError


# ---------------------------------------------------------------------------
# constant field strength (nilpotent algebra)
# ---------------------------------------------------------------------------

def planar_field(B):
    return np.array([[0.0, B], [-B, 0.0]])


def test_rotation_frequencies_two_blocks():
    r = np.zeros((4, 4))
    r[0, 1], r[1, 0] = 0.5, -0.5
    r[2, 3], r[3, 2] = 1.25, -1.25
    fs = ss.ConstantFieldStrength(4, r)
    assert np.allclose(fs.rotation_frequencies(), [0.5, 1.25])


def test_nilpotent_density_m2_matches_landau():
    B = 1.3
    fs = ss.ConstantFieldStrength(2, planar_field(B))
    for t in (0.05, 0.4, 2.0):
        want = spectra.landau_trace_density(B, t)
        assert abs(ss.nilpotent_trace_density(fs, t) - want) < 1e-14 * want


def test_nilpotent_small_field_limit():
    t = 0.3
    got = ss.nilpotent_trace_density(ss.ConstantFieldStrength(2, planar_field(1e-9)), t)
    assert abs(got - 1.0 / (4 * math.pi * t)) < 1e-9 / t


def test_density_where_tb_underflows_to_zero():
    # tB = 1e-600 is 0 in floats, where tB / sinh(tB) takes its limit 1; the
    # Landau level sum is over its cap there (test_spectra)
    B = t = 1e-300
    want = 1.0 / (4 * math.pi * t)
    fs = ss.ConstantFieldStrength(2, planar_field(B))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(ss.nilpotent_trace_density(fs, t) - want) < 1e-15 * want


def test_nilpotent_density_m4_factorizes():
    r = np.zeros((4, 4))
    r[0, 1], r[1, 0] = 0.7, -0.7
    r[2, 3], r[3, 2] = 1.1, -1.1
    fs = ss.ConstantFieldStrength(4, r)
    t = 0.3
    want = (4 * math.pi * t) ** -2.0
    for b in (0.7, 1.1):
        want *= t * b / math.sinh(t * b)
    assert abs(ss.nilpotent_trace_density(fs, t) - want) < 1e-14 * want


def test_nilpotent_density_endomorphism_shift():
    fs = ss.ConstantFieldStrength(2, planar_field(0.9), Q=np.diag([0.2, -0.1]))
    t = 0.5
    base = ss.nilpotent_trace_density(ss.ConstantFieldStrength(2, planar_field(0.9)), t)
    want = base * (math.exp(-0.2 * t) + math.exp(0.1 * t))
    assert abs(ss.nilpotent_trace_density(fs, t) - want) < 1e-13 * want


def test_nilpotent_zero_field_is_free_gaussian():
    fs = ss.ConstantFieldStrength(3, np.zeros((3, 3)))
    t = 0.2
    assert abs(ss.nilpotent_trace_density(fs, t)
               - (4 * math.pi * t) ** -1.5) < 1e-15 / t ** 1.5


def test_field_strength_validation():
    with pytest.raises(ValidationError):
        ss.ConstantFieldStrength(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        ss.ConstantFieldStrength(2, planar_field(1.0), Q=np.array([[0, 1], [0, 0]]))
    fs = ss.ConstantFieldStrength(2, planar_field(1.0))
    with pytest.raises(ValidationError):
        ss.nilpotent_trace_density(fs, 0.0)


# ---------------------------------------------------------------------------
# symmetric space fixtures
# ---------------------------------------------------------------------------

def test_fixture_shapes_and_scalars():
    s2 = ss.build_symmetric_space("S2")
    assert (s2.m, s2.p) == (2, 1)
    assert abs(s2.R - 2.0) < 1e-12
    assert abs(s2.R_H) < 1e-12        # abelian holonomy
    assert abs(s2.R_G - 1.5) < 1e-12

    s3 = ss.build_symmetric_space("S3")
    assert (s3.m, s3.p) == (3, 3)
    assert abs(s3.R - 6.0) < 1e-12
    assert abs(s3.R_H - 1.5) < 1e-12
    assert abs(s3.R_G - 6.0) < 1e-12


def test_fixture_radius_scaling():
    a = 2.0
    s3 = ss.build_symmetric_space("S3", radius=a)
    kappa = 1 / a ** 2
    assert abs(s3.R - 6.0 * kappa) < 1e-12
    assert abs(s3.R_H - 1.5 * kappa) < 1e-12


def test_fixture_validation():
    with pytest.raises(ValidationError):
        ss.build_symmetric_space("H2")
    with pytest.raises(ValidationError):
        ss.build_symmetric_space("S2", radius=0.0)


@pytest.mark.parametrize("beta", [np.diag([1.0, 2.0, 3.0]),
                                  [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]],
                         ids=["diagonal", "non-diagonal"])
def test_beta_that_is_not_ad_invariant_is_rejected(beta):
    # S^3 generators with a beta that no rotation of so(3) preserves: the F_i are
    # not beta-antisymmetric, so the Cartan reduction of theta_quadrature would not hold
    i, a, b = np.indices((3, 3, 3))
    E = (i - a) * (a - b) * (b - i) / 2.0
    with pytest.raises(ValidationError, match="beta-antisymmetric"):
        ss.SymmetricSpaceData(m=3, p=3, E=E, beta=beta)


@pytest.mark.parametrize("call", [
    lambda: ss.theta_series(ss.build_symmetric_space("S2"), Q=math.nan),
    lambda: ss.theta_quadrature(ss.build_symmetric_space("S2"), Q=np.array([[math.inf]])),
    lambda: ss.ConstantFieldStrength(2, planar_field(math.nan)),
    lambda: ss.ConstantFieldStrength(2, planar_field(1.0), Q=np.diag([0.1, math.nan])),
    lambda: ss.SymmetricSpaceData(m=2, p=1, E=[[[0.0, 1.0], [-1.0, 0.0]]], beta=[[math.nan]]),
    lambda: ss.SymmetricSpaceData(m=2, p=1, E=[[[0.0, math.inf], [-math.inf, 0.0]]],
                                  beta=[[1.0]]),
    lambda: ss.build_symmetric_space("S2", radius=math.nan),
    lambda: ss.build_symmetric_space("S3", radius=math.inf),
    lambda: ss.build_symmetric_space("S3", radius=1e-200),
], ids=["series-Q", "quadrature-Q", "field-rhat", "field-Q", "space-beta", "space-E",
        "radius-nan", "radius-inf", "radius-tiny"])
def test_non_finite_inputs_rejected(call):
    # NaN fails every comparison, so each of these used to pass its validator
    with pytest.raises(ValidationError, match=r"\bfinite"):
        call()


@pytest.mark.parametrize("fixture,radius", [("S3", 1e-10), ("S2", 1e-10), ("S3", 1e10)])
def test_extreme_radius_scales_theta_series(fixture, radius):
    # the closure and Jacobi checks are relative to the size of the products,
    # so exact data at any scale passes and c_k scales as kappa^k
    kappa = 1 / radius / radius
    unit = ss.theta_series(ss.build_symmetric_space(fixture), order=4)
    got = ss.theta_series(ss.build_symmetric_space(fixture, radius=radius), order=4)
    assert np.all(np.isfinite(got))
    for k in range(5):
        assert abs(got[k] / kappa ** k - unit[k]) <= 1e-12 * abs(unit[k])


@pytest.mark.parametrize("fixture", ["S2", "S3"])
def test_radius_whose_products_overflow_is_rejected(fixture):
    # kappa = 1e200: D_i D_k would overflow; from radius about 9.5e153 the
    # covariance 2 beta^{-1} does; no numpy warning, no NaN series
    for radius in (1e-100, 1e154, 1e160):
        with pytest.raises(ValidationError, match="overflow"):
            ss.build_symmetric_space(fixture, radius=radius)
    space = ss.build_symmetric_space(fixture, radius=9e153)
    assert np.all(np.isfinite(ss.theta_series(space, order=4)))
    assert math.isfinite(ss.theta_quadrature(space, t=0.1))


@pytest.mark.parametrize("fixture,a", [("S2", 1.0), ("S3", 1.0), ("S3", 1.7)])
def test_riemann_is_constant_curvature(fixture, a):
    space = ss.build_symmetric_space(fixture, radius=a)
    m, kappa = space.m, 1 / a ** 2
    R = np.einsum("ik,iab,kcd->abcd", space.beta, space.E, space.E)
    eye = np.eye(m)
    want = kappa * (np.einsum("ac,bd->abcd", eye, eye)
                    - np.einsum("ad,bc->abcd", eye, eye))
    assert np.max(np.abs(R - want)) < 1e-12


@pytest.mark.parametrize("fixture", ["S2", "S3"])
def test_translation_bracket_closes_on_holonomy(fixture):
    # [D_i, D_k] = F^j_{ik} D_j with the stored structure constants
    space = ss.build_symmetric_space(fixture)
    for i in range(space.p):
        for k in range(space.p):
            comm = space.D[i] @ space.D[k] - space.D[k] @ space.D[i]
            want = np.einsum("j,jab->ab", space.F[:, i, k], space.D)
            assert np.max(np.abs(comm - want)) < 1e-12


@pytest.mark.parametrize("fixture", ["S2", "S3"])
def test_adjoint_jacobi_identity(fixture):
    space = ss.build_symmetric_space(fixture)
    C = space.C
    jac = (np.einsum("aij,bjk->abik", C, C)
           - np.einsum("bij,ajk->abik", C, C)
           - np.einsum("axb,xik->abik", C, C))
    assert np.max(np.abs(jac)) < 1e-12


def test_log_sinh_coefficients():
    from fractions import Fraction
    b = ss._log_sinh_coeffs(4)
    assert b[1] == Fraction(1, 6)
    assert b[2] == Fraction(-1, 180)
    assert b[3] == Fraction(1, 2835)
    assert b[4] == Fraction(-1, 37800)


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------

def bernoulli(n):
    """Bernoulli numbers B_0..B_n as Fractions."""
    B = [Fraction(1)]
    for k in range(1, n + 1):
        B.append(-sum(math.comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return B


def s2_exact_coefficients(order):
    """Mulholland's c_k for the unit S^2, exactly.

    Theta(t) = sum_l (2l+1) e^{-t l(l+1)} = e^{t/4} sum_l f(l + 1/2) with
    f(x) = 2x e^{-t x^2}.  Euler-Maclaurin at the midpoints gives
    t sum_l f(l + 1/2) = 1 + sum_{k>=1} (-1)^k B_{2k}(1/2) t^k / k!, with
    B_{2k}(1/2) = (2^{1-2k} - 1) B_{2k}; then t Theta(t) = sum_k c_k t^k.
    """
    B = bernoulli(2 * order)
    e = [Fraction(1)] + [(-1) ** k * (Fraction(2) ** (1 - 2 * k) - 1) * B[2 * k]
                         / math.factorial(k) for k in range(1, order + 1)]
    return [sum(Fraction(1, 4) ** a / math.factorial(a) * e[k - a] for a in range(k + 1))
            for k in range(order + 1)]


def test_theta_series_s2_matches_mulholland_rationals():
    want = s2_exact_coefficients(6)
    assert want == [1, Fraction(1, 3), Fraction(1, 15), Fraction(4, 315), Fraction(1, 315),
                    Fraction(4, 3465), Fraction(382, 675675)]
    c = ss.theta_series(ss.build_symmetric_space("S2"), order=6)
    for got, w in zip(c, want):
        assert abs(got - float(w)) <= 1e-14 * float(w)


def test_normal_moments_match_symbolic_expansion():
    # alpha! times the x^alpha coefficient of exp(x^T C x / 2), expanded by sympy
    sympy = pytest.importorskip("sympy")
    C = [[sympy.Rational(2), sympy.Rational(1, 2), sympy.Rational(-1, 3)],
         [sympy.Rational(1, 2), sympy.Rational(3, 2), sympy.Rational(1, 4)],
         [sympy.Rational(-1, 3), sympy.Rational(1, 4), sympy.Rational(1)]]
    x = sympy.symbols("x0:3")
    quad = sum(C[i][k] * x[i] * x[k] for i in range(3) for k in range(3)) / 2
    series = sympy.Poly(sum(quad ** k / math.factorial(k) for k in range(7)), *x).as_dict()
    B = tc._basis(3, 12)
    got = ss._normal_moments(B, np.array(C, dtype=float))
    want = np.array([float(series.get(tuple(e), 0) * f) for e, f in
                     zip(B.expo.tolist(), B.fact)])
    assert not got[B.degree % 2 == 1].any()
    for n in range(0, 13, 2):
        # per degree block: E[x0 x1 x2^6] cancels to exactly 0, but only in rationals
        block = B.degree == n
        assert np.max(np.abs(got[block] - want[block])) <= 1e-14 * np.max(np.abs(want[block]))


def test_theta_series_s2_frozen_coefficients():
    c = ss.theta_series(ss.build_symmetric_space("S2"), order=4)
    assert abs(c[0] - 1.0) < 1e-14
    assert abs(c[1] - 1.0 / 3.0) < 1e-12
    assert abs(c[2] - 1.0 / 15.0) < 1e-12
    assert abs(c[3] - 4.0 / 315.0) < 1e-12


def test_theta_series_s2_radius_scaling():
    c1 = ss.theta_series(ss.build_symmetric_space("S2"), order=4)
    c2 = ss.theta_series(ss.build_symmetric_space("S2", radius=2.0), order=4)
    for k in range(5):
        assert abs(c2[k] - c1[k] * 0.25 ** k) < 1e-13


@pytest.mark.parametrize("a,q", [(1.0, 0.0), (1.0, 0.3), (1.4, -0.2)])
def test_theta_series_s3_is_exponential(a, q):
    # on S^3 the holonomy factors cancel exactly, leaving c_k = (kappa - q)^k/k!
    space = ss.build_symmetric_space("S3", radius=a)
    Q = None if q == 0.0 else np.array([[q]])
    c = ss.theta_series(space, Q=Q, order=6)
    kappa = 1 / a ** 2
    for k in range(7):
        assert abs(c[k] - (kappa - q) ** k / math.factorial(k)) < 1e-12


def test_theta_series_s2_matches_spectral_fit():
    # partial spectral sums give t Tr = sum_k c_k t^k on the unit sphere
    ts = np.geomspace(5e-3, 2e-1, 14)
    samples = [(t, t * spectra.sphere_trace(2, 1.0, t)) for t in ts]
    fit = spectra.fit_expansion(samples, m=2,
                                exponents=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    c = ss.theta_series(ss.build_symmetric_space("S2"), order=4)
    assert abs(fit.coefficients[2] - c[2]) < 1e-6
    assert abs(fit.coefficients[3] - c[3]) < 1e-5
    assert abs(fit.coefficients[4] - c[4]) < 1e-3


# the worst |c_k(hmds) - c_k(theta)| / ((1/a^2 + q)^k / k!) over the cases below
# was 0, 1.6e-16, 4.6e-16, 1.4e-15, 3.4e-15, 5.6e-15 and 3.1e-14 for k = 0..6,
# the last from HMDS on the unit S^3; each bound is 2 to 3 times that
HMDS_THETA_TOL = [0.0, 4e-16, 1e-15, 3e-15, 8e-15, 1.5e-14, 7e-14]


@pytest.mark.parametrize("fixture,m", [("S2", 2), ("S3", 3)])
@pytest.mark.parametrize("a", [1.0, 1.7])
@pytest.mark.parametrize("q", [0.0, 0.3])
def test_theta_series_matches_the_hmds_tower(fixture, m, a, q):
    # two routes to one diagonal: c_k = (-1)^k a_k / k!.  The gap is measured on
    # the scale (1/a^2 + q)^k / k! of the terms that cancel: on S^3 at a = 1.7,
    # q = 0.3, c_k = (1/a^2 - q)^k / k! is far below it
    K = len(HMDS_THETA_TOL) - 1
    geom = tc.build_model_geometry("sphere", m, cutoff=2 * K, radius=a)
    pot = tc.PotentialJet.constant(m, 1, q * np.eye(1), cutoff=2 * K)
    tower = hmds.hmds_coefficients(hmds.build_operator_jet(geom, pot, 2 * K), K, 0)
    theta = ss.theta_series(ss.build_symmetric_space(fixture, a), Q=[[q]], order=K)
    for k, (ak, ck, tol) in enumerate(zip(tower, theta, HMDS_THETA_TOL)):
        scale = (1 / a ** 2 + q) ** k / math.factorial(k)
        assert abs((-1) ** k * ak.coeffs[0, 0, 0] / math.factorial(k) - ck) <= tol * scale, k


def test_theta_series_order_cap():
    space = ss.build_symmetric_space("S2")
    ss.theta_series(space, order=6)
    with pytest.raises(ValidationError):
        ss.theta_series(space, order=7)
    with pytest.raises(ValidationError):
        ss.theta_series(space, order=-1)


# ---------------------------------------------------------------------------
# theta quadrature
# ---------------------------------------------------------------------------

def test_quadrature_s2_matches_spectral_diagonal():
    t = 0.01
    got = ss.theta_quadrature(ss.build_symmetric_space("S2"), t=t)
    want = spectra.sphere_trace(2, 1.0, t) / (4 * math.pi)
    assert abs(got - want) < 1e-5 * want


def test_quadrature_s3_exact_cancellation():
    # F = D on S^3: the integrand is identically 1 and the value closes
    t = 0.02
    a = 1.0
    got = ss.theta_quadrature(ss.build_symmetric_space("S3", radius=a), t=t)
    want = (4 * math.pi * t) ** -1.5 * math.exp(t / a ** 2)
    assert abs(got - want) < 1e-12 * want


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_quadrature_matches_series_smalltime(a):
    space = ss.build_symmetric_space("S2", radius=a)
    t = 0.01 * a ** 2
    c = ss.theta_series(space, order=4)
    want = (4 * math.pi * t) ** -1.0 * sum(ck * t ** k for k, ck in enumerate(c))
    got = ss.theta_quadrature(space, t=t)
    assert abs(got - want) < 1e-8 * want


def test_quadrature_fiber_shift():
    space = ss.build_symmetric_space("S2")
    t = 0.05
    base = ss.theta_quadrature(space, t=t)
    shifted = ss.theta_quadrature(space, Q=np.array([[0.4]]), t=t)
    assert abs(shifted - base * math.exp(-0.4 * t)) < 1e-12 * base


def test_quadrature_pole_guard():
    s3 = ss.build_symmetric_space("S3")
    with pytest.raises(DomainError, match="pole"):
        ss.theta_quadrature(s3, t=0.05)
    s2 = ss.build_symmetric_space("S2")
    with pytest.raises(DomainError, match="pole"):
        ss.theta_quadrature(s2, t=0.15)
    with pytest.raises(ValidationError):
        ss.theta_quadrature(s2, t=0.0)


def test_quadrature_window_scales_with_radius():
    # doubling the radius widens the admissible window fourfold
    s3 = ss.build_symmetric_space("S3", radius=2.0)
    val = ss.theta_quadrature(s3, t=0.08)
    assert val > 0.0
