"""Nilpotent closed forms and curved symmetric-space theta machinery."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from heatkern import hmds, spectra, symmspace as ss
from heatkern import tensorcalc as tc
from heatkern.errors import DomainError, NumericError, ResourceError, ValidationError
from test_exact_towers import exact_sphere_diagonal


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


@pytest.mark.parametrize("B", [1e-13, 1e-200])
def test_weak_field_keeps_its_frequency(B):
    # the frequency cut is relative to the field, so no field reads as zero
    fs = ss.ConstantFieldStrength(2, planar_field(B))
    for tb in (0.1, 1.0, 3.0):
        want = spectra.landau_trace_density(B, tb / B)
        assert abs(ss.nilpotent_trace_density(fs, tb / B) - want) <= 1e-12 * want, tb


@pytest.mark.parametrize("call", [
    lambda: ss.theta_quadrature(ss.build_symmetric_space("S3", 1000.0), Q=-800.0, t=1.0),
    lambda: ss.nilpotent_trace_density(ss.ConstantFieldStrength(2, planar_field(1.0),
                                                                Q=[[-800.0]]), 1.0),
    lambda: ss.nilpotent_trace_density(ss.ConstantFieldStrength(2, planar_field(1e3),
                                                                Q=[[-800.0]]), [0.5, 1.0]),
], ids=["quadrature", "nilpotent", "nilpotent-inf-times-0"])
def test_fiber_trace_that_overflows_is_refused(call):
    # tr e^{-tQ} = e^{800} is past the float range: a NumericError naming t, with no
    # numpy warning, where theta_series refuses the same case at its c_k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"overflows at t=1\.0$"):
            call()


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


@pytest.mark.parametrize("fixture,radius", [
    ("S3", 1e-10), ("S2", 1e-10), ("S3", 1e10), ("S2", 1e-100), ("S3", 1e-100),
    ("S2", 1e80), ("S3", 1e80), ("S2", 9e153), ("S3", 9e153)])
def test_extreme_radius_scales_theta_series(fixture, radius):
    # every field is derived on the unit problem, so the closure and Jacobi checks
    # pass at any scale, the curvatures scale as kappa and c_k as kappa^k.  Outside
    # radii 1e-10..1e10 c_2 leaves the normal floats, so there only c_1 is compared
    kappa = 1 / radius / radius
    order = 4 if 1e-10 <= radius <= 1e10 else 1
    unit, space = ss.build_symmetric_space(fixture), ss.build_symmetric_space(fixture, radius)
    want = ss.theta_series(unit, order=order)
    got = ss.theta_series(space, order=order)
    assert np.all(np.isfinite(got))
    for k in range(order + 1):
        assert abs(got[k] / kappa ** k - want[k]) <= (1e-15 if k < 2 else 2e-15) * abs(want[k])
    for name in ("R", "R_H", "R_G"):          # R_H is 0 on S2
        w = getattr(unit, name)
        assert abs(getattr(space, name) * radius * radius - w) <= 1e-15 * abs(w), name


@pytest.mark.parametrize("fixture", ["S2", "S3"])
def test_extreme_radius_builds_and_data_that_overflows_is_rejected(fixture):
    # at kappa = 1e200 the products D_i D_k, and from radius about 9.5e153 the
    # covariance 2 beta^{-1}, leave the float range at absolute scale, but not on
    # the unit problem: these radii build with finite fields.  Data whose unit
    # products (E x 1e200) or absolute fields (beta = 1e300, E x 1e10) overflow is
    # refused; no numpy warning, no NaN series
    for radius in (1e-100, 1e154, 1e160):
        space = ss.build_symmetric_space(fixture, radius=radius)
        for value in (space.D, space.F, space.C, space.R, space.R_H, space.R_G):
            assert np.all(np.isfinite(value))
        assert np.all(np.isfinite(ss.theta_series(space, order=1)))
    space = ss.build_symmetric_space(fixture, radius=9e153)
    assert np.all(np.isfinite(ss.theta_series(space, order=4)))
    assert math.isfinite(ss.theta_quadrature(space, t=0.1))
    for E, beta in ((space.E * 1e200, np.eye(space.p)), (space.E * 1e10, 1e300 * np.eye(space.p))):
        with pytest.raises(ValidationError, match="overflow"):
            ss.SymmetricSpaceData(m=space.m, p=space.p, E=E, beta=beta)


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


def on_full_basis(B, block, n):
    """The block of degree n as an (N,) polynomial on the full basis of B."""
    full = np.zeros(B.N, dtype=block.dtype)
    full[B.offsets[n]:B.offsets[n + 1]] = block
    return full


def full_basis_normal_moments(B, cov):
    """The moments with the quadratic and every grade on all N rows of B, multiplied
    by tensorcalc._times: the recurrence that _normal_moments replaced, kept as its
    reference."""
    quad = np.zeros(B.N + 1)
    np.add.at(quad, B.up[:, B.up[:, 0]], cov / 2.0)
    G = tc._graded_exp([quad[:B.N]], B.deg // 2, np.eye(B.N, 1)[:, :, None],
                       lambda a, b, *grades: tc._times(B, a, b))
    return B.fact * sum(G)[:, 0, 0]


def test_normal_moments_match_symbolic_expansion():
    # alpha! times the x^alpha coefficient of exp(x^T C x / 2), expanded by sympy;
    # the blocks, put on the full basis, are the full-basis recurrence bit for bit
    sympy = pytest.importorskip("sympy")
    C = [[sympy.Rational(2), sympy.Rational(1, 2), sympy.Rational(-1, 3)],
         [sympy.Rational(1, 2), sympy.Rational(3, 2), sympy.Rational(1, 4)],
         [sympy.Rational(-1, 3), sympy.Rational(1, 4), sympy.Rational(1)]]
    x = sympy.symbols("x0:3")
    quad = sum(C[i][k] * x[i] * x[k] for i in range(3) for k in range(3)) / 2
    series = sympy.Poly(sum(quad ** k / math.factorial(k) for k in range(7)), *x).as_dict()
    B = tc._basis(3, 12)
    cov = np.array(C, dtype=float)
    blocks = ss._normal_moments(B, cov)
    assert len(blocks) == 7
    got = sum(on_full_basis(B, block, 2 * k) for k, block in enumerate(blocks))
    assert got.tobytes() == full_basis_normal_moments(B, cov).tobytes()
    want = np.array([float(series.get(tuple(e), 0) * f) for e, f in
                     zip(B.expo.tolist(), B.fact)])
    for n in range(0, 13, 2):
        # per degree block: E[x0 x1 x2^6] cancels to exactly 0, but only in rationals
        block = B.degree == n
        assert np.max(np.abs(got[block] - want[block])) <= 1e-14 * np.max(np.abs(want[block]))


@pytest.mark.parametrize("p,deg", [(1, 12), (2, 10), (3, 16), (4, 8)])
def test_block_times_is_the_full_basis_product_bit_for_bit(p, deg):
    # every pair of even degree blocks, each with zero coefficients in its support
    # and positions off the basis in its gather
    rng = np.random.default_rng(p)
    B = tc._basis(p, deg)
    size = lambda n: B.offsets[n + 1] - B.offsets[n]
    for i in range(deg // 2 + 1):
        for j in range(deg // 2 + 1 - i):
            C = rng.standard_normal(size(2 * i)) * (rng.random(size(2 * i)) < 0.7)
            P = rng.standard_normal(size(2 * j))
            got = ss._block_times(B, C, P, i, j)
            want = tc._times(B, on_full_basis(B, C, 2 * i),
                             on_full_basis(B, P, 2 * j)[:, None, None])
            assert on_full_basis(B, got, 2 * (i + j)).tobytes() == want[:, 0, 0].tobytes(), (i, j)


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


def full_basis_traced_powers(B, mats, jmax):
    """tr((x . M)^{2j}) with every power built on all N rows of B: the loop
    that _traced_powers replaced, kept as its reference."""
    P = np.eye(B.N, 1)[:, :, None] * np.eye(mats.shape[1])
    traces = [np.trace(P, axis1=1, axis2=2)]
    for n in range(1, 2 * jmax + 1):
        pad = tc._pad(P)
        P = sum(tc._take(pad, B.down[i, :B.N]) @ mats[i] for i in range(len(mats)))
        if n % 2 == 0:
            traces.append(np.trace(P, axis1=1, axis2=2))
    return np.array(traces)


@pytest.mark.parametrize("fixture", ["S2", "S3"])
@pytest.mark.parametrize("a", [0.7, 1.0, 3.0])
def test_traced_powers_on_the_degree_block_match_the_full_basis(fixture, a):
    # the block build makes the same float operations in the same order, so the
    # blocks, put on the full basis, are its traces bit for bit, zero rows included
    space = ss.build_symmetric_space(fixture, radius=a)
    for order in range(7):
        B = tc._basis(space.p, 2 * order)
        for mats in (space.F.transpose(1, 0, 2), space.D):
            blocks = ss._traced_powers(B, mats, order)
            assert len(blocks) == order + 1
            got = np.array([on_full_basis(B, b, 2 * j) for j, b in enumerate(blocks)])
            want = full_basis_traced_powers(B, mats, order)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), order


# theta_series at order 8, as it was when every grade was held on the full basis;
# order K returns the first K + 1 of these, bit for bit
THETA_BITS = {
    ("S2", 1e-3): ["0x1.0000000000000p+0", "0x1.4585555555555p+18", "0x1.f0b4935555555p+35",
                   "0x1.68e91cd0cd34dp+53", "0x1.5830f03f10f32p+71", "0x1.dd72f9fcf008fp+89",
                   "0x1.bdfda82c4ade3p+108", "0x1.0250cbf47bdaap+128", "0x1.61e8740f2387ep+147"],
    ("S2", 1.3): ["0x1.0000000000000p+0", "0x1.93f1dca7a317ap-3", "0x1.7e6ed3eefe620p-6",
                  "0x1.58d34d7baa942p-9", "0x1.9813d055c24b5p-12", "0x1.5f39205fd81c6p-14",
                  "0x1.971f60d6427a6p-16", "0x1.249cd67b14c66p-17", "0x1.f17b010cadb10p-19"],
    ("S2", 1e3): ["0x1.0000000000000p+0", "0x1.65e9f80f29211p-22", "0x1.2c3d6f030f9acp-44",
                  "0x1.dfbb83078b581p-67", "0x1.f709342e6162fp-89", "0x1.7f9d96dc4c24bp-110",
                  "0x1.89ffb1ffa781fp-131", "0x1.f5d25b31c22d3p-152", "0x1.79f8b26898347p-172"],
    ("S3", 1e-3): ["0x1.0000000000000p+0", "0x1.e848000000000p+19", "0x1.d1a94a2000001p+38",
                   "0x1.280f39a348556p+57", "0x1.1a582513bbe79p+75", "0x1.aed2bf933c97ep+92",
                   "0x1.11e8f827844ddp+110", "0x1.2a89ca9c11e35p+127", "0x1.1cb5507d3ef33p+144"],
    ("S3", 1.3): ["0x1.0000000000000p+0", "0x1.2ef5657dba51cp-1", "0x1.6687e6b00e7bfp-3",
                  "0x1.1add558f71ed9p-5", "0x1.4ec040e65961dp-8", "0x1.3cec8c367c019p-11",
                  "0x1.f413cc949536dp-15", "0x1.522cfbbd6b2cep-18", "0x1.90353c1836151p-22"],
    ("S3", 1e3): ["0x1.0000000000000p+0", "0x1.0c6f7a0b5ed8dp-20", "0x1.19799812dea10p-41",
                  "0x1.8987d17c304e1p-63", "0x1.9ca58cce0be2dp-85", "0x1.5a273320c8b48p-107",
                  "0x1.e3f50764ba29cp-130", "0x1.21fb00f91914fp-152", "0x1.30110b18b1daep-175"],
}


@pytest.mark.parametrize("fixture,radius", sorted(THETA_BITS))
def test_theta_series_keeps_its_bits(fixture, radius):
    space = ss.build_symmetric_space(fixture, radius)
    for order in range(9):
        got = [float.hex(c) for c in ss.theta_series(space, order=order)]
        assert got == THETA_BITS[fixture, radius][:order + 1], order


def test_theta_series_order_cap():
    # the basis budget and a finite alpha! are the only bounds on the order: S^2
    # (p = 1) runs to order 85, whose moments reach 170!, and S^3 (p = 3) to order 8,
    # whose degree-16 basis has comb(19, 3) = 969 rows.  Each refusal comes before
    # any product, and with no numpy warning
    s2, s3 = ss.build_symmetric_space("S2"), ss.build_symmetric_space("S3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(map(math.isfinite, ss.theta_series(s2, order=85)))
        with pytest.raises(ResourceError, match="order 86 needs alpha! past the float range"):
            ss.theta_series(s2, order=86)
        with pytest.raises(ResourceError, match=r"comb\(21, 3\) .* pass BASIS_BUDGET"):
            ss.theta_series(s3, order=9)
    with pytest.raises(ValidationError):
        ss.theta_series(s2, order=-1)


@pytest.mark.parametrize("radius,Q,order,k", [(1e-3, None, 85, 50), (1.0, 1e100, 4, 4)],
                         ids=["small-radius", "large-potential"])
def test_theta_series_that_overflows_is_refused(radius, Q, order, k):
    # c_k of S^2 is a^{-2k} times the unit sphere's, and the fiber factor grows like
    # Q^k / k!: a c_k that leaves the float range is a NumericError naming the first
    # such k, not a NaN after a numpy RuntimeWarning.  At a = 1e-3, c_49 = 1.96e307 is
    # the last float and c_50 = 9.8e313 is not
    space = ss.build_symmetric_space("S2", radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"overflows at c_{k}$"):
            ss.theta_series(space, Q=Q, order=order)


# theta_series runs on the unit problem, so at a radius of 1e-3 no product overflows
# before c_k does, and at 1e3 none underflows while c_k is a normal float (before,
# a = 1e-3 was refused at c_47, and at a = 1e3 c_41..c_48 lost their partial
# products to underflow, c_48 coming out 2.8e10 times too small).  kappa = 1 / a / a
# is rounded twice and c_48 holds kappa^48; the worst relative gaps were 8.6e-16
# (a = 1e-3) and 4.2e-15 (a = 1e3)
@pytest.mark.parametrize("radius", [1e-3, 1e3])
def test_s2_theta_series_at_extreme_radii_is_the_exact_tower(radius):
    kappa = Fraction(radius) ** -2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = ss.theta_series(ss.build_symmetric_space("S2", radius), order=48)
    for k, (ck, unit) in enumerate(zip(c, s2_exact_coefficients(48))):
        want = unit * kappa ** k
        assert abs(Fraction(ck) - want) <= Fraction(1e-14) * want, k


def test_deep_s2_theta_series_is_the_exact_tower():
    # c_k = (-1)^k a_k / k! against the Fraction HMDS tower of the unit S^2 through
    # k = 10 (a cutoff-20 jet, 0.25 s); the worst relative gap was 5.7e-16
    exact = exact_sphere_diagonal(2, Fraction(1), 10)
    c = ss.theta_series(ss.build_symmetric_space("S2"), order=10)
    for k, (ak, ck) in enumerate(zip(exact, c)):
        want = float((-1) ** k * ak / math.factorial(k))
        assert abs(ck - want) <= 2e-15 * abs(want), k


@pytest.mark.parametrize("a", [1.0, 1.7])
def test_deep_s3_theta_series_is_exponential(a):
    # with Q = 0 the S^3 diagonal is (4 pi t)^{-3/2} e^{t/a^2}, c_k = a^{-2k} / k!,
    # through order 8, the deepest the basis budget allows at p = 3; the worst
    # relative gap was 3.0e-14, at k = 8 on the unit sphere
    c = ss.theta_series(ss.build_symmetric_space("S3", radius=a), order=8)
    for k, ck in enumerate(c):
        want = a ** (-2 * k) / math.factorial(k)
        assert abs(ck - want) <= 1e-13 * want, k


# the worst relative gaps were 4.6e-14 (a = 1e-3) and 9.0e-14 (a = 1e3), at k = 8
@pytest.mark.parametrize("a", [1e-3, 1e3])
def test_s3_theta_series_at_extreme_radii_is_exponential(a):
    want = [Fraction(a) ** (-2 * k) / math.factorial(k) for k in range(9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = ss.theta_series(ss.build_symmetric_space("S3", radius=a), order=8)
    for k, (ck, w) in enumerate(zip(c, want)):
        assert abs(Fraction(ck) - w) <= Fraction(2e-13) * w, k


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
