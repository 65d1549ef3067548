"""Recursion residuals, frozen sphere coefficients, and shift identities."""

import math
import warnings

import numpy as np
import pytest

from heatkern import hmds, symmspace
from heatkern import tensorcalc as tc
from heatkern.errors import NumericError, ValidationError


def make_fixture(kind, m, q=0.0, d=1, curvature=None, kmax=3, cutoff=2, **geo):
    cap = cutoff + 2 * kmax
    geom = tc.build_model_geometry(kind, m, cutoff=cap, **geo)
    Q0 = q * np.eye(d)
    pot = tc.PotentialJet.constant(m, d, Q0, curvature=curvature, cutoff=cap)
    jet = hmds.build_operator_jet(geom, pot, cap)
    coeffs = hmds.hmds_coefficients(jet, kmax, cutoff)
    return geom, pot, jet, coeffs


FIXTURES = [
    ("sphere", 2, 0.3, dict(radius=1.0)),
    ("sphere", 3, 0.0, dict(radius=1.4)),
    ("flat", 2, -0.7, dict(volume=1.0)),
    ("torus", 2, 0.2, dict(periods=(2 * math.pi, 4.0))),
]


def jet_matrix(jet):
    """M[beta, alpha], the y^beta coefficient of L y^alpha over the monomials of
    degree <= jet.cutoff, shape (N, N, d, d): column alpha is `jet.apply` on
    the unit monomial y^alpha (times the identity block)."""
    B, d = jet.basis, jet.d
    N = B.offsets[jet.cutoff + 1]
    units = np.eye(N, B.N)[:, :, None, None] * np.eye(d)
    return jet.apply(units)[:, :N].swapaxes(0, 1)


def recursion_residual(jet, coeffs):
    """max |(1 + D/k) a_k - L a_{k-1}| over k and every stored monomial coefficient."""
    expo, M = jet.basis.expo, jet_matrix(jet)
    worst = 0.0
    for prev, cur in zip(coeffs, coeffs[1:]):
        a, b = prev.coeffs, cur.coeffs
        lhs = (1.0 + expo[:len(b)].sum(axis=1) / cur.order)[:, None, None] * b
        rhs = np.matmul(M[:len(b), :len(a)], a[None]).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("kind,m,q,geo", FIXTURES)
def test_recursion_residuals(kind, m, q, geo):
    # (1 + D/k) a_k = L a_{k-1} exactly on every stored order
    _, _, jet, coeffs = make_fixture(kind, m, q=q, **geo)
    assert [c.cutoff for c in coeffs] == [8, 6, 4, 2]
    assert recursion_residual(jet, coeffs) < 1e-10


@pytest.mark.parametrize("kind,m,q,geo", FIXTURES)
def test_a1_is_potential_minus_sixth_curvature(kind, m, q, geo):
    _, pot, _, coeffs = make_fixture(kind, m, q=q, **geo)
    R = m * (m - 1) / geo["radius"] ** 2 if kind == "sphere" else 0.0
    want = pot.Q[0] - R / 6.0 * np.eye(pot.d)
    assert np.max(np.abs(coeffs[1].diagonal - want)) < 1e-12


def test_a0_is_identity():
    _, _, _, coeffs = make_fixture("sphere", 2, q=0.5, radius=1.0)
    assert np.array_equal(coeffs[0].diagonal, np.eye(1))


def test_unit_sphere_frozen_values():
    # scalar Laplacian on S^2, radius 1: a_1 = -1/3, a_2 = 2/15, a_3 = -8/105
    _, _, _, coeffs = make_fixture("sphere", 2, q=0.0, kmax=3, cutoff=0, radius=1.0)
    diag = [c.diagonal[0, 0].real for c in coeffs]
    assert abs(diag[1] + 1.0 / 3.0) < 1e-12
    assert abs(diag[2] - 2.0 / 15.0) < 1e-12
    assert abs(diag[3] + 8.0 / 105.0) < 1e-12


def test_unit_sphere_potential_shift():
    q = 0.4
    _, _, _, coeffs = make_fixture("sphere", 2, q=q, kmax=1, cutoff=0, radius=1.0)
    assert abs(coeffs[1].diagonal[0, 0] - (q - 1.0 / 3.0)) < 1e-12


def test_trace_expansion_unit_sphere():
    geom, _, _, coeffs = make_fixture("sphere", 2, q=0.0, kmax=3, cutoff=0, radius=1.0)
    exp = hmds.trace_expansion(geom, coeffs)
    want = {-1.0: 1.0, 0.0: 1.0 / 3.0, 1.0: 1.0 / 15.0, 2.0: 4.0 / 315.0}
    for e, c in want.items():
        assert abs(exp.coefficient(e) - c) < 1e-12
    # half-integer slots are reserved and empty on a closed manifold
    for e in (-0.5, 0.5, 1.5):
        assert exp.coefficient(e) == 0.0
    val = exp.evaluate(0.01)
    assert abs(val - sum(c * 0.01 ** e for e, c in want.items())) < 1e-12


def test_trace_expansion_torus_potential():
    # flat torus: A_0 = (4 pi)^{-m/2} vol, A_2 = -(4 pi)^{-m/2} vol q
    vol = 2 * math.pi * 4.0
    geom, _, _, coeffs = make_fixture("torus", 2, q=0.2, kmax=1, cutoff=0,
                                      periods=(2 * math.pi, 4.0))
    exp = hmds.trace_expansion(geom, coeffs)
    pref = (4 * math.pi) ** -1 * vol
    assert abs(exp.coefficient(-1.0) - pref) < 1e-12
    assert abs(exp.coefficient(0.0) + pref * 0.2) < 1e-12


def test_constant_magnetic_field_matches_landau_series():
    # d = 1 bundle over flat R^2 with curvature i B eps_{mu nu}: the diagonal
    # kernel is (4 pi t)^{-1} tB/sinh(tB), so a_2 = -B^2/3 and odd orders vanish.
    B = 0.8
    m, d = 2, 1
    curv = np.zeros((m, m, d, d), dtype=complex)
    curv[0, 1] = 1j * B
    curv[1, 0] = -1j * B
    _, _, _, coeffs = make_fixture("flat", m, q=0.0, d=d, curvature=curv,
                                   kmax=3, cutoff=0, volume=1.0)
    assert abs(coeffs[1].diagonal[0, 0]) < 1e-12
    assert abs(coeffs[2].diagonal[0, 0] - (-B ** 2 / 3.0)) < 1e-12
    assert abs(coeffs[3].diagonal[0, 0]) < 1e-12

    # flat R^4 with rotation frequencies 0.7 and 1.3 and q = 0.2 (N = 1001, the
    # whole basis budget): (-1)^k a_k / k! are the t^k coefficients of
    # e^{-tq} prod_j tB_j / sinh(tB_j), as is symmspace's closed-form density
    sp = pytest.importorskip("sympy")
    freqs, q, kmax = (0.7, 1.3), 0.2, 4
    m = 4
    curv = np.zeros((m, m, d, d), dtype=complex)
    rhat = np.zeros((m, m))
    for j, b in enumerate(freqs):
        curv[2 * j, 2 * j + 1], curv[2 * j + 1, 2 * j] = 1j * b, -1j * b
        rhat[2 * j, 2 * j + 1], rhat[2 * j + 1, 2 * j] = b, -b
    _, _, jet, coeffs = make_fixture("flat", m, q=q, d=d, curvature=curv,
                                     kmax=kmax, cutoff=0, volume=1.0)
    assert jet.basis.N == 1001
    t = sp.Symbol("t")
    closed = sp.exp(-t * sp.nsimplify(q)) * sp.Mul(
        *[t * sp.nsimplify(b) / sp.sinh(t * sp.nsimplify(b)) for b in freqs])
    series = sp.series(closed, t, 0, kmax + 1).removeO()
    want = [float(series.coeff(t, k)) for k in range(kmax + 1)]
    for k in range(kmax + 1):
        got = (-1) ** k * coeffs[k].diagonal[0, 0] / math.factorial(k)
        assert abs(got - want[k]) < 5e-16
    ts = 1e-3
    fs = symmspace.ConstantFieldStrength(m=m, rhat=rhat, Q=[[q]])
    density = symmspace.nilpotent_trace_density(fs, ts) * (4 * math.pi * ts) ** 2
    partial = sum(c * ts ** k for k, c in enumerate(want))
    assert abs(density - partial) < 1e-15 * abs(partial)


def test_flat_matrix_potential_exponentiates():
    # flat space, constant matrix Q: the kernel factorizes as e^{-tQ} times
    # the free Gaussian, so a_k = Q^k in the sum_k ((-t)^k/k!) a_k convention.
    m, d = 2, 2
    Q0 = np.array([[0.5, 0.3], [0.3, -0.2]])
    cap = 6
    geom = tc.build_model_geometry("flat", m, cutoff=cap)
    pot = tc.PotentialJet.constant(m, d, Q0, cutoff=cap)
    jet = hmds.build_operator_jet(geom, pot, cap)
    coeffs = hmds.hmds_coefficients(jet, kmax=3, cutoff=0)
    for k in range(4):
        assert np.max(np.abs(coeffs[k].diagonal
                             - np.linalg.matrix_power(Q0, k))) < 1e-12


def degree_gap(jet):
    """|alpha| - |beta| at every entry M[beta, alpha] of `jet_matrix`."""
    deg = jet.basis.degree[:jet.basis.offsets[jet.cutoff + 1]]
    return deg[None, :] - deg[:, None]


def test_operator_jet_band_structure():
    # <m'|L|n> vanishes for n > m' + 2; with flat metric and constant Q only
    # the n = m' (potential) and n = m' + 2 (second derivative) bands survive.
    cap = 4
    geom = tc.build_model_geometry("flat", 2, cutoff=cap)
    pot = tc.PotentialJet.constant(2, 1, [[0.7]], cutoff=cap)
    jet = hmds.build_operator_jet(geom, pot, cap)
    band, M = degree_gap(jet), jet_matrix(jet)
    assert not M[(band != 0) & (band != 2)].any()
    assert M[band == 0].any() and M[band == 2].any()


def test_sphere_band_respects_sparsity():
    cap = 6
    geom = tc.build_model_geometry("sphere", 2, cutoff=cap, radius=1.0)
    pot = tc.PotentialJet.zero(2, cutoff=cap)
    jet = hmds.build_operator_jet(geom, pot, cap)
    assert not jet_matrix(jet)[degree_gap(jet) > 2].any()


# ---------------------------------------------------------------------------
# shifted coefficients
# ---------------------------------------------------------------------------

def b_diag(k, lam, coeffs):
    return hmds.b_lambda(k, lam, coeffs).diagonal


def test_b_lambda_at_zero_shift():
    _, _, _, coeffs = make_fixture("sphere", 2, q=0.3, radius=1.0)
    for k in range(4):
        assert np.allclose(b_diag(k, 0.0, coeffs), coeffs[k].diagonal)


@pytest.mark.parametrize("lam", [0.7, -0.3])
def test_b_lambda_binomial_inversion(lam):
    _, _, _, coeffs = make_fixture("sphere", 2, q=0.3, radius=1.0)
    b = [b_diag(k, lam, coeffs) for k in range(4)]
    for k in range(4):
        back = sum(math.comb(k, n) * lam ** (k - n) * b[n] for n in range(k + 1))
        assert np.max(np.abs(back - coeffs[k].diagonal)) < 1e-12


def test_b_lambda_equals_shifted_potential():
    # b_k(lambda) for potential q must equal a_k recomputed with q - lambda,
    # on the full jet and not only on the diagonal
    q, lam = 0.4, 0.25
    _, _, _, coeffs = make_fixture("sphere", 2, q=q, radius=1.0)
    _, _, _, shifted = make_fixture("sphere", 2, q=q - lam, radius=1.0)
    for k in range(4):
        b = hmds.b_lambda(k, lam, coeffs)
        assert b.cutoff == shifted[k].cutoff
        assert np.max(np.abs(b.coeffs - shifted[k].coeffs)) < 1e-12
        got, ref = b.series, shifted[k].series
        worst = max(np.max(np.abs(got.component(n).entries - ref.component(n).entries))
                    for n in range(b.cutoff + 1))
        assert worst < 1e-12


def test_b_lambda_requires_all_lower_orders():
    _, _, _, coeffs = make_fixture("sphere", 2, kmax=2, radius=1.0)
    with pytest.raises(ValidationError):
        hmds.b_lambda(3, 0.1, coeffs)


# ---------------------------------------------------------------------------
# capacity and container validation
# ---------------------------------------------------------------------------

def test_capacity_check():
    geom = tc.build_model_geometry("sphere", 2, cutoff=4, radius=1.0)
    pot = tc.PotentialJet.zero(2, cutoff=4)
    jet = hmds.build_operator_jet(geom, pot, 4)
    with pytest.raises(ValidationError):
        hmds.hmds_coefficients(jet, kmax=3, cutoff=2)   # needs capacity 8 > 4


def test_expansion_exponent_ordering():
    with pytest.raises(ValidationError):
        hmds.HeatTraceExpansion(m=2, terms=((0.0, 1.0), (-1.0, 2.0)))
    exp = hmds.HeatTraceExpansion(m=2, terms=((-1.0, 2.0), (0.0, 1.0)))
    with pytest.raises(ValidationError):
        exp.evaluate(0.0)


def test_expansion_overflow_is_numeric_error():
    exp = hmds.HeatTraceExpansion(m=2, terms=((-1.0, 1.0), (2.0, 0.5)))
    assert exp.evaluate(1e100) == pytest.approx(0.5e200)
    with pytest.raises(NumericError, match="overflows at t=1e\\+300"):
        exp.evaluate(1e300)


# ---------------------------------------------------------------------------
# operator jet against an exact symbolic expansion
# ---------------------------------------------------------------------------

def symbolic_operator_jet(m, cutoff, radius, q, field):
    """M[beta, alpha], the y^beta coefficient of L y^alpha for |alpha|, |beta| <=
    cutoff in the dense basis order, from exact sympy polynomial arithmetic.

    The metric is the closed form g = f(w) delta + (1 - f(w))/w y y^T with
    f = sin^2(sqrt(w)/a)/(w/a^2) (flat when radius is None), expanded from
    sympy's series of sin^2(x)/x^2; det g and g^{-1} come from the generic
    determinant and adjugate.  With A_mu = -1/2 R_{mu alpha} y^alpha,
        F = -g^{-1/2} (d + A)_mu g^{1/2} g^{mu nu} (d + A)_nu + Q,
        L = g^{1/4} F g^{-1/4}      (g = det g),
    is applied to each y^alpha and truncated at total degree cutoff + 2.
    q is Q as a polynomial in y0, y1, ...
    """
    sp = pytest.importorskip("sympy")
    ys = sp.symbols(f"y0:{m}")
    top = cutoff + 2

    def poly(expr):
        return sp.Poly(expr, *ys, domain=sp.QQ_I)

    def trunc(p):
        return sp.Poly.from_dict({k: v for k, v in p.as_dict().items() if sum(k) <= top}
                                 or {(0,) * m: 0}, *ys, domain=sp.QQ_I)

    def power(p, s):
        # (1 + u)^s = sum_j binom(s, j) u^j with u = O(y^2)
        u, acc, term = p - 1, poly(0), poly(1)
        for j in range(top // 2 + 1):
            acc += term * sp.binomial(s, j)
            term = trunc(term * u)
        return trunc(acc)

    w = sum(y ** 2 for y in ys)
    if radius is None:
        f, h = poly(1), poly(0)
    else:
        x = sp.Symbol("x")
        a2 = sp.Rational(radius) ** 2
        prof = sp.sin(x) ** 2 / x ** 2
        fs = sp.series(prof, x, 0, top + 2).removeO()
        hs = sp.series((1 - prof) / x ** 2, x, 0, top + 2).removeO()
        f = trunc(poly(sp.expand(fs.subs(x, sp.sqrt(w / a2)))))
        h = trunc(poly(sp.expand(hs.subs(x, sp.sqrt(w / a2)) / a2)))
    g = sp.Matrix(m, m, lambda i, j: (f * int(i == j) + h * poly(ys[i] * ys[j])).as_expr())
    det = trunc(poly(sp.expand(g.det(method="berkowitz"))))
    adj = g.adjugate(method="berkowitz")
    det_inv = power(det, -1)
    ginv = [[trunc(poly(sp.expand(adj[i, j])) * det_inv) for j in range(m)] for i in range(m)]
    g_half, g_mhalf = power(det, sp.Rational(1, 2)), power(det, sp.Rational(-1, 2))
    g_quarter, g_mquarter = power(det, sp.Rational(1, 4)), power(det, sp.Rational(-1, 4))

    R = [[0] * m for _ in range(m)]
    if field is not None:
        R[0][1], R[1][0] = sp.I * sp.Rational(field), -sp.I * sp.Rational(field)
    A = [poly(sum(-sp.Rational(1, 2) * R[mu][al] * ys[al] for al in range(m)))
         for mu in range(m)]

    Q = poly(sp.sympify(q, locals={str(y): y for y in ys}))

    def cov(mu, p):
        return trunc(p.diff(ys[mu]) + A[mu] * p)

    def apply_L(phi):
        inner = trunc(g_mquarter * phi)
        flux = poly(0)
        for mu in range(m):
            s = poly(0)
            for nu in range(m):
                s += trunc(ginv[mu][nu] * cov(nu, inner))
            flux += cov(mu, trunc(g_half * s))
        return trunc(g_quarter * trunc(-g_mhalf * flux + Q * inner))

    monomials = [tc.exponents(U, m) for n in range(cutoff + 1) for U in tc.multi_indices(m, n)]
    M = np.zeros((len(monomials), len(monomials)), dtype=complex)
    for i, alpha in enumerate(monomials):
        image = apply_L(poly(sp.Mul(*[y ** e for y, e in zip(ys, alpha)]))).as_dict()
        M[:, i] = [complex(image.get(beta, 0)) for beta in monomials]
    return M


def polynomial_potential(m, cutoff, q, curvature=None):
    """PotentialJet of a scalar polynomial Q: its y^alpha coefficients on the basis."""
    sp = pytest.importorskip("sympy")
    ys = sp.symbols(f"y0:{m}")
    coeffs = sp.Poly(sp.sympify(q, locals={str(y): y for y in ys}), *ys).as_dict()
    Q = [float(coeffs.get(tc.exponents(L, m), 0)) for n in range(cutoff + 1)
         for L in tc.multi_indices(m, n)]
    if curvature is None:
        curvature = np.zeros((m, m, 1, 1), dtype=complex)
    return tc.PotentialJet(m, 1, cutoff, np.reshape(Q, (-1, 1, 1)), curvature)


@pytest.mark.parametrize("m,cutoff,radius,q,field", [
    (2, 4, "1.3", "1/5", None),                       # round S^2
    (2, 4, None, "3/10", "0.8"),                      # flat R^2 with curvature i B eps
    (2, 4, None, "3/10 + y0/5 - y0*y1/10 + y1**3/7", "0.8"),   # and a polynomial Q
    (3, 3, "1.3", "1/5 + y2/3 - y0*y1/4", None),      # S^3: degree-3 columns
])
def test_operator_jet_matches_symbolic_expansion(m, cutoff, radius, q, field):
    kind, geo = ("flat", dict(volume=1.0)) if radius is None else \
        ("sphere", dict(radius=float(radius)))
    geom = tc.build_model_geometry(kind, m, cutoff=cutoff, **geo)
    curv = None
    if field is not None:
        curv = np.zeros((m, m, 1, 1), dtype=complex)
        curv[0, 1] = 1j * float(field)
        curv[1, 0] = -1j * float(field)
    pot = polynomial_potential(m, cutoff, q, curvature=curv)
    jet = hmds.build_operator_jet(geom, pot, cutoff)
    want = symbolic_operator_jet(m, cutoff, radius, q, field)
    got = jet_matrix(jet)
    assert got.shape == want.shape + (1, 1)
    got = got[:, :, 0, 0]
    offsets = hmds._basis(m, cutoff + 2).offsets
    # entry by entry, relative to its block of degrees (|beta|, |alpha|), or to
    # the whole matrix for a block that is exactly 0
    for mp in range(cutoff + 1):
        rows = slice(offsets[mp], offsets[mp + 1])
        for n in range(cutoff + 1):
            cols = slice(offsets[n], offsets[n + 1])
            exact = want[rows, cols]
            scale = float(np.max(np.abs(exact))) or float(np.max(np.abs(want)))
            assert np.max(np.abs(got[rows, cols] - exact)) <= 1e-12 * scale, (mp, n)


# ---------------------------------------------------------------------------
# exact towers and the table contract
# ---------------------------------------------------------------------------

def test_unit_s3_diagonal_is_shifted_power():
    # on the unit S^3 the kernel is (4 pi t)^{-3/2} (r / sin r) e^{-r^2/4t} e^{t(1-q)},
    # so a_k^diag = (q - 1)^k
    q = 0.3
    _, _, _, coeffs = make_fixture("sphere", 3, q=q, kmax=4, cutoff=0, radius=1.0)
    for k, c in enumerate(coeffs):
        assert abs(c.diagonal[0, 0] - (q - 1.0) ** k) < 1e-12


def test_flat_m3_matrix_potential_tower_is_exact():
    # flat space, constant non-commuting Q: a_k = Q^k with no y-dependence at all
    m, d, kmax, cutoff = 3, 2, 3, 2
    Q0 = np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.2]])
    cap = cutoff + 2 * kmax
    geom = tc.build_model_geometry("flat", m, cutoff=cap)
    pot = tc.PotentialJet.constant(m, d, Q0, cutoff=cap)
    coeffs = hmds.hmds_coefficients(hmds.build_operator_jet(geom, pot, cap), kmax, cutoff)
    for k, c in enumerate(coeffs):
        assert np.max(np.abs(c.diagonal - np.linalg.matrix_power(Q0, k))) < 1e-12
        for n in range(1, c.series.cutoff + 1):
            assert not np.any(c.series.component(n).entries)


def test_flat_matrix_potential_second_coefficient():
    # flat m = 2, Q = Q0 + Q1 y0 + Q2 y0 y1 + Q3 y1^2 with non-commuting blocks:
    # a_1^diag = Q0 and a_2^diag = Q0^2 - Delta Q / 3 = Q0^2 - (2/3) Q3
    m, d, kmax = 2, 2, 2
    Q0 = np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.2]])
    Q1 = np.array([[0.1, 0.7j], [-0.7j, 0.4]])
    Q2 = np.array([[-0.3, 0.2], [0.2, 0.6]])
    Q3 = np.array([[0.0, 1 - 1j], [1 + 1j, 0.2]])
    cap = 2 * kmax
    B = hmds._basis(m, cap)
    Q = np.zeros((B.N, d, d), dtype=complex)
    for e, block in [((0, 0), Q0), ((1, 0), Q1), ((1, 1), Q2), ((0, 2), Q3)]:
        Q[B.expo.tolist().index(list(e))] = block
    pot = tc.PotentialJet(m, d, cap, Q, np.zeros((m, m, d, d)))
    geom = tc.build_model_geometry("flat", m, cutoff=cap)
    coeffs = hmds.hmds_coefficients(hmds.build_operator_jet(geom, pot, cap), kmax, 0)
    assert np.max(np.abs(coeffs[1].diagonal - Q0)) < 1e-13
    assert np.max(np.abs(coeffs[2].diagonal - (Q0 @ Q0 - 2.0 / 3.0 * Q3))) < 1e-13


@pytest.mark.parametrize("kind,m,d,cutoff,geo", [
    ("sphere", 3, 1, 4, dict(radius=1.2)),
    ("flat", 2, 2, 3, dict(volume=1.0)),
    ("flat", 2, 2, 3, dict(volume=1.0, field=0.7)),
])
def test_operator_jet_table_contract(kind, m, d, cutoff, geo):
    # the jet applies L to (..., N_B, d, d) arrays over the monomials of degree
    # <= cutoff + 2; L P is real unless a connection is present
    geo = dict(geo)
    field = geo.pop("field", None)
    curv = None
    if field is not None:
        curv = np.zeros((m, m, d, d), dtype=complex)
        curv[0, 1] = 1j * field * np.eye(d)
        curv[1, 0] = -curv[0, 1]
    geom = tc.build_model_geometry(kind, m, cutoff=cutoff, **geo)
    pot = tc.PotentialJet.constant(m, d, 0.4 * np.eye(d), curvature=curv, cutoff=cutoff)
    jet = hmds.build_operator_jet(geom, pot, cutoff)
    N = sum(len(tc.multi_indices(m, n)) for n in range(cutoff + 3))
    assert (jet.m, jet.d, jet.cutoff, jet.basis.N) == (m, d, cutoff, N)
    P = np.ones((3, N, d, d))
    LP = jet.apply(P)
    assert LP.shape == P.shape
    assert LP.dtype == (float if field is None else complex)
    with pytest.raises(ValidationError, match="operator jet acts on"):
        jet.apply(P[:, 1:])


TOWERS = [
    ("sphere", 2, 1, 4, dict(radius=1.0)),
    ("sphere", 3, 1, 4, dict(radius=1.4)),
    ("sphere", 4, 1, 4, dict(radius=0.9)),
    ("torus", 2, 1, 4, dict(periods=(2 * math.pi, 4.0))),
    ("flat", 2, 2, 3, dict(volume=1.0, field=0.7)),
]


def field_jet(kind, m, d, cap, field=None, **geo):
    """The operator jet of fixed test data, with a constant field i B eps_{01}
    (times the identity block) when `field` is given."""
    curv = None
    if field is not None:
        curv = np.zeros((m, m, d, d), dtype=complex)
        curv[0, 1] = 1j * field * np.eye(d)
        curv[1, 0] = -curv[0, 1]
    Q0 = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.4]])[:d, :d]
    geom = tc.build_model_geometry(kind, m, cutoff=cap, **geo)
    pot = tc.PotentialJet.constant(m, d, Q0, curvature=curv, cutoff=cap)
    return hmds.build_operator_jet(geom, pot, cap)


@pytest.mark.parametrize("kind,m,d,kmax,geo", TOWERS)
def test_recursion_is_the_matrix_product(kind, m, d, kmax, geo):
    # a_k = k/(k + |beta|) M a_{k-1}, with M assembled column by column, to
    # rounding on every stored coefficient
    jet = field_jet(kind, m, d, 2 * kmax, **geo)
    coeffs = hmds.hmds_coefficients(jet, kmax, 0)
    M, degree = jet_matrix(jet), jet.basis.degree
    for prev, cur in zip(coeffs, coeffs[1:]):
        a, b = prev.coeffs, cur.coeffs
        want = (cur.order / (cur.order + degree[:len(b)]))[:, None, None] \
            * np.matmul(M[:len(b), :len(a)], a[None]).sum(axis=1)
        assert np.max(np.abs(b - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,m,d,geo", [
    ("sphere", 3, 1, dict(radius=1.2)),
    ("flat", 2, 2, dict(volume=1.0, field=0.7)),
])
def test_apply_on_a_prefix_is_apply_on_the_padded_array(kind, m, d, geo):
    # P over the degree-c prefix gives, bit for bit through degree c - 2, what
    # the whole basis gives on P padded with zeros
    jet = field_jet(kind, m, d, 4, **geo)
    B = jet.basis
    rng = np.random.default_rng(3)
    full = rng.standard_normal((2, B.N, d, d)) + 1j * rng.standard_normal((2, B.N, d, d))
    for c in range(B.deg + 1):
        n = B.offsets[c + 1]
        padded = np.zeros_like(full)
        padded[:, :n] = full[:, :n]
        got, want = jet.apply(full[:, :n]), jet.apply(padded)
        assert got.shape == (2, n, d, d)
        keep = B.offsets[c - 1] if c >= 1 else 0
        assert np.array_equal(got[:, :keep], want[:, :keep]), c
        for bad in (n - 1, n + 1):
            if bad not in B.offsets[1:] and bad > 0:
                with pytest.raises(ValidationError, match="operator jet acts on"):
                    jet.apply(np.zeros((2, bad, d, d)))
    with pytest.raises(ValidationError, match="operator jet acts on"):
        jet.apply(np.zeros((2, B.N, d, d + 1)))


def padded_recursion(jet, kmax, cutoff):
    """a_0..a_kmax with every a_{k-1} zero-padded to the whole basis before L."""
    B, d = jet.basis, jet.d
    cut = cutoff + 2 * kmax
    a = np.zeros((B.offsets[cut + 1], d, d), dtype=jet.Q.dtype)
    a[0] = np.eye(d)
    out = [a]
    for k in range(1, kmax + 1):
        cut -= 2
        nr = B.offsets[cut + 1]
        padded = np.zeros((B.N, d, d), dtype=a.dtype)
        padded[:len(a)] = a
        a = (k / (k + B.degree[:nr]))[:, None, None] * jet.apply(padded)[:nr]
        out.append(a)
    return out


@pytest.mark.parametrize("kind,m,d,kmax,geo", TOWERS)
def test_recursion_on_prefixes_is_the_padded_recursion(kind, m, d, kmax, geo):
    # running each order on its own prefix changes no bit of any coefficient
    jet = field_jet(kind, m, d, 2 * kmax, **geo)
    got = hmds.hmds_coefficients(jet, kmax, 0)
    want = padded_recursion(jet, kmax, 0)
    for a, b in zip(got, want, strict=True):
        assert a.coeffs.dtype == b.dtype and np.array_equal(a.coeffs, b)


def test_overflowing_potential_is_one_numeric_error():
    # a_2 = Q^2 leaves the float range: the recursion reports that once, as a
    # NumericError, and numpy warns nothing
    geom = tc.build_model_geometry("flat", 2, cutoff=4)
    pot = tc.PotentialJet.constant(2, 1, [[1e300]], cutoff=4)
    jet = hmds.build_operator_jet(geom, pot, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="a_2 is not finite"):
            hmds.hmds_coefficients(jet, kmax=2, cutoff=0)
