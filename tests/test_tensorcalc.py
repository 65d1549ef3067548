"""Symmetric-tensor algebra and model-geometry jets against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern import hmds
from heatkern import tensorcalc as tc
from heatkern.errors import ValidationError


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(1, 0), (1, 4), (2, 3), (3, 2), (4, 5)])
def test_multi_index_count(m, n):
    assert len(tc.multi_indices(m, n)) == math.comb(m + n - 1, n)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4)])
def test_multiplicities_partition_ordered_tuples(m, n):
    # sum of orderings over canonical classes must exhaust all m^n tuples
    assert sum(tc.multiplicity(K) for K in tc.multi_indices(m, n)) == m ** n


@given(st.lists(st.integers(0, 3), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_multiplicity_counts_distinct_orderings(idx):
    idx = tuple(idx)
    assert tc.multiplicity(idx) == len(set(itertools.permutations(idx)))
    assert tc.canonical(idx) == tuple(sorted(idx))


@given(st.lists(st.integers(0, 2), min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_exponents_round_trip(idx):
    m = 3
    e = tc.exponents(tuple(idx), m)
    assert sum(e) == len(idx)
    rebuilt = tuple(sorted(sum(([i] * k for i, k in enumerate(e)), [])))
    assert rebuilt == tc.canonical(tuple(idx))


# ---------------------------------------------------------------------------
# sym_product against explicit slot-split symmetrization
# ---------------------------------------------------------------------------

def random_sym(rng, m, p, q, d=1):
    nu = len(tc.multi_indices(m, p))
    nl = len(tc.multi_indices(m, q))
    e = rng.standard_normal((nu, nl, d, d)) + 1j * rng.standard_normal((nu, nl, d, d))
    return tc.SymTensor(m, p, q, d, e)


def vee_oracle(A, B, upper, lower):
    """Average of A[sub]B[rest] over all slot subsets, per index group."""
    acc = np.zeros((A.d, A.d), dtype=complex)
    u_subsets = list(itertools.combinations(range(len(upper)), A.p))
    l_subsets = list(itertools.combinations(range(len(lower)), A.q))
    for us in u_subsets:
        au = tuple(upper[i] for i in us)
        bu = tuple(upper[i] for i in range(len(upper)) if i not in us)
        for ls in l_subsets:
            al = tuple(lower[i] for i in ls)
            bl = tuple(lower[i] for i in range(len(lower)) if i not in ls)
            acc += A.get(au, al) @ B.get(bu, bl)
    return acc / (len(u_subsets) * len(l_subsets))


@pytest.mark.parametrize("m,pA,qA,pB,qB,d", [
    (2, 0, 2, 0, 3, 1),
    (2, 1, 1, 1, 0, 1),
    (3, 0, 2, 0, 2, 1),
    (2, 0, 1, 0, 2, 2),   # non-commuting fiber blocks: order must be A @ B
])
def test_sym_product_matches_subset_average(m, pA, qA, pB, qB, d):
    rng = np.random.default_rng(7041)
    A = random_sym(rng, m, pA, qA, d)
    B = random_sym(rng, m, pB, qB, d)
    R = tc.sym_product(A, B)
    for upper in tc.multi_indices(m, pA + pB):
        for lower in tc.multi_indices(m, qA + qB):
            want = vee_oracle(A, B, upper, lower)
            assert np.max(np.abs(R.get(upper, lower) - want)) < 1e-13


def test_sym_product_rejects_mismatch():
    A = tc.SymTensor.zeros(2, 0, 1)
    B = tc.SymTensor.zeros(3, 0, 1)
    with pytest.raises(ValidationError):
        tc.sym_product(A, B)


# ---------------------------------------------------------------------------
# inner_product against a full ordered-tuple loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,qA,pB,d", [(2, 2, 1, 1, 1), (2, 3, 0, 0, 2), (3, 2, 2, 1, 1)])
def test_inner_product_matches_ordered_loop(m, n, qA, pB, d):
    rng = np.random.default_rng(2024)
    A = random_sym(rng, m, n, qA, d)      # (n over qA)
    B = random_sym(rng, m, pB, n, d)      # (pB over n)
    R = tc.inner_product(A, B)
    assert (R.p, R.q) == (pB, qA)
    for U in tc.multi_indices(m, pB):
        for L in tc.multi_indices(m, qA):
            want = np.zeros((d, d), dtype=complex)
            for K in itertools.product(range(m), repeat=n):
                want += A.get(K, L) @ B.get(U, K)
            assert np.max(np.abs(R.get(U, L) - want)) < 1e-12


def test_inner_product_order_mismatch():
    A = tc.SymTensor.zeros(2, 2, 0)
    B = tc.SymTensor.zeros(2, 0, 1)
    with pytest.raises(ValidationError):
        tc.inner_product(A, B)


@pytest.mark.parametrize("n", range(7))
def test_identity_pairing_is_neutral(n):
    # <n|n> must act as the identity on anything with n covariant slots
    rng = np.random.default_rng(55 + n)
    m, d = 2, 2
    I = tc.identity_pairing(m, n, d)
    B = random_sym(rng, m, 1, n, d)
    assert tc.inner_product(I, B).allclose(B, tol=1e-12)


@pytest.mark.parametrize("n,np_", [(n, np_) for n in range(5) for np_ in range(5)])
def test_basis_pairing_orthonormal(n, np_):
    # |n'> is y^alpha / n'! per canonical index and <n| pairs a polynomial as
    # beta! times its y^beta coefficient; the operator jet folds both factors
    # into beta! / n'! on the dense monomial basis
    B = hmds._basis(2, 6)
    monomials = np.eye(B.N)[B.offsets[np_]:B.offsets[np_ + 1]]
    lows = slice(B.offsets[n], B.offsets[n + 1])
    pairing = monomials[:, lows] * (B.fact[lows] / math.factorial(np_))
    if n == np_:
        assert np.array_equal(pairing, tc.identity_pairing(2, n, 1).entries[:, :, 0, 0])
    else:
        assert not pairing.any()


# ---------------------------------------------------------------------------
# geometry jets against the embedded exponential map
# ---------------------------------------------------------------------------

def series_scalar_value(jets, y):
    """Evaluate sum_n (1/n!) <n|f> y^{vee n} for scalar (p=0) jets."""
    val = 0.0
    for n, comp in enumerate(jets):
        for li, K in enumerate(comp.lower_indices):
            mono = 1.0
            for k in K:
                mono *= y[k]
            val += (tc.multiplicity(K) * mono / math.factorial(n)
                    * comp.entries[0, li, 0, 0].real)
    return val


def metric_series_value(geom, y):
    m = geom.m
    g = np.zeros((m, m))
    for n, comp in enumerate(geom.metric_jets):
        for li, K in enumerate(comp.lower_indices):
            mono = tc.multiplicity(K) / math.factorial(n)
            for k in K:
                mono *= y[k]
            for ui, (i, j) in enumerate(comp.upper_indices):
                v = comp.entries[ui, li, 0, 0].real * mono
                g[i, j] += v
                if i != j:
                    g[j, i] += v
    return g


def embedded_sphere_metric(radius, y):
    """Pullback metric of the round sphere at exp_p(y), by numerical differentials.

    Normal coordinates at a pole: exp_p(y) = a (sin(|y|/a) yhat, cos(|y|/a)).
    Independent of the series construction; only the exponential map is used.
    """
    m = len(y)

    def phi(z):
        r = np.linalg.norm(z)
        if r == 0:
            return np.concatenate([np.zeros(m), [radius]])
        return np.concatenate([radius * math.sin(r / radius) * z / r,
                               [radius * math.cos(r / radius)]])

    h = 1e-5
    J = np.zeros((m + 1, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        J[:, i] = (phi(y + e) - phi(y - e)) / (2 * h)
    return J.T @ J


@pytest.mark.parametrize("m,radius,seed", [(2, 1.0, 11), (2, 1.7, 12), (3, 1.0, 13)])
def test_sphere_metric_jets_match_embedding(m, radius, seed):
    geom = tc.build_model_geometry("sphere", m, cutoff=6, radius=radius)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        y = rng.standard_normal(m)
        y *= 0.3 * radius / np.linalg.norm(y)
        want = embedded_sphere_metric(radius, y)
        got = metric_series_value(geom, y)
        assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("m,radius", [(2, 1.0), (3, 1.3)])
def test_vanvleck_jets_match_det_quarter_root(m, radius):
    geom = tc.build_model_geometry("sphere", m, cutoff=6, radius=radius)
    rng = np.random.default_rng(31)
    for _ in range(4):
        y = rng.standard_normal(m)
        y *= 0.25 * radius / np.linalg.norm(y)
        g = embedded_sphere_metric(radius, y)
        want = np.linalg.det(g) ** -0.25
        got = series_scalar_value(geom.vanvleck_jets, y)
        assert abs(got - want) < 1e-8


def test_flat_jets_are_constant():
    geom = tc.build_model_geometry("flat", 3, cutoff=4, volume=2.5)
    assert geom.metric_jets[0].get((0, 0), ())[0, 0].real == 1.0
    for n in range(1, 5):
        assert geom.metric_jets[n].max_abs() == 0.0
        assert geom.vanvleck_jets[n].max_abs() == 0.0
    assert geom.scalar_curvature == 0.0
    assert geom.volume == 2.5


def test_sphere_jets_have_even_parity():
    geom = tc.build_model_geometry("sphere", 2, cutoff=6, radius=1.0)
    for n in range(7):
        if n % 2 == 1:
            assert geom.metric_jets[n].max_abs() == 0.0
            assert geom.vanvleck_jets[n].max_abs() == 0.0


def test_sphere_curvature_tensors():
    a = 2.0
    m = 3
    geom = tc.build_model_geometry("sphere", m, cutoff=2, radius=a)
    kappa = 1 / a ** 2
    assert abs(geom.scalar_curvature - kappa * m * (m - 1)) < 1e-14
    assert np.allclose(geom.ricci, kappa * (m - 1) * np.eye(m))
    # constant-curvature form kappa (delta delta - delta delta)
    for mu, al, nu, be in itertools.product(range(m), repeat=4):
        want = kappa * ((mu == nu) * (al == be) - (mu == be) * (al == nu))
        assert abs(geom.riemann[mu, al, nu, be] - want) < 1e-14


@pytest.mark.parametrize("m,radius,want", [
    (1, 1.0, 2 * math.pi),
    (2, 1.0, 4 * math.pi),
    (2, 3.0, 36 * math.pi),
    (3, 1.0, 2 * math.pi ** 2),
])
def test_sphere_volume(m, radius, want):
    assert abs(tc.sphere_volume(m, radius) - want) < 1e-12 * want


def test_geometry_validation():
    with pytest.raises(ValidationError):
        tc.build_model_geometry("hyperbolic", 2)
    with pytest.raises(ValidationError):
        tc.build_model_geometry("sphere", 2)               # radius missing
    with pytest.raises(ValidationError):
        tc.build_model_geometry("sphere", 2, cutoff=9, radius=1.0)
    with pytest.raises(ValidationError):
        tc.build_model_geometry("torus", 2, periods=(1.0,))
    with pytest.raises(ValidationError):
        tc.build_model_geometry("torus", 2, periods=(1.0, -2.0))
    with pytest.raises(ValidationError):
        tc.build_model_geometry("flat", 2, volume=-1.0)
    with pytest.raises(ValidationError):
        tc.build_model_geometry("flat", 0)


@pytest.mark.parametrize("m,radius", [(2, 1e-200), (3, 1e-160), (2, 1e-100), (2, 1e200),
                                      (3, 1e150)])
def test_sphere_radius_out_of_float_range_rejected(m, radius):
    # a^{-2k} or a^m leaves the float range: a ValidationError, never a
    # ZeroDivisionError or OverflowError
    with pytest.raises(ValidationError, match="non-finite"):
        tc.build_model_geometry("sphere", m, cutoff=4, radius=radius)
    if radius < 1:
        with pytest.raises(ValidationError, match="non-finite curvature series"):
            tc._sphere_profile(radius, 3)


def test_torus_volume_is_period_product():
    geom = tc.build_model_geometry("torus", 2, cutoff=2, periods=(2 * math.pi, 3.0))
    assert abs(geom.volume - 6 * math.pi) < 1e-12


# ---------------------------------------------------------------------------
# potential jets
# ---------------------------------------------------------------------------

def test_potential_constant_and_zero():
    Q = tc.PotentialJet.constant(2, 2, [[1.0, 0.5], [0.5, -1.0]], cutoff=4)
    assert Q.cutoff == 4
    assert np.allclose(Q.Q_jets[0].entries[0, 0], [[1.0, 0.5], [0.5, -1.0]])
    for n in range(1, 5):
        assert Q.Q_jets[n].max_abs() == 0.0
    Z = tc.PotentialJet.zero(3, cutoff=2)
    assert Z.d == 1 and Z.Q_jets[0].max_abs() == 0.0


def test_potential_rejects_non_hermitian_base():
    with pytest.raises(ValidationError):
        tc.PotentialJet.constant(2, 2, [[0.0, 1.0], [0.0, 0.0]], cutoff=2)


def test_potential_curvature_constraints():
    m, d = 2, 2
    sym = np.zeros((m, m, d, d), dtype=complex)
    sym[0, 1] = sym[1, 0] = 1j * np.eye(d)   # not antisymmetric in the base pair
    with pytest.raises(ValidationError):
        tc.PotentialJet.constant(m, d, np.zeros((d, d)), curvature=sym, cutoff=2)
    herm = np.zeros((m, m, d, d), dtype=complex)
    herm[0, 1] = np.eye(d)                   # real symmetric fiber block: not anti-Hermitian
    herm[1, 0] = -np.eye(d)
    with pytest.raises(ValidationError):
        tc.PotentialJet.constant(m, d, np.zeros((d, d)), curvature=herm, cutoff=2)
    ok = np.zeros((m, m, d, d), dtype=complex)
    ok[0, 1] = 0.3j * np.diag([1.0, -1.0])
    ok[1, 0] = -ok[0, 1]
    tc.PotentialJet.constant(m, d, np.zeros((d, d)), curvature=ok, cutoff=2)


def test_symtensor_shape_validation():
    with pytest.raises(ValidationError):
        tc.SymTensor(2, 0, 1, 1, np.zeros((1, 3, 1, 1)))
    with pytest.raises(ValidationError):
        tc.SymTensor(2, 0, 0, 1, np.array([[[[np.nan]]]]))
