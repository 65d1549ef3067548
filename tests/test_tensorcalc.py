"""The dense monomial basis against the tuple builder it replaced, and its
products and the model-geometry polynomials against brute-force oracles."""

import itertools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern import hmds
from heatkern import tensorcalc as tc
from heatkern.errors import ResourceError, ValidationError


# ---------------------------------------------------------------------------
# the monomial basis against the tuple builder it replaced
# ---------------------------------------------------------------------------

def reference_monomials(m, n):
    """Exponent tuples of the monomials of degree n, in the order of their
    nondecreasing multi-indices."""
    rows = []
    for idx in itertools.combinations_with_replacement(range(m), n):
        e = [0] * m
        for i in idx:
            e[i] += 1
        rows.append(tuple(e))
    return rows


def reference_basis(m, deg):
    """The basis tables built from exponent tuples and a position dict, each
    entry from its definition, and `fact` as exact integers."""
    blocks = [reference_monomials(m, n) for n in range(deg + 1)]
    rows = [r for block in blocks for r in block]
    N = len(rows)
    position = {r: i for i, r in enumerate(rows)}
    expo = np.array(rows, dtype=np.int64).reshape(N, m)

    def shifted(by):
        # alpha -> alpha + by e_mu, N outside the basis, and column N to N
        table = np.full((m, N + 1), N)
        for mu in range(m):
            for k, r in enumerate(rows):
                table[mu, k] = position.get(r[:mu] + (r[mu] + by,) + r[mu + 1:], N)
        return table

    quot = np.full((N, N), N, dtype=np.min_scalar_type(N))
    for j in range(N):
        q = expo - expo[j]                  # y^{alpha_k} / y^{alpha_j}, where it divides
        ok = np.flatnonzero((q >= 0).all(axis=1))
        quot[j, ok] = [position[tuple(e)] for e in q[ok].tolist()]
    return {"expo": expo, "degree": expo.sum(axis=1),
            "offsets": np.cumsum([0] + [len(block) for block in blocks]),
            "down": shifted(-1), "up": shifted(1), "square": shifted(-2)[:, :N], "quot": quot,
            "fact": [math.prod(map(math.factorial, r)) for r in rows]}


def degree_prefix(ref, c):
    """The reference tables of degree c, cut from those of a higher degree: the
    first n = offsets[c + 1] monomials, with each position past them read as n."""
    n = ref["offsets"][c + 1]
    out = {"expo": ref["expo"][:n], "degree": ref["degree"][:n], "fact": ref["fact"][:n],
           "offsets": ref["offsets"][:c + 2], "square": np.minimum(ref["square"][:, :n], n),
           "quot": np.minimum(ref["quot"][:n, :n], n).astype(np.min_scalar_type(n))}
    for name in ("down", "up"):
        out[name] = np.pad(np.minimum(ref[name][:, :n], n), ((0, 0), (0, 1)), constant_values=n)
    return out


@pytest.mark.parametrize("m,top", [(1, 1000), (2, 43), (3, 16), (4, 10), (10, 4), (20, 2),
                                   (43, 2)])
def test_basis_tables_are_the_tuple_builders(m, top):
    # every table but fact byte for byte, and fact within 1 ulp of the exact
    # alpha! (inf past the float range), at every degree up to the budget; at
    # m = 1 on a sample of degrees, since its 1001 bases take seconds to build
    with pytest.raises(ResourceError):
        tc._basis_size(m, top + 1, "basis")
    ref = reference_basis(m, top)
    degrees = range(top + 1) if m > 1 else [*range(44), 169, 170, 171, 172, 999, 1000]
    for c in degrees:
        B, want = tc._Basis(m, c), degree_prefix(ref, c)
        for name in ("expo", "degree", "offsets", "down", "up", "square", "quot"):
            got = getattr(B, name)
            assert (got.dtype, got.shape) == (want[name].dtype, want[name].shape), (c, name)
            assert got.tobytes() == want[name].tobytes(), (c, name)
        assert B.fact.dtype == float
        for got, exact in zip(B.fact.tolist(), want["fact"], strict=True):
            if exact > sys.float_info.max:
                assert got == math.inf, c
            else:
                assert abs(got - float(exact)) <= math.ulp(float(exact)), c


@pytest.mark.parametrize("m,n", [(1, 0), (1, 4), (2, 3), (3, 2), (4, 5)])
def test_multi_index_count(m, n):
    assert np.diff(tc._basis(m, n).offsets).tolist() == [math.comb(m + k - 1, k)
                                                         for k in range(n + 1)]


def multinomial(expo):
    """Number of distinct orderings of a multi-index with these exponents."""
    return math.factorial(sum(expo)) // math.prod(math.factorial(e) for e in expo)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4)])
def test_multiplicities_partition_ordered_tuples(m, n):
    # orderings summed over the canonical classes must exhaust all m^n tuples
    B = tc._basis(m, n)
    assert sum(multinomial(e) for e in B.expo[B.offsets[n]:].tolist()) == m ** n


@given(st.lists(st.integers(0, 3), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_multiplicity_counts_distinct_orderings(idx):
    # a multi-index's row sits at its sorted tuple's place in its degree block
    B, n = tc._basis(4, 6), len(idx)
    order = list(itertools.combinations_with_replacement(range(4), n))
    row = B.expo[B.offsets[n] + order.index(tuple(sorted(idx)))].tolist()
    assert row == [idx.count(i) for i in range(4)]
    assert multinomial(row) == len(set(itertools.permutations(idx)))


@pytest.mark.parametrize("n,np_", [(n, np_) for n in range(5) for np_ in range(5)])
def test_basis_pairing_orthonormal(n, np_):
    # <n| pairs a polynomial as alpha! times its y^alpha coefficients, |alpha| = n:
    # on a monomial y^beta of order n' it is alpha! delta_{alpha beta}, exactly
    B = hmds._basis(2, 6)
    lows = slice(B.offsets[n], B.offsets[n + 1])
    for i in range(B.offsets[np_], B.offsets[np_ + 1]):
        coeffs = np.zeros((B.offsets[5], 1, 1))
        coeffs[i] = 1.0
        series = hmds.HmdsCoefficient(0, 4, coeffs, B).series
        want = np.zeros(B.N)
        want[i] = B.fact[i]
        assert np.array_equal(series.component(n).entries[0, :, 0, 0], want[lows])


@pytest.mark.parametrize("m,deg,d,scalar", [(2, 5, 2, False), (3, 4, 1, True), (2, 6, 3, True)])
def test_dense_product_matches_brute_force(m, deg, d, scalar):
    # C P truncated at degree deg, with C's fiber block on the left
    B = tc._basis(m, deg)
    rng = np.random.default_rng(17 + m + deg)
    C = rng.standard_normal(B.N) if scalar else rng.standard_normal((B.N, d, d))
    C[rng.random(B.N) < 0.5] = 0.0
    P = rng.standard_normal((B.N, d, d)) + 1j * rng.standard_normal((B.N, d, d))
    position = {tuple(e): i for i, e in enumerate(B.expo.tolist())}
    want = np.zeros_like(P)
    for j, cj in enumerate(C):
        for i, pi in enumerate(P):
            k = position.get(tuple(B.expo[i] + B.expo[j]))
            if k is not None:
                want[k] += cj * pi if scalar else cj @ pi
    assert np.max(np.abs(tc._times(B, C, P) - want)) < 1e-13


def radial_polynomial(B, series):
    """sum_k series[k] |y|^{2k} as a scalar polynomial (N,) on B, by the
    multinomial theorem: |y|^{2k} = sum_{|beta| = k} (k; beta) y^{2 beta}."""
    out = np.zeros(B.N)
    for i, e in enumerate(B.expo.tolist()):
        k = sum(e) // 2
        if all(x % 2 == 0 for x in e) and k < len(series):
            out[i] = series[k] * (math.factorial(k) // math.prod(math.factorial(x // 2) for x in e))
    return out


@pytest.mark.parametrize("shape", ["full", "trailing zeros", "constant", "too long"])
@pytest.mark.parametrize("m,deg,d,cplx", [(1, 6, 1, False), (1, 5, 2, True), (2, 6, 1, True),
                                          (2, 5, 2, False), (3, 6, 1, False), (3, 5, 2, True),
                                          (4, 5, 1, True), (4, 4, 2, False)])
def test_radial_product_matches_dense_product(m, deg, d, cplx, shape):
    # the Horner product in w = |y|^2 against _times by the expanded polynomial,
    # on a (batch, N, d, d) array
    B = tc._basis(m, deg)
    rng = np.random.default_rng(5 * m + deg + d)
    n = {"full": deg // 2 + 1, "trailing zeros": deg // 2 + 1, "constant": 1,
         "too long": deg // 2 + 3}[shape]
    series = rng.uniform(-1.0, 1.0, n)
    if shape == "trailing zeros":
        series[1:] = 0.0
        series[1] = 0.5
    P = rng.standard_normal((3, B.N, d, d))
    if cplx:
        P = P + 1j * rng.standard_normal(P.shape)
    got = tc._radial_times(B, list(series), P)
    assert got.shape == P.shape and got.dtype == P.dtype
    assert np.max(np.abs(got - tc._times(B, radial_polynomial(B, series), P))) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_basis_prefix_is_the_lower_degree_basis(m):
    # the basis is graded: the first N_c rows and columns of every table are
    # those of the basis built for degree c, once each position >= N_c (outside
    # that basis) reads as N_c -- the rule that truncates an array of N_c rows
    fresh = [tc._Basis(m, D) for D in range(11)]     # N = BASIS_BUDGET at m = 4, D = 10
    for B in fresh:
        for small in fresh[:B.deg + 1]:
            c, n = small.deg, small.N
            assert n == B.offsets[c + 1] and np.array_equal(B.offsets[:c + 2], small.offsets)
            cut = {"expo": B.expo[:n], "degree": B.degree[:n], "fact": B.fact[:n],
                   "down": np.minimum(B.down[:, :n], n), "up": np.minimum(B.up[:, :n], n),
                   "square": np.minimum(B.square[:, :n], n), "quot": np.minimum(B.quot[:n, :n], n)}
            for name, got in cut.items():
                want = getattr(small, name)
                want = want[:, :n] if name in ("down", "up") else want
                assert np.array_equal(got, want), (B.deg, c, name)


@pytest.mark.parametrize("m,deg", [(1, 8), (2, 6), (3, 5), (4, 4)])
def test_products_on_a_prefix_are_those_of_the_lower_degree_basis(m, deg):
    # an array of N_c rows, multiplied through the degree-deg tables, is the
    # same product on the degree-c basis, bit for bit
    B = tc._basis(m, deg)
    rng = np.random.default_rng(23 + m)
    series = list(rng.uniform(-1.0, 1.0, deg // 2 + 1))
    scalar = rng.standard_normal(B.N)
    scalar[rng.random(B.N) < 0.5] = 0.0
    matrix = rng.standard_normal((B.N, 2, 2)) + 1j * rng.standard_normal((B.N, 2, 2))
    matrix[rng.random(B.N) < 0.5] = 0.0
    for c in range(deg + 1):
        small, n = tc._basis(m, c), B.offsets[c + 1]
        for C, shape in ((scalar, (3, n, 2, 2)), (matrix, (3, n, 2, 2)), (matrix, (n, 2, 2))):
            P = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for got, want in ((tc._times(B, C, P), tc._times(small, C[:n], P)),
                              (tc._radial_times(B, series, P),
                               tc._radial_times(small, series, P))):
                assert got.shape == P.shape and got.dtype == want.dtype
                assert np.array_equal(got, want), (c, C.ndim, shape)


def test_dense_basis_follows_multi_indices_and_is_built_lazily():
    B = tc._basis(3, 4)
    for n in range(5):
        block = B.expo[B.offsets[n]:B.offsets[n + 1]]
        assert [tuple(e) for e in block.tolist()] == reference_monomials(3, n)
    src = str(Path(tc.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import heatkern.cli; "
            "from heatkern import tensorcalc as tc; print(tc._basis.cache_info().currsize)" % src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# geometry jets against the embedded exponential map
# ---------------------------------------------------------------------------

def metric_series(geom):
    """The jet's det(g)^{-1/4}, det(g)^{1/2} f^{-1} and det(g)^{1/2} h, series in
    w = |y|^2 exact through degree geom.cutoff + 2."""
    return hmds._metric_series(geom, geom.cutoff + 2)


def series_value(series, y):
    """sum_k series[k] |y|^{2k}."""
    w = float(y @ y)
    return sum(c * w ** k for k, c in enumerate(series))


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
    # the inverse metric the operator jet reads, det(g)^{-1/2} (det(g)^{1/2} f^{-1}
    # delta + det(g)^{1/2} h y y), against the inverse of the embedded metric
    geom = tc.build_model_geometry("sphere", m, cutoff=6, radius=radius)
    vanvleck, diag, outer = metric_series(geom)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        y = rng.standard_normal(m)
        y *= 0.3 * radius / np.linalg.norm(y)
        want = np.linalg.inv(embedded_sphere_metric(radius, y))
        got = series_value(vanvleck, y) ** 2 * (series_value(diag, y) * np.eye(m)
                                                + series_value(outer, y) * np.outer(y, y))
        assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("m,radius", [(2, 1.0), (3, 1.3)])
def test_vanvleck_jets_match_det_quarter_root(m, radius):
    # det(g)^{-1/4} = Delta^{1/2}, and det(g)^{1/2} = sqrt(g) g^{mu nu} yhat_mu yhat_nu
    # (g is 1 along y), against powers of the embedded metric's determinant
    geom = tc.build_model_geometry("sphere", m, cutoff=6, radius=radius)
    vanvleck, diag, outer = metric_series(geom)
    rng = np.random.default_rng(31)
    for _ in range(4):
        y = rng.standard_normal(m)
        y *= 0.25 * radius / np.linalg.norm(y)
        det = np.linalg.det(embedded_sphere_metric(radius, y))
        assert abs(series_value(vanvleck, y) - det ** -0.25) < 1e-8
        assert abs(series_value(diag, y) + series_value(outer, y) * (y @ y) - det ** 0.5) < 1e-8


def test_flat_jets_are_constant():
    geom = tc.build_model_geometry("flat", 3, cutoff=4, volume=2.5)
    vanvleck, diag, outer = metric_series(geom)
    assert np.array_equal(vanvleck, np.eye(1, 4)[0])
    assert np.array_equal(diag, np.eye(1, 4)[0])
    assert not np.any(outer)
    assert geom.volume == 2.5


def test_sphere_jets_have_even_parity():
    # every metric factor, g^{mu nu}'s y^mu y^nu term included, is an even
    # polynomial with no coefficient dropped from its series
    geom = tc.build_model_geometry("sphere", 2, cutoff=6, radius=1.0)
    B = hmds._basis(2, geom.cutoff + 2)
    one = np.eye(B.N, 1)[:, :, None]
    series = metric_series(geom)
    polys = [tc._radial_times(B, s, one)[:, 0, 0] for s in series]
    polys.append(tc._pad(tc._radial_times(B, series[2], one))[B.down[0, B.down[1, :B.N]], 0, 0])
    odd = B.degree % 2 == 1
    for s in series:
        assert all(s)
    for P in polys:
        assert not P[odd].any()
        assert P[~odd].any()


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
    with pytest.raises(ResourceError, match="BASIS_BUDGET"):
        tc.build_model_geometry("sphere", 5, cutoff=7, radius=1.0)
    with pytest.raises(ValidationError):
        tc.build_model_geometry("torus", 2, periods=(1.0,))
    with pytest.raises(ValidationError):
        tc.build_model_geometry("torus", 2, periods=(1.0, -2.0))
    for volume in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            tc.build_model_geometry("flat", 2, volume=volume)
    with pytest.raises(ValidationError):
        tc.build_model_geometry("flat", 0)


@pytest.mark.parametrize("m,radius", [(2, 1e-200), (3, 1e-160), (2, 1e-100), (2, 1e200),
                                      (3, 1e150)])
def test_sphere_radius_out_of_float_range_rejected(m, radius):
    # a^{-2k} or a^m leaves the float range: a ValidationError, never a
    # ZeroDivisionError or OverflowError; a radius below 1e-100 fails the length check
    match = "is below 1e-100 or not finite" if radius < 1e-100 else "non-finite"
    with pytest.raises(ValidationError, match=match):
        tc.build_model_geometry("sphere", m, cutoff=4, radius=radius)
    if radius < 1:
        with pytest.raises(ValidationError, match="non-finite curvature series"):
            tc._sphere_profile(radius, 3)


def fraction_profile(radius, nterms):
    """The sphere profile with each rational floated through Fraction, then scaled
    by a^{-2k}; None where a^{2k} or a term leaves the float range."""
    try:
        terms = tuple(float(Fraction((-1) ** k * 2 ** (2 * k + 1), math.factorial(2 * k + 2)))
                      / radius ** (2 * k) for k in range(nterms))
    except (OverflowError, ZeroDivisionError):
        return None
    return terms if all(math.isfinite(c) for c in terms) else None


@pytest.mark.parametrize("radius", [1.0, 1.7, 0.37, 3.3e5, 1e-20, 1e20, 1e-160, 1e160, 5e-324])
def test_sphere_profile_is_the_fraction_profile_bit_for_bit(radius):
    # an integer quotient p / q is correctly rounded, as float(Fraction(p, q)) is
    for nterms in (1, 5, 20, 40):
        want = fraction_profile(radius, nterms)
        if want is None:
            with pytest.raises(ValidationError, match="non-finite curvature series"):
                tc._sphere_profile(radius, nterms)
        else:
            assert [c.hex() for c in tc._sphere_profile(radius, nterms)] == \
                [c.hex() for c in want]


def fraction_weighted_log(a, n):
    """log of the series a, a[0] = 1, through n terms, each weight the Fraction j/k."""
    la = [0] * n
    for k in range(1, n):
        s = a[k]
        for j in range(1, k):
            s -= Fraction(j, k) * la[j] * a[k - j]
        la[k] = s
    return la


@pytest.mark.parametrize("radius", [1.0, 1.7, 0.37])
def test_series_log_of_a_float_series_is_the_fraction_weighted_log(radius):
    # the weight 1.0 * j / k is the correctly rounded j/k that float(Fraction(j, k))
    # is; the Python 0s that pad hmds' profile must neither change a bit nor
    # make a term a Fraction
    noise = [1.0] + np.random.default_rng(7).normal(size=11).tolist()
    heads = (list(tc._sphere_profile(radius, 6)), [1.0])     # a sphere's and a flat profile
    for a, ref in [(noise, noise)] + [(h + [0] * 8, h + [0.0] * 8) for h in heads]:
        got = tc._series_log(a, len(a))
        assert not any(isinstance(c, Fraction) for c in got)
        assert [float(c).hex() for c in got] == \
            [float(c).hex() for c in fraction_weighted_log(ref, len(ref))]


def test_series_log_of_a_fraction_series_stays_exact():
    a = [Fraction(1, math.factorial(2 * n + 1)) for n in range(10)]    # sinh x / x
    got = tc._series_log(a, 10)
    assert all(type(c) is Fraction for c in got[1:])
    assert got == fraction_weighted_log(a, 10)


def test_torus_volume_is_period_product():
    geom = tc.build_model_geometry("torus", 2, cutoff=2, periods=(2 * math.pi, 3.0))
    assert abs(geom.volume - 6 * math.pi) < 1e-12


# ---------------------------------------------------------------------------
# potential jets
# ---------------------------------------------------------------------------

def test_potential_constant_and_zero():
    Q = tc.PotentialJet.constant(2, 2, [[1.0, 0.5], [0.5, -1.0]], cutoff=4)
    assert Q.cutoff == 4
    assert Q.Q.shape == (15, 2, 2)
    assert np.allclose(Q.Q[0], [[1.0, 0.5], [0.5, -1.0]])
    assert not Q.Q[1:].any()
    Z = tc.PotentialJet.zero(3, cutoff=2)
    assert Z.d == 1 and not Z.Q.any()


def test_potential_rejects_malformed_q():
    with pytest.raises(ValidationError, match=r"\(2, 2\)"):
        tc.PotentialJet.constant(2, 2, [1.0, 2.0, 3.0], cutoff=2)
    curv = np.zeros((2, 2, 2, 2))
    with pytest.raises(ValidationError, match=r"\(6, 2, 2\)"):
        tc.PotentialJet(2, 2, 2, np.zeros((10, 2, 2)), curv)     # a cutoff-3 array
    with pytest.raises(ValidationError, match="not finite"):
        tc.PotentialJet(2, 2, 2, np.full((6, 2, 2), np.nan), curv)
    with pytest.raises(ValidationError, match="cutoff"):
        tc.PotentialJet.constant(2, 1, [[0.3]], cutoff=-1)


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
