"""Leading-symbol detection, Gaussian projector averages, torus cross-checks."""

import math

import numpy as np
import pytest

from heatkern import nonlaplace as nl
from heatkern import spectra
from heatkern.errors import (EllipticityError, ResourceError, StructureError,
                             ValidationError)
from heatkern.quadrature import sphere_average, unit_directions


def striped_symbol():
    # A(xi) = |xi|^2 I + xi_1^2 e2 e2^T: eigenvalues depend on the direction
    a = np.zeros((2, 2, 2, 2), dtype=complex)
    a[0, 0] = np.eye(2) + np.diag([0.0, 1.0])
    a[1, 1] = np.eye(2)
    return nl.LeadingSymbol(m=2, d=2, a=a)


# ---------------------------------------------------------------------------
# symbols and structure detection
# ---------------------------------------------------------------------------

def test_symbol_constructor_validation():
    bad = np.zeros((2, 2, 1, 1), dtype=complex)
    bad[0, 1] = 1.0   # not symmetric in the base indices
    with pytest.raises(ValidationError):
        nl.LeadingSymbol(m=2, d=1, a=bad)
    bad = np.zeros((1, 1, 2, 2), dtype=complex)
    bad[0, 0] = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        nl.LeadingSymbol(m=1, d=2, a=bad)


def test_symbol_keeps_a_read_only_copy():
    a = np.einsum("mn,ab->mnab", np.eye(2), np.eye(2)).astype(complex)
    sym = nl.LeadingSymbol(m=2, d=2, a=a)
    with pytest.raises(ValueError):
        sym.a[0, 0, 0, 0] = 2.0
    a[0, 0, 0, 0] = 2.0           # the caller's array stays writable and apart
    assert sym.a[0, 0, 0, 0] == 1.0


def test_symbol_matrix_batch_agrees_with_single():
    rng = np.random.default_rng(7)
    # complex Hermitian blocks, symmetric in the base indices
    b = rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
    b = b + b.transpose(1, 0, 2, 3)
    hermitian = nl.LeadingSymbol(m=3, d=2, a=b + b.conj().transpose(0, 1, 3, 2))
    xs = rng.standard_normal((5, 3))
    for sym in (nl.one_form_symbol(3, 0.6), hermitian):
        batch = sym.symbol_matrix(xs)
        for n, x in enumerate(xs):
            assert np.allclose(batch[n], sym.symbol_matrix(x))
            assert np.allclose(batch[n], np.einsum("u,v,uvab->ab", x, x, sym.a))


def complex_frame(sym, seed):
    """sym in a random complex unitary frame U: a -> U a U^dagger, so the slopes and
    multiplicities are sym's and the blocks are complex Hermitian."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((sym.d, sym.d))
                     + 1j * rng.standard_normal((sym.d, sym.d)))[0]
    return nl.LeadingSymbol(m=sym.m, d=sym.d, a=U @ sym.a @ U.conj().T)


def test_symbol_matrix_is_real_for_a_real_symbol():
    # a real a takes one real product, so eigvalsh and eigh run on real matrices;
    # a complex a keeps the complex batch, with the same values as one einsum
    xs = np.random.default_rng(11).standard_normal((6, 3))
    real = nl.one_form_symbol(3, 0.6)
    A = real.symbol_matrix(xs)
    assert A.dtype == np.float64 and real.symbol_matrix(xs[0]).dtype == np.float64
    assert np.allclose(A, np.einsum("nu,nv,uvab->nab", xs, xs, real.a).real, rtol=0, atol=1e-14)
    hermitian = complex_frame(real, 12)
    A = hermitian.symbol_matrix(xs)
    assert A.dtype == np.complex128 and np.any(A.imag)
    assert np.allclose(A, np.einsum("nu,nv,uvab->nab", xs, xs, hermitian.a), rtol=0, atol=1e-14)


def test_default_directions():
    dirs = unit_directions(3, *nl._DIRECTIONS)
    assert dirs.shape == (24, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert np.allclose(dirs[:6], np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]))
    assert np.array_equal(dirs, unit_directions(3, *nl._DIRECTIONS))


def test_eigenstructure_laplace():
    spec = nl.eigenstructure(nl.laplace_symbol(3, d=2))
    assert spec.mu == (1.0,)
    assert spec.mult == (2,)


@pytest.mark.parametrize("m,c", [(2, 1.0), (3, 0.6), (4, -0.4)])
def test_eigenstructure_one_form(m, c):
    spec = nl.eigenstructure(nl.one_form_symbol(m, c))
    pairs = sorted(zip(spec.mu, spec.mult))
    want = sorted([(1.0, m - 1), (1.0 + c, 1)])
    for (mu, d), (mu0, d0) in zip(pairs, want):
        assert abs(mu - mu0) < 1e-12 and d == d0


def test_eigenstructure_is_detected_once_per_symbol(monkeypatch):
    built = []
    spectrum = nl.SymbolSpectrum
    monkeypatch.setattr(nl, "SymbolSpectrum",
                        lambda *args, **kwargs: built.append(1) or spectrum(*args, **kwargs))
    sym = nl.one_form_symbol(2, 0.8)
    spec = nl.eigenstructure(sym)
    for t in (0.01, 0.02):
        nl.torus_oracle(sym, Q=0.3 * np.eye(2), t=t)
    assert len(built) == 1 and nl.eigenstructure(sym) is spec is sym.spectrum
    # explicit directions, even the default ones, detect again
    again = nl.eigenstructure(sym, directions=unit_directions(2, *nl._DIRECTIONS))
    assert len(built) == 2 and again is not spec
    assert (again.mu, again.mult) == (spec.mu, spec.mult)


def test_eigenstructure_rejects_direction_dependence():
    with pytest.raises(StructureError):
        nl.eigenstructure(striped_symbol())


def test_eigenstructure_rejects_nonelliptic():
    with pytest.raises(EllipticityError):
        nl.eigenstructure(nl.one_form_symbol(2, -1.0))
    with pytest.raises(EllipticityError):
        nl.eigenstructure(nl.one_form_symbol(2, -1.5))


def test_eigenstructure_direction_validation():
    sym = nl.laplace_symbol(2)
    with pytest.raises(ValidationError):
        nl.eigenstructure(sym, directions=np.eye(2))      # too few
    bad = unit_directions(2, *nl._DIRECTIONS).copy()
    bad[5] *= 1.5
    with pytest.raises(ValidationError):
        nl.eigenstructure(sym, directions=bad)


def test_projectors_radial_channel():
    # the multiplicity-one eigenspace of |xi|^2 I + c xi (x) xi is radial
    sym = nl.one_form_symbol(3, 0.8)
    spec = nl.eigenstructure(sym)
    i_rad = spec.mult.index(1)
    rng = np.random.default_rng(11)
    for _ in range(4):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        P = spec.projectors_batch(v[None])[0]
        assert np.max(np.abs(P[i_rad] - np.outer(v, v))) < 1e-10


def test_projector_algebra_residuals():
    sym = nl.one_form_symbol(3, 0.5)
    spec = nl.eigenstructure(sym)
    dirs = unit_directions(3, *nl._DIRECTIONS)
    P = spec.projectors_batch(dirs)
    eye = np.eye(3)
    for n in range(dirs.shape[0]):
        assert np.max(np.abs(P[n].sum(axis=0) - eye)) < 1e-12
        A = sym.symbol_matrix(dirs[n])
        rebuilt = sum(spec.mu[i] * P[n, i] for i in range(spec.s))
        assert np.max(np.abs(rebuilt - A)) < 1e-10
        for i in range(spec.s):
            assert np.max(np.abs(P[n, i] @ P[n, i] - P[n, i])) < 1e-12
            for j in range(i + 1, spec.s):
                assert np.max(np.abs(P[n, i] @ P[n, j])) < 1e-12


def test_projectors_reject_foreign_spectrum():
    spec = nl.eigenstructure(nl.one_form_symbol(2, 0.5))
    alien = nl.SymbolSpectrum(symbol=striped_symbol(), s=spec.s,
                              mu=spec.mu, mult=spec.mult)
    with pytest.raises(StructureError):
        alien.projectors_batch(unit_directions(2, *nl._DIRECTIONS))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_a0_laplace_is_weighted_volume():
    spec = nl.eigenstructure(nl.laplace_symbol(2))
    vol = 4.0 * math.pi ** 2
    assert abs(nl.a0_coefficient(spec, 2, vol) - vol / (4 * math.pi)) < 1e-14


def test_a0_one_form_m2():
    spec = nl.eigenstructure(nl.one_form_symbol(2, 1.0))
    assert abs(nl.a0_coefficient(spec, 2, 1.0) - 3.0 / (8 * math.pi)) < 1e-14


def test_u0_homogeneity_and_consistency():
    spec = nl.eigenstructure(nl.one_form_symbol(3, 0.4))
    a0 = nl.a0_coefficient(spec, 3, vol=2.5)
    for t in (1e-3, 0.7):
        assert abs(nl.u0_trace(spec, 3, t) * 2.5 * t ** 1.5 - a0) < 1e-12 * abs(a0)
    with pytest.raises(ValidationError):
        nl.u0_trace(spec, 3, 0.0)


def test_h_endomorphism_laplace():
    sym = nl.laplace_symbol(3, d=2)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    want = -(4 * math.pi) ** -1.5 * np.eye(2)
    assert np.max(np.abs(H - want)) < 1e-12


def test_h_endomorphism_one_form_m2():
    sym = nl.one_form_symbol(2, 1.0)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    want = -(4 * math.pi) ** -1.0 * 0.75 * np.eye(2)
    assert np.max(np.abs(H - want)) < 1e-10


def test_h_endomorphism_one_form_m3():
    # radial average xi xi^T -> I/3, so H is a two-channel scalar
    c = 0.7
    sym = nl.one_form_symbol(3, c)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    scalar = -(4 * math.pi) ** -1.5 * (2.0 / 3.0 + (1 + c) ** -1.5 / 3.0)
    assert np.max(np.abs(H - scalar * np.eye(3))) < 1e-9 * abs(scalar)


def complex_h_endomorphism(sym, spec):
    """h_endomorphism with each symbol matrix made complex before eigh, as every
    symbol was before real symbols took real arithmetic."""
    mu = np.array(spec.mu)
    weight = -(4.0 * math.pi) ** (-sym.m / 2.0) * mu ** (-sym.m / 2.0)

    def integrand(omega):
        w, V = np.linalg.eigh(sym.symbol_matrix(omega).astype(complex))
        labels = np.argmin(np.abs(w[..., None] - mu), axis=-1)
        return np.einsum("nak,nk,nbk->nab", V, weight[labels], V.conj())

    H = sphere_average(sym.m, 4, 32, integrand, 1e-10)
    return 0.5 * (H + H.conj().T)


# real and complex eigh give eigenvectors that differ in their last bits; the worst
# entry gap of H over the cases below was 3.5e-18
@pytest.mark.parametrize("sym", [nl.laplace_symbol(3, 2), nl.one_form_symbol(2, 1.0),
                                 nl.one_form_symbol(3, 0.7), nl.one_form_symbol(3, -0.4),
                                 nl.one_form_symbol(4, 0.5)],
                         ids=["laplace-m3", "m2", "m3", "m3-negative-c", "m4"])
def test_h_endomorphism_of_a_real_symbol_is_the_complex_one(sym):
    spec = nl.eigenstructure(sym)
    H = nl.h_endomorphism(sym, spec)
    want = complex_h_endomorphism(sym, spec)
    assert H.dtype == np.float64
    assert np.max(np.abs(H - want)) <= 1e-15


def test_a2_potential_part_is_trace_pairing():
    H = np.array([[0.2, 0.1j], [-0.1j, -0.4]])
    Q = np.array([[1.0, 0.5], [0.5, 2.0]])
    want = (H @ Q).trace().real * 3.0
    assert abs(nl.a2_potential_part(H, Q, 3.0) - want) < 1e-15


# ---------------------------------------------------------------------------
# torus oracle
# ---------------------------------------------------------------------------

def circle_theta(t, L=1.0, nmax=80):
    k = 2 * math.pi * np.arange(-nmax, nmax + 1) / L
    return float(np.sum(np.exp(-t * k ** 2)))


def test_torus_oracle_m1_matches_theta():
    sym = nl.laplace_symbol(1)
    for t in (0.05, 0.5):
        want = circle_theta(t, L=2 * math.pi, nmax=200)
        got = nl.torus_oracle(sym, t=t, periods=(2 * math.pi,))
        assert abs(got - want) < 1e-12 * want


def test_torus_oracle_constant_q_factorizes():
    sym = nl.laplace_symbol(2, d=2)
    t = 0.05
    got = nl.torus_oracle(sym, Q=np.diag([0.3, -0.2]), t=t)
    theta2 = circle_theta(t) ** 2
    want = (math.exp(-0.3 * t) + math.exp(0.2 * t)) * theta2
    assert abs(got - want) < 1e-12 * want


def test_torus_oracle_long_time_limit():
    got = nl.torus_oracle(nl.laplace_symbol(2, d=3), t=50.0)
    assert abs(got - 3.0) < 1e-13


def test_torus_oracle_leading_term():
    # t -> 0: t^{m/2} Tr -> a0 with vol = product of periods
    sym = nl.one_form_symbol(2, 1.0)
    spec = nl.eigenstructure(sym)
    t = 1e-3
    got = nl.torus_oracle(sym, t=t)
    a0 = nl.a0_coefficient(spec, 2, vol=1.0)
    assert abs(t * got - a0) < 1e-8


def test_a2_potential_part_matches_torus_slope():
    # slope of t * Tr(t) at small t is vol tr(H Q)
    sym = nl.one_form_symbol(2, 1.0)
    spec = nl.eigenstructure(sym)
    H = nl.h_endomorphism(sym, spec)
    Q = np.diag([0.8, -0.3])
    want = nl.a2_potential_part(H, Q, vol=1.0)
    ts = np.array([4e-4, 8e-4, 1.2e-3])
    ys = np.array([t * nl.torus_oracle(sym, Q=Q, t=t) for t in ts])
    slope = np.polyfit(ts, ys, 1)[0]
    assert abs(slope - want) < 5e-3 * abs(want)


def test_torus_oracle_m3_one_form_matches_theta_products():
    # |k|^2 I + c k (x) k has (1 + c)|k|^2 once and |k|^2 twice
    c, q, periods = 0.8, 0.3, (1.0, 1.2, 0.9)
    sym = nl.one_form_symbol(3, c)
    for t in (0.01, 0.02):
        got = nl.torus_oracle(sym, Q=q * np.eye(3), t=t, periods=periods)
        want = math.exp(-t * q) * (math.prod(circle_theta(t * (1 + c), L) for L in periods)
                                   + 2 * math.prod(circle_theta(t, L) for L in periods))
        assert abs(got - want) <= 1e-15 * want


@pytest.fixture
def certificates(monkeypatch):
    """Every (sum, N, tail) that torus_oracle certifies while the test runs."""
    seen = []

    def record(*args, **kwargs):
        seen.append(spectra._certified_trace(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(nl, "_certified_trace", record)
    return seen


def box_trace(sym, Q, ts, N, periods):
    """sum of e^{-t lam} over every eigenvalue of A(k) + Q at every k = 2 pi n / periods
    of the whole box |n|_inf <= N, with no pruning and no k <-> -k pairing."""
    m = sym.m
    n = np.stack(np.meshgrid(*[np.arange(-N, N + 1)] * m, indexing="ij"), axis=-1)
    k = 2 * math.pi * n.reshape(-1, m) / np.array(periods)
    lam = np.linalg.eigvalsh(np.einsum("mnab,im,in->iab", sym.a, k, k) + Q).ravel()
    return np.array([math.fsum(np.exp(-t * lam)) for t in ts])


COMPLEX_Q_CASES = {
    "m3": (nl.one_form_symbol(3, 0.7),
           np.array([[0.4, 0.1 + 0.2j, 0.0], [0.1 - 0.2j, -0.3, 0.05j], [0.0, -0.05j, 0.1]]),
           np.array([0.02, 0.05]), (1.0, 1.1, 0.9)),
    "m2": (nl.one_form_symbol(2, 0.5), np.array([[0.3, 0.1j], [-0.1j, -0.2]]),
           np.array([0.01, 0.1, 5.0]), (2 * math.pi, 3.0)),
}


def test_torus_oracle_matches_the_whole_box_with_complex_q(certificates):
    # the pruned points are left out of the sum, and they change it by less than rounding
    sym, Q, ts, periods = COMPLEX_Q_CASES["m3"]
    got = nl.torus_oracle(sym, Q=Q, t=ts, periods=periods)
    N = certificates[-1][1]
    want = box_trace(sym, Q, ts, N, periods)
    assert np.all(np.abs(got - want) <= 5e-16 * want)


@pytest.mark.parametrize("case", sorted(COMPLEX_Q_CASES))
def test_torus_oracle_tail_bounds_the_sum_past_it(case, certificates):
    sym, Q, ts, periods = COMPLEX_Q_CASES[case]
    nl.torus_oracle(sym, Q=Q, t=ts, periods=periods)
    got, N, tail = certificates[-1]
    past = box_trace(sym, Q, ts, 2 * N, periods)
    ulp = np.array([math.ulp(s) for s in got])
    assert np.all(np.abs(past - got) <= tail + 4 * ulp)


def test_torus_oracle_diagonalises_only_what_can_reach_the_floor(monkeypatch, certificates):
    sym, laplace = nl.one_form_symbol(3, 0.9), nl.laplace_symbol(2)
    # detected ahead and kept on the symbols, so every eigvalsh batch counted below
    # is a lattice one
    nl.eigenstructure(sym), nl.eigenstructure(laplace)
    eigvalsh = np.linalg.eigvalsh
    rows = []

    def counted(a):
        if a.ndim == 3:
            rows.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(nl.np.linalg, "eigvalsh", counted)
    nl.torus_oracle(sym, Q=0.2 * np.eye(3), t=0.02, cutoff=12)
    assert 0 < sum(rows) < 7813 / 4           # the half box at N = 12 has 7813 points
    # the lattice past N = 12 adds about 3e-53 of the sum: the tail is the pruned
    # points' bound, which the cut keeps under 1e-3 of the 1e-15 floor
    total, N, tail = certificates[-1]
    assert N == 12 and 1e-40 * total < tail <= 1e-18 * total

    # the cap counts the whole box, so a refused box never reaches eigvalsh
    rows.clear()
    with pytest.raises(ResourceError):
        nl.torus_oracle(laplace, t=0.1, cutoff=2000)
    assert rows == []
    with pytest.raises(ResourceError, match="over the cap"):
        nl.torus_oracle(laplace, t=1e-9)
    # nothing is pruned at t = 1e-9, and the empty bound is zeros at every t;
    # N = 8, ..., 512 are summed and N = 1024 is refused
    assert np.array_equal(spectra._exp_sum(np.array([1e-9, 0.5]), np.array([]), 4.0), [0, 0])
    assert sum(rows) == sum(((2 * N + 1) ** 2 + 1) // 2 for N in (8, 16, 32, 64, 128, 256, 512))


def half_box(m, N):
    """The origin, then every n in [-N, N]^m whose first nonzero entry is positive,
    as one array: the whole half box that torus_oracle once built."""
    r = np.arange(-N, N + 1)
    parts = [np.zeros((1, m))]
    for j in range(m):
        axes = [[0]] * j + [np.arange(1, N + 1)] + [r] * (m - j - 1)
        parts.append(np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1))
    return np.concatenate(parts)


def whole_half_box_kept(N, scale, mu_min, qmin, cut):
    """nl._kept_half_box from the whole half box, its Weyl bounds by one einsum."""
    k = half_box(len(scale), N) * scale
    low = mu_min * np.einsum("ij,ij->i", k, k) + qmin
    keep = low <= cut
    return k[keep], low[~keep]


def enumeration_case(seed):
    """A seeded torus_oracle call: m = 1, 2, 3 in turn, a real or complex symbol
    and Q, periods near 1, and t from 0.02 / m up to 0.5 / m."""
    rng = np.random.default_rng(seed)
    m = 1 + seed % 3
    sym = nl.one_form_symbol(m, rng.uniform(-0.5, 1.0)) if m > 1 else nl.laplace_symbol(1, 2)
    Q = rng.standard_normal((sym.d, sym.d)) + 1j * rng.standard_normal((sym.d, sym.d)) * (seed % 2)
    if seed % 4 >= 2:
        sym = complex_frame(sym, seed)
    ts = np.append(0.02, rng.uniform(0.02, 0.5, 2)) / m
    return sym, 0.3 * (Q + Q.conj().T), ts, rng.uniform(0.8, 1.25, m)


# the pruned points' Weyl bounds sum their squares in another order than einsum
# did; over 300 random boxes (m = 1..3, N = 1..24) they differed by at most 2 ulps
@pytest.mark.parametrize("seed", range(1, 9))
def test_kept_half_box_is_the_whole_half_box_pruned(seed, monkeypatch):
    sym, Q, ts, periods = enumeration_case(seed)
    calls = []
    kept = nl._kept_half_box
    monkeypatch.setattr(nl, "_kept_half_box", lambda *args: calls.append(args) or kept(*args))
    got = nl.torus_oracle(sym, Q=Q, t=ts, cutoff=2 + seed % 3, periods=periods)
    # N doubles at least once, and some points are pruned
    assert len(calls) >= 2 and any(len(kept(*args)[1]) for args in calls)
    for args in calls:
        k, low = kept(*args)
        want_k, want_low = whole_half_box_kept(*args)
        assert np.array_equal(k, want_k)
        assert np.all(np.abs(low - want_low) <= 2 * np.spacing(want_low))
    monkeypatch.setattr(nl, "_kept_half_box", whole_half_box_kept)
    want = nl.torus_oracle(sym, Q=Q, t=ts, cutoff=2 + seed % 3, periods=periods)
    assert got.tobytes() == want.tobytes()


# periods -> 1.7 periods, Q -> Q / 1.7^2, t -> 1.7^2 t scales every level by 1 / 1.7^2,
# so the trace is the same; the worst relative gap over the cases below was 4.6e-16
@pytest.mark.parametrize("sym,Q,periods", [
    (nl.laplace_symbol(1), [[0.4]], (2.0,)),
    (nl.one_form_symbol(2, 0.6), [[0.3, 0.1j], [-0.1j, -0.2]], (1.0, 1.3)),
    (nl.laplace_symbol(2, 2), [[0.5, 0.2], [0.2, -0.1]], (1.2, 0.9)),
    (nl.one_form_symbol(3, -0.3), np.diag([0.1, 0.0, 0.2]), (1.0, 0.8, 1.1)),
], ids=["m1", "m2-complex-q", "m2-laplace-d2", "m3"])
def test_torus_oracle_is_invariant_under_scaling(sym, Q, periods):
    """The lattice pruning and tail, run at a new scale.  A defect that scales
    with the torus, such as a first box too small for the floor, keeps this
    invariance, so the test cannot catch one."""
    lam, Q = 1.7, np.asarray(Q)
    ts = np.geomspace(0.01, 1.0 / lam ** 2, 8)
    want = nl.torus_oracle(sym, Q=Q, t=ts, periods=periods)
    got = nl.torus_oracle(sym, Q=Q / lam ** 2, t=lam ** 2 * ts,
                          periods=tuple(lam * p for p in periods))
    assert np.max(np.abs(got - want) / want) < 1.5e-15


def test_torus_oracle_validation_and_budget():
    sym = nl.laplace_symbol(2)
    with pytest.raises(ValidationError):
        nl.torus_oracle(sym, t=-1.0)
    with pytest.raises(ValidationError):
        nl.torus_oracle(sym, t=0.1, periods=(1.0,))
    with pytest.raises(ValidationError):
        nl.torus_oracle(sym, t=0.1, Q=np.array([[1j]]))
    with pytest.raises(ResourceError):
        nl.torus_oracle(sym, t=0.1, cutoff=2000)
    with pytest.raises(ResourceError):
        nl.torus_oracle(sym, t=1e-9)


# ---------------------------------------------------------------------------
# curvature pairings
# ---------------------------------------------------------------------------

def constant_curvature_riemann(m, kappa):
    eye = np.eye(m)
    return kappa * (np.einsum("ac,bd->abcd", eye, eye)
                    - np.einsum("ad,bc->abcd", eye, eye))


def test_x_tensor_laplace_constant_curvature():
    m, kappa = 3, 0.9
    sym = nl.laplace_symbol(m)
    X = nl.x_tensor(sym, constant_curvature_riemann(m, kappa))
    eye = np.eye(m)
    want = -(kappa / 6.0) * (2 * np.einsum("uv,ab->uvab", eye, eye)
                             - np.einsum("vb,ua->uvab", eye, eye)
                             - np.einsum("va,ub->uvab", eye, eye))
    assert np.max(np.abs(X[..., 0, 0] - want)) < 1e-13
    assert np.max(np.abs(X - X.transpose(1, 0, 2, 3, 4, 5))) < 1e-14
    assert np.max(np.abs(X - X.transpose(0, 1, 3, 2, 4, 5))) < 1e-14


def test_x_tensor_zero_and_linearity():
    sym = nl.one_form_symbol(2, 0.5)
    R = constant_curvature_riemann(2, 1.3)
    assert np.max(np.abs(nl.x_tensor(sym, 0.0 * R))) == 0.0
    assert np.allclose(nl.x_tensor(sym, 2.0 * R), 2.0 * nl.x_tensor(sym, R))


def test_y_tensor_laplace_closed_form():
    m = 2
    sym = nl.laplace_symbol(m, d=1)
    ric = np.array([[0.7, 0.1], [0.1, -0.2]])
    Y = nl.y_tensor(sym, ric)
    assert np.max(np.abs(Y[..., 0, 0] - (2.0 / 3.0) * ric)) < 1e-14

    fc = np.zeros((m, m, 1, 1), dtype=complex)
    fc[0, 1], fc[1, 0] = 0.4j, -0.4j
    Yf = nl.y_tensor(sym, ric, fiber_curvature=fc)
    want = (2.0 / 3.0) * ric[..., None, None] - fc.transpose(1, 0, 2, 3)
    assert np.max(np.abs(Yf - want)) < 1e-14
