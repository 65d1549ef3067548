"""Exact spectral oracles: intervals, spheres, Landau levels, torus matrices."""

import itertools
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatkern import cli
from heatkern import nonlaplace as nl
from heatkern import spectra
from heatkern import symmspace as ss
from heatkern import tensorcalc as tc
from heatkern import zaremba as za
from heatkern.errors import NumericError, ResourceError, ValidationError


# ---------------------------------------------------------------------------
# interval spectra
# ---------------------------------------------------------------------------

def test_reflection_identity():
    # doubling the interval: spec(DD on L) + spec(NN on L) = spec(circle 2L)
    L, t = math.pi, 0.13
    dd = spectra.interval_trace(L, "DD", t)
    nn = spectra.interval_trace(L, "NN", t)
    circle = sum(math.exp(-t * (2 * math.pi * n / (2 * L)) ** 2)
                 for n in range(-400, 401))
    assert abs(dd + nn - circle) < 1e-13 * circle


def partial_trace(levels, t, n):
    """sum mult e^{-t lam} over the first n levels, at one t."""
    lam, mult = levels(n)
    return float(np.sum(mult * np.exp(-t * lam)))


def test_dn_eigenvalues():
    L = 2.0
    levels, _ = spectra._interval_levels(L, "DN")
    for j, (lam, mult) in enumerate(zip(*levels(6))):
        assert mult == 1
        assert abs(lam - ((j + 0.5) * math.pi / L) ** 2) < 1e-13


def test_interval_trace_matches_direct_sum():
    L, t = 1.5, 0.05
    want = sum(math.exp(-t * (j * math.pi / L) ** 2) for j in range(1, 3000))
    assert abs(spectra.interval_trace(L, "DD", t) - want) < 1e-12 * want


def test_partial_trace_monotone_in_count():
    levels, _ = spectra._interval_levels(math.pi, "DD")
    vals = [partial_trace(levels, 0.3, n) for n in (2, 4, 8, 16)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_interval_validation():
    with pytest.raises(ValidationError):
        spectra._interval_levels(-1.0, "DD")
    with pytest.raises(ValidationError):
        spectra._interval_levels(1.0, "XY")
    with pytest.raises(ValidationError):
        spectra._interval_levels(1.0, "robin")     # S missing
    with pytest.raises(ValidationError):
        spectra.interval_trace(1.0, "DD", 0.0)


# ---------------------------------------------------------------------------
# robin spectra
# ---------------------------------------------------------------------------

def robin_secular(L, S, lam):
    if lam >= 0:
        k = math.sqrt(lam)
        return (k * k - S * S) * math.sin(k * L) + 2 * S * k * math.cos(k * L)
    x = math.sqrt(-lam)
    # analytic continuation k -> i x of the same function, up to i
    return (x * x + S * S) * math.sinh(x * L) - 2 * S * x * math.cosh(x * L)


@given(st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 1e-3))
@settings(max_examples=25, deadline=None)
def test_robin_roots_satisfy_secular_equation(S):
    L = math.pi
    levels, _ = spectra._interval_levels(L, "robin", S=S)
    for lam, mult in zip(*levels(20)):
        assert mult == 1
        scale = max(1.0, abs(lam) + S * S)
        assert abs(robin_secular(L, S, lam)) < 1e-9 * scale


def test_robin_zero_reduces_to_neumann():
    robin, _ = spectra._interval_levels(1.0, "robin", S=0.0)
    nn, _ = spectra._interval_levels(1.0, "NN")
    assert all(np.array_equal(a, b) for a, b in zip(robin(5), nn(5)))


def test_robin_negative_mode_count():
    L = math.pi
    def negatives(S):
        lam, _ = spectra._interval_levels(L, "robin", S=S)[0](10)
        return int(np.sum(lam < 0))
    assert negatives(-1.0) == 0
    assert negatives(0.5) == 1        # S L < 2: single bound state
    assert negatives(1.0) == 2        # S L > 2: both hyperbolic branches


@pytest.mark.parametrize("L,S,t,want", [
    # 40-digit mpmath values of the closed form below
    (1000.0, -0.5, 1e-4, 28209.9735603982581589409),
    (3.0, -1.0, 1e-7, 2676.685817504309718482973),
    (10.0, 2.0, 1e-4, 282.6177654562159328191998),
])
def test_robin_trace_matches_half_line_closed_form(L, S, t, want):
    # endpoints L >> sqrt(t) apart: each is a Robin half-line, and the trace is
    # L / sqrt(4 pi t) - 1/2 + e^{S^2 t} erfc(-S sqrt t) up to terms like e^{-SL}
    # and e^{-L^2/t}.  The first case sums about 2.5e5 roots, past the u = kL/2
    # where a bracket 1e-12 short of a pole is below one ulp of u.
    start = time.perf_counter()
    got = spectra.interval_trace(L, "robin", t, S=S)
    assert time.perf_counter() - start < 1.0
    assert abs(got - want) < 1e-13 * want


def test_robin_zero_mode_at_sl_equal_two():
    # S L = 2 admits the linear mode u = 1 - 2x/L with eigenvalue 0, between the
    # small positive (S L < 2) and small negative (S L > 2) eigenvalue it continues
    lam = spectra._robin_eigenvalues(1.0, 2.0, 4)
    assert lam[0] < 0 and abs(lam[1]) < 1e-14 and lam[2] > 30.0
    near = [spectra.interval_trace(1.0, "robin", 0.1, S=S) for S in (2.0 - 1e-9, 2.0, 2.0 + 1e-9)]
    assert max(near) - min(near) < 1e-8


@pytest.mark.parametrize("L", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("S", [1e-8, 1e-20, 1e-28, 1e-29, 1e-30, 1e-100, 1e-310, 5e-324])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_robin_near_zero_stays_next_to_neumann(L, S, sign):
    # to first order in S each level moves by -S (u(0)^2 + u(L)^2), that is by -2S/L
    # for the constant mode and -4S/L for the others, so the trace moves by at most
    # 2 (2t|S|/L) times itself: no root is lost (trace about NN - 1) or invented
    # (about NN + e^{16t/L^2})
    S, t = sign * S, 0.1
    nn = spectra.interval_trace(L, "NN", t)
    robin = spectra.interval_trace(L, "robin", t, S=S)
    assert abs(robin - nn) <= 2.0 * (2.0 * t * abs(S) / L) * nn + 1e-14 * nn
    lam = spectra._robin_eigenvalues(L, S, 3)
    # the lowest level is -2S/L, which may round to 0 at the subnormal floor
    assert np.sign(lam[0]) != np.sign(S) and abs(lam[0]) <= 2.0 * (2.0 * abs(S) / L)


def test_robin_interlaces_between_nn_and_dd():
    # positive robin eigenvalues sit between the Neumann and Dirichlet ones
    L, S = math.pi, 0.8
    lam, _ = spectra._interval_levels(L, "robin", S=S)[0](12)
    rob = lam[lam > 0]
    for j, lam in enumerate(rob[:8]):
        lo = (j * math.pi / L) ** 2
        hi = ((j + 2) * math.pi / L) ** 2
        assert lo < lam < hi


@pytest.mark.parametrize("L", [1.0, 3.0])
@pytest.mark.parametrize("bc,S", [("DD", None), ("NN", None), ("DN", None), ("robin", 0.7),
                                  ("robin", -0.4)])
def test_interval_trace_is_invariant_under_scaling(L, bc, S):
    # L -> 1.7 L, t -> 1.7^2 t and S -> S / 1.7 keep every t lambda, so the trace
    # is the same; the worst relative gap over these cases was 4.9e-16.  L stays
    # >= 1: at L = 0.3 and t = 0.35 the DD trace is e^{-38}, and the rounding of
    # t lambda, magnified by its size, gave a gap of 1.4e-14 (DN 3.6e-15)
    lam = 1.7
    ts = np.geomspace(0.01, 1.0 / lam ** 2, 12)
    want = spectra.interval_trace(L, bc, ts, S=S)
    got = spectra.interval_trace(lam * L, bc, lam ** 2 * ts, S=None if S is None else S / lam)
    assert np.max(np.abs(got - want) / want) < 1.5e-15


# ---------------------------------------------------------------------------
# sphere spectra
# ---------------------------------------------------------------------------

def test_sphere_trace_matches_direct_sums():
    t = 0.5
    want2 = sum((2 * l + 1) * math.exp(-t * l * (l + 1)) for l in range(60))
    assert abs(spectra.sphere_trace(2, 1.0, t) - want2) < 1e-12 * want2
    a = 2.0
    want3 = sum((l + 1) ** 2 * math.exp(-t * l * (l + 2) / a ** 2) for l in range(120))
    assert abs(spectra.sphere_trace(3, a, t) - want3) < 1e-12 * want3


# a -> 1.7 a, t -> 1.7^2 t keeps every t l(l + m - 1) / a^2, so the trace is the
# same; the worst relative gap over these cases was 3.8e-16
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("a", [0.6, 1.0, 2.3])
def test_sphere_trace_is_invariant_under_scaling(m, a):
    lam = 1.7
    ts = np.geomspace(0.01, 1.0 / lam ** 2, 8)
    want = spectra.sphere_trace(m, a, ts)
    got = spectra.sphere_trace(m, lam * a, lam ** 2 * ts)
    assert np.max(np.abs(got - want) / want) < 1.5e-15


def test_sphere_model_validation():
    with pytest.raises(ValidationError):
        spectra._sphere_levels(4, 1.0)
    with pytest.raises(ValidationError):
        spectra._sphere_levels(2, 0.0)
    with pytest.raises(ValidationError):
        spectra.sphere_trace(2, 1.0, -0.1)


@pytest.mark.parametrize("radius", [1e-200, math.nan])
def test_sphere_trace_rejects_radius_without_finite_curvature(radius):
    # 1e-200 squares to 0: 1/a^2 once raised a bare ZeroDivisionError
    with pytest.raises(ValidationError,
                       match=f"sphere radius {radius!r} is below 1e-100 or not finite"):
        spectra.sphere_trace(2, radius, 0.1)


def test_sphere_radius_edge_is_accepted():
    # at a = MIN_LENGTH, 1/a^2 = 1e200 is finite; below it 1e-154 once overflowed
    # l(l + 1)/a^2 with a RuntimeWarning and 1e-160 ended in a NumericError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectra.sphere_trace(2, spectra.MIN_LENGTH, 0.1) == 1.0
        for radius in (1e-154, 1e-160):
            with pytest.raises(ValidationError, match="is below 1e-100 or not finite"):
                spectra.sphere_trace(2, radius, 0.1)


@pytest.mark.parametrize("trace", [
    lambda: spectra.interval_trace(1e300, "DD", 0.01),
    lambda: spectra.interval_trace(3e5, "NN", 1e-3),
    lambda: spectra.sphere_trace(2, 1e100, 0.01),
    lambda: spectra.sphere_trace(3, 1e6, 1e-2),
    lambda: spectra.landau_trace_density(1e-9, 0.3),
    lambda: spectra.landau_trace_density(1e-300, 1e-300),      # tB underflows to 0
])
def test_first_partial_sum_is_capped(trace):
    # the first eigenvalue count is checked against the cap before any list is built
    with pytest.raises(ResourceError, match="over the cap"):
        trace()


@pytest.mark.parametrize("trace", [
    lambda: spectra.landau_trace_density(1e-320, 0.1),         # 20 / (tB) overflows
    lambda: spectra.landau_trace_density(1e-300, 1e-300),      # tB underflows to 0
])
def test_a_first_size_past_the_float_range_is_spelled_as_a_bound(trace):
    # the refusal once read "needs about inf levels"
    with pytest.raises(ResourceError, match=r"needs more than 1\.8e\+308 levels") as info:
        trace()
    assert "inf" not in str(info.value)


def test_partial_sums_are_capped_in_work():
    # a million t at about 2e5 levels each is refused before any exponential
    ts = np.geomspace(1e-9, 1.0, 10 ** 6)
    with pytest.raises(ResourceError, match="over the work cap"):
        spectra.sphere_trace(2, 1.0, ts)


@pytest.mark.parametrize("S", [math.nan, -math.inf, math.inf, 1e300, -1e101, 2e12])
def test_robin_constant_out_of_range_is_rejected(S):
    # NaN, -inf and |S| L past the root brackets once looped without end
    with pytest.raises(ValidationError, match="robin constant"):
        spectra.interval_trace(1.0, "robin", 0.1, S=S)


def test_sphere_tail_bound_is_a_bound():
    levels, tail = spectra._sphere_levels(2, 1.0)
    t = 0.2
    full = spectra.sphere_trace(2, 1.0, t)
    for n in (5, 10, 20):
        missing = full - partial_trace(levels, t, n)
        assert 0.0 <= missing <= tail(np.array([t]), n)[0]


@pytest.mark.parametrize("spectrum,full", [
    (spectra._sphere_levels(3, 1.3), lambda t: spectra.sphere_trace(3, 1.3, t)),
    (spectra._interval_levels(2.0, "DN"), lambda t: spectra.interval_trace(2.0, "DN", t)),
    (spectra._interval_levels(1.0, "robin", S=0.7),
     lambda t: spectra.interval_trace(1.0, "robin", t, S=0.7)),
])
def test_tail_bounds_hold_at_every_t(spectrum, full):
    # the closed-form tails are bounds at each t of a grid, for every n
    levels, tail = spectrum
    ts = np.array([0.05, 0.2, 1.0])
    for n in (4, 6, 12):
        lam, mult = levels(n)
        missing = full(ts) - np.sum(mult * np.exp(-np.multiply.outer(ts, lam)), axis=1)
        assert np.all(missing >= -1e-15 * full(ts))
        assert np.all(missing <= tail(ts, n))


def test_level_sums_are_summed_past_their_certificates(past_certificate):
    # conftest's fixture keeps every interval, sphere and Landau sum and every Bessel
    # mode sum, and no other, and sums each again at 4n; here it runs by hand
    spectra.interval_trace(1.0, "robin", np.array([0.01, 0.1]), S=0.7)
    spectra.sphere_trace(2, 1.0, 0.05)
    spectra.landau_trace_density(1.0, 0.3)
    spectra.torus_potential_trace(2 * math.pi, {(1,): 0.1, (-1,): 0.1}, 4, 0.5)
    za.bessel_oracle(0.02, za.WedgePoint(1.0, 0.1), za.WedgePoint(1.0, -0.2), terms=3)
    kept = [(what, n) for what, *_, n in past_certificate.sums]
    assert [what for what, _ in kept] == ["interval", "sphere", "landau", "Bessel mode"]
    past_certificate.check()
    assert past_certificate.checked[-4:] == kept and not past_certificate.sums
    # a sum that still moves past n fails the check; the fixture reads the oracle's
    # name from its caller's `what`, as _certified_trace names it
    what = "sphere"  # noqa: F841
    spectra.converge(1, 100, lambda n: np.array([1.0 - 1.0 / n]), lambda n, est, prev: 0.0,
                     lambda est: 1e-14 * est, str)
    with pytest.raises(AssertionError, match="sphere sum moves by 7.500e-01 from n = 1 to 4"):
        past_certificate.check()


def fixture_grid(name):
    from heatkern.cli import RunConfig
    return np.array(RunConfig.from_ini(
        Path(__file__).resolve().parent.parent / "configs" / f"{name}.ini").grid)


def mp_level_sum(mp, t, term):
    """sum over l >= 0 of term(l) at 40 digits, to 1e-45 of the total."""
    total, l = mp.mpf(0), 0
    while True:
        value = term(l)
        total += value
        if l > 10 and value < mp.mpf(10) ** -45 * total:
            return total
        l += 1


def interval_level(mp, t, shift):
    """e^{-t (pi (j + shift) / L)^2} on the fixtures' interval, L = math.pi."""
    return lambda j: mp.exp(-t * (mp.pi * (j + shift) / mp.mpf(math.pi)) ** 2)


@pytest.mark.parametrize("trace,reference", [
    (lambda ts: spectra.sphere_trace(2, 1.0, ts),
     lambda mp, t: mp_level_sum(mp, t, lambda l: (2 * l + 1) * mp.exp(-t * l * (l + 1)))),
    (lambda ts: spectra.sphere_trace(3, 1.0, ts),
     lambda mp, t: mp_level_sum(mp, t, lambda l: (l + 1) ** 2 * mp.exp(-t * l * (l + 2)))),
    (lambda ts: spectra.interval_trace(math.pi, "DD", ts),
     lambda mp, t: mp_level_sum(mp, t, interval_level(mp, t, 1))),
    (lambda ts: spectra.interval_trace(math.pi, "NN", ts),
     lambda mp, t: mp_level_sum(mp, t, interval_level(mp, t, 0))),
    (lambda ts: spectra.interval_trace(math.pi, "DN", ts),
     lambda mp, t: mp_level_sum(mp, t, interval_level(mp, t, 0.5))),
], ids=["S2", "S3", "DD", "NN", "DN"])
def test_traces_match_mpmath_on_fixture_grids(trace, reference):
    # an independent 40-digit sum over the same spectra, on the t-grids of the
    # sphere and interval fixtures
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ts = np.unique(np.concatenate([fixture_grid(n) for n in
                                   ("sphere_s2", "sphere_tight", "interval_dd")]))
    got = trace(ts)
    want = [reference(mp, mp.mpf(float(t))) for t in ts]
    rel = max(float(abs((mp.mpf(float(g)) - w) / w)) for g, w in zip(got, want))
    assert rel <= 1e-15


# ---------------------------------------------------------------------------
# Landau levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tb", [0.1, 0.5, 1.0, 3.0, 5.0])
def test_landau_density_matches_level_sum(tb):
    B, t = 1.7, tb / 1.7
    levels = sum(math.exp(-t * B * (2 * n + 1)) for n in range(200))
    want = B / (2 * math.pi) * levels
    got = spectra.landau_trace_density(B, t)
    assert abs(got - want) < 1e-14 * want


def test_landau_density_large_tb_underflows():
    # (B/4pi)/sinh(tB) must not overflow past tB = 710; both forms agree
    B = 1.5
    t = 700.0 / B
    want = B / (2 * math.pi) * sum(math.exp(-t * B * (2 * n + 1)) for n in range(4))
    assert abs(spectra.landau_trace_density(B, t) - want) < 1e-13 * want
    assert spectra.landau_trace_density(B, 800.0) == 0.0


def test_landau_level_sum_matches_mpmath_closed_form():
    # the level sum against a 40-digit (B/4 pi)/sinh(tB) for tB in [1e-3, 3]; past
    # that the rounding of tB alone, magnified tB times, exceeds 1e-15
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    B = 1.5
    ts = np.geomspace(1e-3, 3.0, 25) / B
    got = spectra.landau_trace_density(B, ts)
    for t, g in zip(ts, got):
        want = mp.mpf(B) / (4 * mp.pi * mp.sinh(mp.mpf(float(t)) * B))
        assert abs((mp.mpf(float(g)) - want) / want) <= 1e-15


@pytest.mark.parametrize("B", [0.3, 1.0, 5.0])
def test_landau_density_scales_with_the_field(B):
    # B -> 1.7 B and t -> t / 1.7 keep every t B (2n + 1), so only the prefactor
    # B / 2 pi scales, by 1.7; the worst relative gap over these cases was 6.6e-16
    lam = 1.7
    ts = np.geomspace(0.01 * lam, 1.0, 12)
    want = lam * spectra.landau_trace_density(B, ts)
    got = spectra.landau_trace_density(lam * B, ts / lam)
    assert np.max(np.abs(got - want) / want) < 2e-15


def test_landau_validation():
    with pytest.raises(ValidationError):
        spectra.landau_trace_density(0.0, 1.0)
    with pytest.raises(ValidationError):
        spectra.landau_trace_density(1.0, -1.0)


# ---------------------------------------------------------------------------
# torus with potential
# ---------------------------------------------------------------------------

def test_torus_trace_zero_potential_is_theta_product():
    t = 0.4
    periods = (2 * math.pi, 3.0)
    got = spectra.torus_potential_trace(periods, {}, cutoff=24, t=t)
    want = 1.0
    for L in periods:
        want_l = sum(math.exp(-t * (2 * math.pi * n / L) ** 2) for n in range(-60, 61))
        want *= want_l
    assert abs(got - want) < 1e-12 * want


def test_torus_trace_matches_handmade_fourier_matrix():
    # independent dense construction on e^{inx}, n = -c..c
    q, n0, t, c = 0.4, 3, 0.3, 20
    L = 2 * math.pi
    ns = np.arange(-c, c + 1)
    H = np.diag((2 * math.pi * ns / L).astype(float) ** 2).astype(complex)
    for i, a in enumerate(ns):
        for j, b in enumerate(ns):
            if abs(a - b) == n0:
                H[i, j] += q / 2.0
    want = float(np.sum(np.exp(-t * np.linalg.eigvalsh(H))))
    modes = spectra.FourierBackground.circle_cosine(L, n0, q).potential_modes
    got = spectra.torus_potential_trace(L, modes, cutoff=c, t=t)
    assert abs(got - want) < 1e-13 * want


def dense_fourier_trace(periods, modes, cutoff, t):
    """Reference: the Rayleigh quotients v^H H v of eigh's eigenvectors of the full
    complex matrix H[i, j] = q(n_i - n_j).  eigvalsh's own eigenvalues carry an
    error of about eps times the largest: on the pinned 3-D draw of
    test_torus_trace_blocks_match_dense_matrix they miss a 40-digit mpmath trace
    by 1.26e-12, the quotients by 1.2e-16 and the blocks by 2.3e-15."""
    lattice = np.array(list(itertools.product(range(-cutoff, cutoff + 1),
                                              repeat=len(periods))))
    H = np.diag(np.sum((2 * math.pi * lattice / np.array(periods)) ** 2, axis=1)).astype(complex)
    diff = lattice[:, None, :] - lattice[None, :, :]
    for k, q in modes.items():
        H[np.all(diff == np.array(k), axis=2)] += q
    V = np.linalg.eigh(H)[1]
    lam = np.einsum("ij,ik,kj->j", V.conj(), H, V).real
    return np.array([np.sum(np.exp(-tv * lam)) for tv in t])


@st.composite
def hermitian_fourier_problem(draw):
    m = draw(st.sampled_from((1, 2, 3)))
    periods = tuple(draw(st.floats(0.5, 1.0)) for _ in range(m))
    cutoff = draw(st.integers(1, 3 if m == 3 else 6))
    complex_amps = draw(st.booleans())
    modes = {}
    for _ in range(draw(st.integers(0, 3))):
        # an entry is 0 half the time, so the modes often leave axes apart
        k = tuple(draw(st.integers(-3, 3)) if draw(st.booleans()) else 0 for _ in range(m))
        re = draw(st.floats(-0.5, 0.5))
        im = draw(st.floats(-0.5, 0.5)) if complex_amps and any(k) else 0.0
        modes[k] = complex(re, im)
        modes[tuple(-x for x in k)] = complex(re, -im)
    ts = draw(st.lists(st.floats(35.0, 60.0), min_size=1, max_size=4))
    return periods, modes, cutoff, guard_times(periods, cutoff, ts)


def guard_times(periods, cutoff, scaled):
    """t with t (2 pi / L_max)^2 cutoff (cutoff+1) = scaled: the exponent of the
    lattice tail bound, so the first box certifies and is the reference's box, and
    small enough that t lambda_max, and so the dense reference's own error
    eps t lambda_max, stays far below 1e-12."""
    return np.array(scaled) * max(periods) ** 2 / (4 * math.pi ** 2 * cutoff * (cutoff + 1))


@given(hermitian_fourier_problem())
@example(((0.7,), {(1,): 0.3 + 0.2j, (-1,): 0.3 - 0.2j}, 6,
          guard_times((0.7,), 6, [35.0, 60.0])))
@example(((0.7, 0.9), {(1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.1j, (0, -1): -0.1j},
          5, guard_times((0.7, 0.9), 5, [40.0, 50.0])))
@example(((0.6, 0.8), {(1, 1): 0.2 + 0.3j, (-1, -1): 0.2 - 0.3j, (0, 0): 0.5},
          6, guard_times((0.6, 0.8), 6, [45.0])))
# a 3-D box whose third axis no mode touches
@example(((0.7, 0.9, 0.8), {(1, 2, 0): 0.3 - 0.1j, (-1, -2, 0): 0.3 + 0.1j},
          3, guard_times((0.7, 0.9, 0.8), 3, [35.0, 55.0])))
# an (x, y)-coupled mode beside a z mode
@example(((0.6, 0.9, 0.75), {(1, -1, 0): 0.4, (-1, 1, 0): 0.4, (0, 0, 2): 0.2j,
                             (0, 0, -2): -0.2j}, 3, guard_times((0.6, 0.9, 0.75), 3, [40.0])))
# separable modes with a zero mode, which sits on the first group only
@example(((0.8, 0.6), {(2, 0): 0.3, (-2, 0): 0.3, (0, 1): -0.4, (0, -1): -0.4, (0, 0): 0.7},
          5, guard_times((0.8, 0.6), 5, [35.0, 60.0])))
# a complex amplitude on one axis of a 2-D box
@example(((0.9, 0.5), {(0, 1): 0.2 + 0.3j, (0, -1): 0.2 - 0.3j},
          4, guard_times((0.9, 0.5), 4, [38.0, 52.0])))
# a draw where the eigenvalues of eigvalsh, not the blocks, miss by over 1e-12
@example(((0.9855, 0.5178, 0.5094), {(3, 0, 0): 0.02939, (-3, 0, 0): 0.02939,
                                     (0, 0, 0): -0.05283}, 3, np.array([0.11338])))
@settings(max_examples=60, deadline=None)
def test_torus_trace_blocks_match_dense_matrix(problem):
    periods, modes, cutoff, ts = problem
    want = dense_fourier_trace(periods, modes, cutoff, ts)
    got = spectra.torus_potential_trace(periods, modes, cutoff, ts)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    scalar = spectra.torus_potential_trace(periods, modes, cutoff, float(ts[-1]))
    assert isinstance(scalar, float) and scalar == got[-1]


@pytest.mark.parametrize("m,modes,groups", [
    (1, {}, [(0,)]),
    (1, {(0,): 2.0, (3,): 0.1, (-3,): 0.1}, [(0,)]),
    (2, {}, [(0,), (1,)]),
    (2, {(0, 0): 1.0}, [(0,), (1,)]),
    (2, {(2, 0): 0.1, (-2, 0): 0.1, (0, 1): 0.1, (0, -1): 0.1}, [(0,), (1,)]),
    (2, {(1, 1): 0.1, (-1, -1): 0.1}, [(0, 1)]),
    (3, {(0, 1, 0): 0.1, (0, -1, 0): 0.1}, [(0,), (1,), (2,)]),
    (3, {(1, 0, 1): 0.1, (-1, 0, -1): 0.1}, [(0, 2), (1,)]),
    (3, {(0, 1, 1): 0.1, (0, -1, -1): 0.1, (1, 0, 0): 0.1, (-1, 0, 0): 0.1},
     [(0,), (1, 2)]),
    (3, {(1, 1, 0): 0.1, (-1, -1, 0): 0.1, (0, 1, 1): 0.1, (0, -1, -1): 0.1},
     [(0, 1, 2)]),
    (4, {(0, 0, 1, 1): 0.1, (0, 0, -1, -1): 0.1, (1, 0, 0, 1): 0.1, (-1, 0, 0, -1): 0.1},
     [(0, 2, 3), (1,)]),
], ids=["circle", "circle-modes", "free-2d", "zero-mode-2d", "separable-2d", "diagonal-2d",
        "two-free-axes", "xz-and-free-y", "x-and-yz", "chain-xyz", "chain-through-w"])
def test_axis_groups(m, modes, groups):
    assert spectra._axis_groups(m, modes) == groups


@pytest.mark.parametrize("periods,modes", [
    ((2 * math.pi,), {(3,): 0.2, (-3,): 0.2}),
    ((0.7, 0.9), {(1, 0): 0.4, (-1, 0): 0.4, (1, 1): 0.2 + 0.3j, (-1, -1): 0.2 - 0.3j}),
], ids=["circle-cosine", "complex-phase-torus"])
def test_torus_trace_takes_a_backgrounds_own_modes(periods, modes):
    # the 1x1 blocks of FourierBackground.potential_modes and scalar amplitudes
    # describe one potential, and give the same trace bit for bit
    if len(periods) == 1:
        bg = spectra.FourierBackground.circle_cosine(periods[0], 3, 0.4)
    else:
        bg = spectra.FourierBackground(2, periods, potential_modes=modes)
    ts = guard_times(periods, 6, [35.0, 50.0])
    got = spectra.torus_potential_trace(bg.periods, bg.potential_modes, 6, ts)
    assert np.array_equal(got, spectra.torus_potential_trace(bg.periods, modes, 6, ts))


TORUS_BUILDERS = {
    "background": lambda periods: spectra.FourierBackground(len(periods), periods),
    "fourier-trace": lambda periods: spectra.torus_potential_trace(periods, {}, 8, 0.5),
    "geometry": lambda periods: tc.build_model_geometry("torus", len(periods), cutoff=2,
                                                        periods=periods),
    "lattice-oracle": lambda periods: nl.torus_oracle(nl.laplace_symbol(len(periods)),
                                                      t=0.5, periods=periods),
}


@pytest.mark.parametrize("name", sorted(TORUS_BUILDERS))
@pytest.mark.parametrize("periods", [(math.nan,), (2.0, math.inf), (1.0, 1e-101), (1.0, -2.0)],
                         ids=["nan", "inf", "below-min-length", "negative"])
def test_every_torus_route_checks_periods_alike(name, periods):
    with pytest.raises(ValidationError):
        TORUS_BUILDERS[name](periods)


def test_torus_trace_rejects_complex_potential():
    with pytest.raises(ValidationError):
        spectra.torus_potential_trace(2 * math.pi, {(1,): 1.0}, cutoff=8, t=0.5)
    with pytest.raises(ValidationError):
        spectra.torus_potential_trace(
            2 * math.pi, {(1,): 1j, (-1,): 1j}, cutoff=8, t=0.5)


def test_torus_trace_small_cutoff_doubles():
    # the box |n| <= 4 misses most of the weight at t = 1e-4, so it doubles until the
    # modes outside weigh at most 1e-10; Jacobi's imaginary transformation gives the
    # trace sqrt(pi/t) (1 + 2 sum_k e^{-pi^2 k^2 / t})
    t = 1e-4
    want = math.sqrt(math.pi / t) * (
        1.0 + 2.0 * sum(math.exp(-math.pi ** 2 * k * k / t) for k in range(1, 4)))
    got = spectra.torus_potential_trace(2 * math.pi, {}, cutoff=4, t=t)
    assert abs(got - want) <= 1e-13 * want
    # on a grid the box is sized for the smallest t
    grid = spectra.torus_potential_trace(2 * math.pi, {}, cutoff=4, t=np.array([1.0, t]))
    assert grid[1] == got


@pytest.mark.parametrize("m", [1, 2])
def test_torus_trace_constant_potential_shifts_the_tail(m):
    # Qhat_0 = 400 moves every eigenvalue up by 400, the modes outside the first box
    # too, so that box certifies: the trace is e^{-200} times the free theta product
    t = 0.5
    got = spectra.torus_potential_trace((2 * math.pi,) * m, {(0,) * m: 400.0}, cutoff=8, t=t)
    want = math.exp(-400.0 * t) * sum(math.exp(-t * n * n) for n in range(-60, 61)) ** m
    assert abs(got - want) < 1e-13 * want


def test_torus_trace_far_below_one_is_certified_relative_to_itself():
    # Qhat_0 = 1e6 scales the trace by e^{-100}, so an absolute tail floor of 1e-10
    # would certify the first box and miss 98% of it; 1e-10 times the sum does not
    t = 1e-4
    n = np.arange(-3000, 3001)    # e^{-t n^2} < e^{-900} past |n| = 3000
    want = math.exp(-100.0) * math.fsum(np.exp(-t * n * n))
    got = spectra.torus_potential_trace((2 * math.pi,), {(0,): 1e6}, 1, t)
    assert abs(got - want) <= 1e-10 * want


def test_torus_trace_below_the_float_range_needs_a_box_that_resolves_it():
    # Q = 1e6 (1 + cos x) on (2 pi, 2 pi): the least eigenvalue is about 707 (x box
    # |n| <= 128), so the trace at t = 1 is about 1.5e-307, a normal float.  The boxes
    # |n| <= 8 and 16 miss the ground state, their sums underflow to 0 and the tail
    # bound does not reach 1e-10 of the least normal float before the box passes the
    # budget; an absolute floor of 1e-10 returned 0.0 from the first box
    tp = 2 * math.pi
    with pytest.raises(ResourceError, match="over the cap of 4097"):
        spectra.torus_potential_trace(
            (tp, tp), {(0, 0): 1e6, (1, 0): 5e5, (-1, 0): 5e5}, cutoff=8, t=1.0)


def test_torus_trace_sum_that_underflows_is_certified_at_the_least_normal_float(monkeypatch):
    # the same potential on a circle at t = 1.05: the trace is about e^{-742}, below
    # the normal floats, and the box |n| <= 26 sums to 0.  Its tail bound, about
    # 1.5e-320, is under 1e-10 of the least normal float, so the first box certifies;
    # a floor of 1e-10 times the sum, 0 here, would double the box
    built = []
    spectrum = spectra._fourier_spectrum
    monkeypatch.setattr(spectra, "_fourier_spectrum",
                        lambda periods, modes, N: built.append(N) or spectrum(periods, modes, N))
    got = spectra.torus_potential_trace(
        (2 * math.pi,), {(0,): 1e6, (1,): 5e5, (-1,): 5e5}, cutoff=26, t=1.05)
    assert got == 0.0
    assert built == [26]


def test_torus_trace_group_factors_neither_overflow_nor_underflow():
    # the x factor with Qhat_0 = 1000 is about e^{-1000} and the y factor with its
    # 2 * 400 cos(y) about e^{+780}: alone, one underflows and the other overflows,
    # while their product, about e^{-220}, is the trace of the whole box
    modes = {(0, 0): 1000.0, (0, 1): 400.0, (0, -1): 400.0}
    ts = np.array([0.5, 1.0])
    got = spectra.torus_potential_trace((2 * math.pi, 2 * math.pi), modes, 8, ts)
    want = dense_fourier_trace((2 * math.pi, 2 * math.pi), modes, 8, ts)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_separable_torus_fixture_oracle_is_the_dense_matrix(tmp_path):
    # the fixture's modes leave the two axes apart, so its oracle is a product of two
    # 1-D traces; the dense matrix on the same box does not factor
    config = Path(__file__).resolve().parent.parent / "configs" / "torus_separable.ini"
    cfg = cli.RunConfig.from_ini(config)
    out = tmp_path / "torus_separable.csv"
    assert cli.main([cfg.task, "--config", str(config), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line[0].isdigit()]
    ts = np.array([float(r[0]) for r in rows])
    got = np.array([float(r[2]) for r in rows])
    assert np.array_equal(ts, np.asarray(cfg.grid))
    p = cfg.params
    want = dense_fourier_trace(p["periods"], p["modes"], p["cutoff"], ts)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def stack_walk_fourier_spectrum(periods, modes, cutoff):
    """Reference: the box spectrum with its blocks found by a stack walk over
    adjacency lists, each block's members sorted, and blocks of equal size stacked
    in the order of their least member: the same matrices spectra._fourier_spectrum
    hands to eigvalsh, built by Python loops over points and blocks."""
    m = len(periods)
    side = 2 * cutoff + 1
    coords = np.indices((side,) * m).reshape(m, -1).T - cutoff
    dim = len(coords)
    kvecs = 2.0 * math.pi * coords / np.array(periods)
    diag = np.sum(kvecs * kvecs, axis=1) + modes.get((0,) * m, 0.0).real

    strides = side ** np.arange(m - 1, -1, -1)
    couplings = []
    for k, amp in modes.items():
        if not any(k):
            continue
        src = np.flatnonzero(np.all(np.abs(coords + np.array(k)) <= cutoff, axis=1))
        couplings.append((amp, src, src + int(np.dot(k, strides))))

    nbrs = [[] for _ in range(dim)]
    for _, src, dst in couplings:
        for j, i in zip(src.tolist(), dst.tolist()):
            nbrs[j].append(i)
    label = [-1] * dim
    blocks = []
    for seed in range(dim):
        if label[seed] >= 0:
            continue
        label[seed] = len(blocks)
        members, stack = [seed], [seed]
        while stack:
            for i in nbrs[stack.pop()]:
                if label[i] < 0:
                    label[i] = label[seed]
                    members.append(i)
                    stack.append(i)
        blocks.append(sorted(members))

    label = np.array(label)
    sizes = np.array([len(b) for b in blocks])
    pos = np.empty(dim, dtype=int)
    for b in blocks:
        pos[b] = np.arange(len(b))
    real = all(amp.imag == 0 for amp, _, _ in couplings)
    slot = np.empty(len(blocks), dtype=int)
    lams = []
    for s in sorted(set(sizes.tolist())):
        ids = np.flatnonzero(sizes == s)
        slot[ids] = np.arange(len(ids))
        index = np.array([blocks[b] for b in ids])
        H = np.zeros((len(ids), s, s), dtype=float if real else complex)
        H[:, np.arange(s), np.arange(s)] = diag[index]
        for amp, src, dst in couplings:
            keep = sizes[label[src]] == s
            H[slot[label[src[keep]]], pos[dst[keep]], pos[src[keep]]] = \
                amp.real if real else amp
        lams.append(np.linalg.eigvalsh(H).ravel())
    return np.sort(np.concatenate(lams))


def seeded_fourier_box(seed):
    """A box of m = 1..3 axes with up to three mode pairs, an entry of each mode 0
    half the time, complex amplitudes half the time and a zero mode half the time."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    periods = tuple(rng.uniform(0.5, 2.0, m).tolist())
    cutoff = int(rng.integers(0, 4 if m == 3 else 8))
    complex_amps = bool(rng.integers(2))
    modes = {}
    for _ in range(int(rng.integers(0, 4))):
        k = tuple(int(rng.integers(-3, 4)) if rng.integers(2) else 0 for _ in range(m))
        re = float(rng.uniform(-0.5, 0.5))
        im = float(rng.uniform(-0.5, 0.5)) if complex_amps and any(k) else 0.0
        modes[k] = complex(re, im)
        modes[tuple(-x for x in k)] = complex(re, -im)
    if rng.integers(2):
        modes[(0,) * m] = complex(float(rng.uniform(-1.0, 1.0)))
    return periods, modes, cutoff


FOURIER_BOXES = {
    "free-2d": ((0.8, 1.1), {}, 5),
    "real-circle-zero-mode": ((2 * math.pi,), {(0,): 0.7 + 0j, (2,): 0.3 + 0j,
                                              (-2,): 0.3 + 0j}, 6),
    "complex-circle": ((0.7,), {(1,): 0.3 + 0.2j, (-1,): 0.3 - 0.2j}, 6),
    "complex-2d-zero-mode": ((0.6, 0.8), {(1, 1): 0.2 + 0.3j, (-1, -1): 0.2 - 0.3j,
                                          (0, 0): 0.5 + 0j}, 6),
    "real-3d": ((0.6, 0.9, 0.75), {(1, -1, 0): 0.4 + 0j, (-1, 1, 0): 0.4 + 0j,
                                   (0, 1, 2): 0.2 + 0j, (0, -1, -2): 0.2 + 0j}, 3),
    "complex-3d": ((0.7, 0.9, 0.8), {(1, 2, 0): 0.3 - 0.1j, (-1, -2, 0): 0.3 + 0.1j,
                                     (0, 0, 1): 0.1j, (0, 0, -1): -0.1j}, 3),
    # the box edge cuts the cosets of (3, 1) into chains of unequal length
    "edge-splits-cosets": ((1.0, 1.3), {(3, 1): 0.2 + 0.1j, (-3, -1): 0.2 - 0.1j}, 2),
    "chain-401": ((2 * math.pi,), {(1,): 0.2 + 0j, (-1,): 0.2 + 0j}, 200),
}
FOURIER_BOXES.update({f"seeded-{s}": seeded_fourier_box(s) for s in range(40)})


@pytest.mark.parametrize("box", FOURIER_BOXES.values(), ids=FOURIER_BOXES.keys())
def test_fourier_spectrum_equals_the_stack_walk_bit_for_bit(box):
    # the labelling and the sort give each block the same members in the same order,
    # and each size class its blocks in the same order, so eigvalsh sees the same
    # matrices
    want = stack_walk_fourier_spectrum(*box)
    got = spectra._fourier_spectrum(*box)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# torus_separable's periods and modes, and a torus of one group with the same periods
SEPARABLE = ((2 * math.pi, 6.5), {(2, 0): 0.004, (-2, 0): 0.004, (0, 1): 0.003,
                                  (0, -1): 0.003})
ONE_GROUP = ((2 * math.pi, 6.5), {(1, 1): 0.2, (-1, -1): 0.2, (1, -1): 0.1, (-1, 1): 0.1})
FIXTURE_T = np.geomspace(0.2, 0.5, 10)


@pytest.mark.parametrize("torus,bound", [(SEPARABLE, 3e-14), (ONE_GROUP, 8e-14)],
                         ids=["separable", "one-group"])
def test_torus_trace_is_invariant_under_translation(torus, bound):
    """Q(x) -> Q(x + x0) sends Qhat_n -> e^{i k_n . x0} Qhat_n, a unitary change of
    the box matrix, so the complex eigvalsh path must give the real path's trace.
    Both round their eigenvalues to about eps lambda_max, and t lambda_max is at most
    about 150 here: the worst relative gaps were 8.6e-15 (separable) and 2.0e-14
    (one group)."""
    (periods, modes), x0 = torus, np.array([0.3, -1.1])
    moved = {n: complex(np.exp(1j * (2 * math.pi * np.array(n) / periods) @ x0) * q)
             for n, q in modes.items()}
    want = spectra.torus_potential_trace(periods, modes, 12, FIXTURE_T)
    got = spectra.torus_potential_trace(periods, moved, 12, FIXTURE_T)
    assert np.max(np.abs(got - want) / want) < bound


@pytest.mark.parametrize("zero,bound", [(0.0, 1.5e-15), (0.5, 1e-14)],
                         ids=["no-zero-mode", "zero-mode"])
def test_torus_trace_is_invariant_under_swapping_the_axes(zero, bound):
    """Swapping the periods and every mode's entries reorders _axis_groups' groups, and
    Re Qhat_0 moves to the other axis's spectrum.  The worst relative gaps were 3.3e-16
    without a zero mode and 2.8e-15 with one."""
    periods, modes = SEPARABLE
    modes = {**modes, (0, 0): zero}
    want = spectra.torus_potential_trace(periods, modes, 12, FIXTURE_T)
    got = spectra.torus_potential_trace(periods[::-1], {n[::-1]: q for n, q in modes.items()},
                                        12, FIXTURE_T)
    assert np.max(np.abs(got - want) / want) < bound


@pytest.mark.parametrize("torus,bound", [(SEPARABLE, 1e-13), (ONE_GROUP, 2e-13)],
                         ids=["separable", "one-group"])
def test_torus_trace_is_invariant_under_scaling(torus, bound):
    """periods -> lam periods, Qhat -> Qhat / lam^2 and t -> lam^2 t divide the box
    matrix by lam^2 and keep the tail's exponents, so the trace is the same: the box
    and the tail run at a new scale.  Scaling keeps the box matrix up to that factor,
    so a box too small to resolve the low-lying eigenvectors (ROADMAP item 1) is as
    wrong at both scales, and this test cannot catch it.  The worst relative gaps
    were 2.9e-14 (separable) and 4.9e-14 (one group)."""
    (periods, modes), lam = torus, 1.7
    want = spectra.torus_potential_trace(periods, modes, 12, FIXTURE_T)
    got = spectra.torus_potential_trace(tuple(lam * p for p in periods),
                                        {n: q / lam ** 2 for n, q in modes.items()},
                                        12, lam ** 2 * FIXTURE_T)
    assert np.max(np.abs(got - want) / want) < bound


def mathieu_trace(q, t, levels=240):
    """Trace of exp(-t(-d^2/dx^2 + 2q cos 2x)) on the circle of length 2 pi from
    scipy's Mathieu characteristic values: sum_{n>=0} e^{-t a_n(q)} plus
    sum_{n>=1} e^{-t b_n(q)}, the pi- and 2 pi-periodic levels together."""
    from scipy.special import mathieu_a, mathieu_b
    n = np.arange(levels)
    return math.fsum(np.exp(-t * np.concatenate([mathieu_a(n, q), mathieu_b(n[1:], q)])))


# each bound is about 3 times the relative gap measured when the test was written
# (3.2e-14, 6.0e-15 and 2.9e-13); a box too small for its potential, such as
# cutoff 4 at q = 50 (off by 2.4e-7, ROADMAP item 1), is left to that item
@pytest.mark.parametrize("q,t,cutoff,bound", [(50.0, 0.5, 64, 1e-13), (5.0, 0.2, 16, 2e-14),
                                              (0.5, 1.0, 8, 1e-12)],
                         ids=["q50", "q5", "q0.5"])
def test_circle_trace_is_the_mathieu_sum(q, t, cutoff, bound):
    """The Fourier box against an exact spectrum that does not come from a box."""
    got = spectra.torus_potential_trace(2 * math.pi, {(2,): q, (-2,): q}, cutoff, t)
    want = mathieu_trace(q, t)
    assert abs(got - want) <= bound * want


def test_torus_trace_tail_loop_is_capped():
    # at t = 1e-300 no box certifies; doubling stops at the matrix budget
    with pytest.raises(ResourceError, match="over the cap of 4097"):
        spectra.torus_potential_trace(2 * math.pi, {}, cutoff=4, t=1e-300)


def test_torus_trace_budget_is_checked_before_the_box(monkeypatch):
    # boxes 9^2, 17^2 and 33^2 do not certify at t = 1e-4; 65^2 passes the budget and is
    # refused before it is built.  The budget counts the whole box, although the modes
    # leave the two axes apart and each box is built as two 1-D boxes.
    built = []
    spectrum = spectra._fourier_spectrum
    monkeypatch.setattr(spectra, "_fourier_spectrum",
                        lambda periods, modes, N: built.append(N) or spectrum(periods, modes, N))
    with pytest.raises(ResourceError, match="over the cap of 4097"):
        spectra.torus_potential_trace((2 * math.pi, 2 * math.pi),
                                      {(1, 0): 0.1, (-1, 0): 0.1}, cutoff=4, t=1e-4)
    assert list(dict.fromkeys(built)) == [4, 8, 16]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("unequal", [False, True], ids=["square", "unequal"])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_lattice_tail_bounds_the_modes_outside_the_box(m, unequal, N):
    periods = (1.7, 1.0, 0.6)[:m] if unequal else (1.0,) * m
    ts = np.array([0.01, 0.1, 1.0])
    n = np.arange(-40, 41)        # e^{-t|k|^2} < e^{-200} past |n| = 40
    k2 = sum(g.ravel() ** 2 for g in np.meshgrid(
        *[2 * math.pi * n / p for p in periods], indexing="ij"))
    outside = np.max(np.abs(np.stack(np.meshgrid(*[n] * m, indexing="ij"))), axis=0).ravel() > N
    brute = np.exp(-np.multiply.outer(ts, k2[outside])).sum(axis=1)
    for shift in (0.0, -0.7, 2.0):
        bound = spectra._lattice_tail(ts, N, periods, shift)
        assert np.all(bound >= brute * np.exp(-ts * shift))


@pytest.mark.parametrize("oracle", [
    lambda: spectra.torus_potential_trace(2 * math.pi, {}, 0, 0.5),
    lambda: nl.torus_oracle(nl.laplace_symbol(2), t=0.5, cutoff=0),
    lambda: za.bessel_oracle(0.1, za.WedgePoint(1.0, 0.1), za.WedgePoint(1.0, 0.1), terms=0),
], ids=["fourier", "lattice", "bessel"])
def test_first_size_zero_is_rejected(oracle):
    # a first size of 0 would double to 0 forever; _sizes refuses it before the driver runs
    with pytest.raises(ValidationError, match=r"needs a shape of positive integers, not \(0,\)"):
        oracle()


@pytest.mark.parametrize("amp", [math.nan, math.inf, complex(0.1, math.nan)])
def test_torus_trace_rejects_non_finite_amplitude(amp):
    modes = {(1,): amp, (-1,): amp.conjugate() if isinstance(amp, complex) else amp}
    with pytest.raises(ValidationError, match="not finite"):
        spectra.torus_potential_trace(2 * math.pi, modes, cutoff=8, t=0.5)


@pytest.mark.parametrize("periods,t", [
    ((math.nan,), 0.5), ((math.inf,), 0.5), ((2 * math.pi,), math.nan),
    ((2 * math.pi,), np.array([0.5, 0.0])), ((2 * math.pi,), np.zeros((2, 2))),
])
def test_torus_trace_rejects_bad_periods_and_times(periods, t):
    with pytest.raises(ValidationError):
        spectra.torus_potential_trace(periods, {}, cutoff=8, t=t)


@pytest.mark.parametrize("periods,modes,match", [
    ((1e-300,), {}, "period 1e-300 is below 1e-100 or not finite"),
    ((1.0, 1e-101), {}, "period 1e-101 is below 1e-100 or not finite"),
    ((1.0,), {(10 ** 21,): 0.1, (-10 ** 21,): 0.1}, "exceeds 9007199254740992"),
    ((1.0,), {(1,): 1e101, (-1,): 1e101}, "exceeds 1e\\+100"),
])
def test_torus_trace_rejects_out_of_range_inputs(periods, modes, match):
    with pytest.raises(ValidationError, match=match):
        spectra.torus_potential_trace(periods, modes, cutoff=4, t=0.5)


@pytest.mark.parametrize("x", [-1.0, 0.0, math.nan, math.inf, 1e-101])
@pytest.mark.parametrize("call,what", [
    (lambda x: spectra._periods((1.0, x), 2), "period"),
    (lambda x: spectra.interval_trace(x, "DD", 0.1), "interval length"),
    (lambda x: spectra.sphere_trace(2, x, 0.1), "sphere radius"),
    (lambda x: tc.build_model_geometry("sphere", 2, cutoff=2, radius=x), "sphere radius"),
    (lambda x: ss.build_symmetric_space("S2", x), "sphere radius"),
], ids=["periods", "interval_trace", "sphere_trace", "build_model_geometry",
        "build_symmetric_space"])
def test_every_length_has_the_one_check(call, what, x):
    # periods, interval lengths and sphere radii all go through spectra._number
    message = f"{what} {x!r} is below 1e-100 or not finite"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(x)


def test_fourier_and_interval_range_edges_are_accepted():
    # at the edges every square stays a float: no warning, a finite trace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mode = spectra.MAX_MODE
        free = spectra.torus_potential_trace((2 * math.pi,), {}, cutoff=8, t=0.5)
        far = spectra.torus_potential_trace((2 * math.pi,), {(mode,): 0.1, (-mode,): 0.1},
                                            cutoff=8, t=0.5)
        assert far == free
        assert spectra.interval_trace(spectra.MIN_LENGTH, "NN", 0.1) == 1.0
    with pytest.raises(ValidationError, match="below 1e-100"):
        spectra.interval_trace(1e-300, "DD", 0.1)


def test_torus_trace_matrix_budget():
    with pytest.raises(ResourceError):
        spectra.torus_potential_trace((1.0, 1.0), {}, cutoff=40, t=10.0)


def test_torus_trace_dimension_checks():
    with pytest.raises(ValidationError):
        spectra.torus_potential_trace((1.0, 1.0), {(1,): 1.0, (-1,): 1.0},
                                      cutoff=4, t=10.0)
    with pytest.raises(ValidationError):
        spectra.torus_potential_trace((1.0, -1.0), {}, cutoff=4, t=10.0)


# ---------------------------------------------------------------------------
# expansion fitting
# ---------------------------------------------------------------------------

def synth_samples(coeffs_by_exp, ts):
    return [(t, sum(c * t ** e for e, c in coeffs_by_exp.items())) for t in ts]


def test_fit_recovers_exact_expansion():
    truth = {-1.0: 2.0, 0.0: 0.7, 1.0: -0.05}
    ts = np.geomspace(1e-3, 1e-1, 12)
    fit = spectra.fit_expansion(synth_samples(truth, ts), m=2,
                                exponents=(-1.0, 0.0, 1.0))
    for e, c in zip(fit.exponents, fit.coefficients):
        assert abs(c - truth[e]) < 1e-9 * max(1.0, abs(truth[e]))
    assert fit.condition_number < 1e12
    assert np.all(fit.errors >= 0.0)


def test_fit_bootstrap_is_seeded():
    truth = {-1.0: 1.0, 0.0: 0.3}
    ts = np.geomspace(1e-3, 1e-1, 10)
    samples = synth_samples(truth, ts)
    a = spectra.fit_expansion(samples, m=2, exponents=(-1.0, 0.0), seed=7)
    b = spectra.fit_expansion(samples, m=2, exponents=(-1.0, 0.0), seed=7)
    assert np.array_equal(a.errors, b.errors)


def test_fit_rejects_degenerate_design():
    ts = np.geomspace(1e-3, 1e-1, 10)
    samples = synth_samples({-1.0: 1.0}, ts)
    with pytest.raises(NumericError):
        spectra.fit_expansion(samples, m=2, exponents=(-1.0, -1.0 + 1e-15))


def test_fit_input_validation():
    with pytest.raises(ValidationError):
        spectra.fit_expansion([], m=2, exponents=(-1.0,))
    with pytest.raises(ValidationError):
        spectra.fit_expansion([(0.1, 1.0)], m=2, exponents=(-1.0, 0.0))


# ---------------------------------------------------------------------------
# non-finite library inputs
# ---------------------------------------------------------------------------

_WEDGE = za.WedgePoint(1.0, 0.1)
NON_FINITE_INPUTS = {
    "torus-oracle-nan-Q": lambda: nl.torus_oracle(nl.laplace_symbol(1), Q=[[math.nan]], t=0.1),
    "torus-oracle-inf-Q": lambda: nl.torus_oracle(nl.laplace_symbol(1), Q=[[math.inf]], t=0.1),
    "leading-symbol-nan": lambda: nl.LeadingSymbol(m=1, d=1, a=[[[[math.nan]]]]),
    "landau-inf-field": lambda: spectra.landau_trace_density(math.inf, 0.1),
    "bessel-nan-tol": lambda: za.bessel_oracle(0.1, _WEDGE, _WEDGE, tol=math.nan),
    "bessel-zero-tol": lambda: za.bessel_oracle(0.1, _WEDGE, _WEDGE, tol=0.0),
    "bessel-negative-tol": lambda: za.bessel_oracle(0.1, _WEDGE, _WEDGE, tol=-1e-10),
    "fit-nan-sample": lambda: spectra.fit_expansion(
        [(t, 1.0 / t) for t in (0.1, 0.2, 0.4)] + [(0.8, math.nan)], m=2, exponents=(-1.0,)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
def test_non_finite_inputs_are_validation_errors(name):
    with pytest.raises(ValidationError):
        NON_FINITE_INPUTS[name]()
