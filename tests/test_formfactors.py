"""Universal constants, form-factor branches, and the quadratic functional."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from heatkern import formfactors as ff
from heatkern import hmds, tensorcalc as tc
from heatkern.errors import NumericError, ValidationError


# ---------------------------------------------------------------------------
# universal constants
# ---------------------------------------------------------------------------

def closed_f(i, k):
    k = Fraction(k)
    return {
        1: Fraction(1),
        2: 1 / (2 * (2 * k - 1)),
        3: (k - 1) / (2 * (2 * k - 1)),
        4: 1 / (2 * (4 * k * k - 1)),
        5: (k * k - k - 1) / (4 * (4 * k * k - 1)),
    }[i]


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", range(2, 9))
def test_f_universal_closed_forms(i, k):
    got = ff.f_universal(i, k)
    assert isinstance(got, Fraction)
    assert got == closed_f(i, k)


def test_f_universal_row_k2():
    row = [ff.f_universal(i, 2) for i in (1, 2, 3, 4, 5)]
    assert row == [Fraction(1), Fraction(1, 6), Fraction(1, 6),
                   Fraction(1, 30), Fraction(1, 60)]


def test_f_universal_validation():
    with pytest.raises(ValidationError):
        ff.f_universal(6, 2)
    with pytest.raises(ValidationError):
        ff.f_universal(1, 1)


def test_profile_spot_values():
    assert ff.f_profile(1, 0.37) == 1.0
    assert abs(ff.f_profile(2, 1.0) - 0.5) < 1e-15
    assert abs(ff.f_profile(3, 0.0) - 0.25) < 1e-15
    assert abs(ff.f_profile(4, 1.0) - 1.0 / 6.0) < 1e-15
    assert abs(ff.f_profile(5, 1.0) + 1.0 / 12.0) < 1e-15


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_profile_integral_is_f2(i):
    # integral over [0, 1] of the profile equals the k = 2 universal constant
    xs, ws = np.polynomial.legendre.leggauss(40)
    xs = 0.5 * (xs + 1.0)
    val = 0.5 * sum(w * ff.f_profile(i, x) for x, w in zip(xs, ws))
    assert abs(val - float(ff.f_universal(i, 2))) < 1e-14


# ---------------------------------------------------------------------------
# gamma factors
# ---------------------------------------------------------------------------

def exact_moment(j, n):
    """int_0^1 xi^{2j} (1 - xi^2)^n dxi as a Fraction."""
    num = Fraction(math.factorial(n) * 2 ** n)
    den = Fraction(1)
    for i in range(n + 1):
        den *= 2 * j + 2 * i + 1
    return num / den


def gamma_series_oracle(i, z, nmax):
    """Truncated exact-rational series for gamma^(i)(z), built independently."""
    poly = {1: {0: Fraction(1)},
            2: {1: Fraction(1, 2)},
            3: {0: Fraction(1, 4), 1: Fraction(-1, 4)},
            4: {2: Fraction(1, 6)},
            5: {0: Fraction(3, 48), 1: Fraction(-6, 48), 2: Fraction(-1, 48)}}[i]
    total = 0.0
    for n in range(nmax + 1):
        mom = sum(c * exact_moment(j, n) for j, c in poly.items())
        total += (-z / 4.0) ** n / math.factorial(n) * float(mom)
    return total


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_gamma_at_zero_is_f2(i):
    assert abs(ff.gamma_factor(i, 0.0) - float(ff.f_universal(i, 2))) < 1e-12


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_gamma_quadrature_vs_series_oracle_at_z4(i):
    # z = 4 exercises the closed-form branch; the oracle is a 40-term exact
    # rational Taylor sum evaluated in floating point only at the end
    assert abs(ff.gamma_factor(i, 4.0) - gamma_series_oracle(i, 4.0, 40)) < 1e-12


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("z", [1.0, 2.5, 5.0, 10.0])
def test_gamma_branch_agreement(i, z):
    assert abs(ff.gamma_factor(i, z) - ff._gamma_series(i, np.array([z]))[0]) < 1e-10


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_gamma_branch_continuity(i):
    lo = ff.gamma_factor(i, 1.0 - 1e-9)
    hi = ff.gamma_factor(i, 1.0 + 1e-9)
    assert abs(hi - lo) < 1e-9


def test_gamma_one_positive_decreasing():
    zs = np.linspace(0.0, 50.0, 26)
    vals = [ff.gamma_factor(1, z) for z in zs]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gamma_negative_argument_uses_series():
    # entire function: negative z grows smoothly, no branch issues
    v = ff.gamma_factor(1, -2.0)
    assert abs(v - gamma_series_oracle(1, -2.0, 60)) < 1e-12


def test_gamma_family_validation():
    with pytest.raises(ValidationError):
        ff.gamma_factor(0, 1.0)


@pytest.mark.parametrize("z", [1e4, 1e5, 1e6])
def test_gamma_one_large_z_asymptotic_series(z):
    # gamma^(1)(z) = 2/z + 4/z^2 + 24/z^3 + 240/z^4 + ...; the integrand is a
    # spike of width 1/z at xi = 1, which adaptive quadrature can miss while
    # reporting a tiny error estimate
    series = 2.0 / z + 4.0 / z ** 2 + 24.0 / z ** 3
    assert abs(ff.gamma_factor(1, z) - series) <= 241.0 / z ** 4 + 1e-15 * series


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_gamma_closed_form_vs_quadrature(i):
    from scipy.integrate import quad

    for z in np.concatenate([np.linspace(1.0, 10.0, 19), np.geomspace(10.0, 1000.0, 21)]):
        ref, _ = quad(lambda xi: ff.f_profile(i, xi) * math.exp(-(1.0 - xi * xi) * z / 4.0),
                      0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)
        assert abs(ff.gamma_factor(i, z) - ref) < 1e-12, z


def test_dawson_vs_scipy():
    from scipy.special import dawsn

    # both sides of the switch to the asymptotic series at x = 50, out to 1e150
    xs = np.concatenate([np.geomspace(0.5, 1e4, 400), np.linspace(45.0, 55.0, 101),
                         np.geomspace(1e4, 1e150, 60)])
    rel = np.max(np.abs(ff._dawson(xs) - dawsn(xs)) / dawsn(xs))
    assert rel < 1e-14


# both sides of z = 1, both sides of the asymptotic switch at x = sqrt(z/4) = 50
SCALAR_GRID = ([-6.0, -3.7, -1.0, -1e-9, 0.0, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9]
               + list(np.linspace(1.5, 40.0, 12)) + [1e4 - 1e-9, 1e4, 2.5e5, 1e300])


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_gamma_factor_is_the_array_kernel_bit_for_bit(i):
    for z in SCALAR_GRID:
        assert ff.gamma_factor(i, z) == ff._gamma(i, np.array([z]))[0], z


def test_gamma_series_failure_is_the_same_on_both_paths():
    with pytest.raises(NumericError) as scalar:
        ff.gamma_factor(1, -1e4)
    with pytest.raises(NumericError) as array:
        ff._gamma(1, np.array([-1e4]))
    assert str(scalar.value) == str(array.value)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_gamma_non_finite_argument_rejected(z):
    with pytest.raises(ValidationError):
        ff.gamma_factor(1, z)


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_gamma_resummation_from_universal_constants(i):
    # gamma^(i)(z) = sum_{k>=2} (-1)^k z^{k-2} (k-2)!/(2k-3)! f^(i)_k
    z = 0.4
    total = 0.0
    for k in range(2, 40):
        total += ((-1.0) ** k * z ** (k - 2)
                  * math.factorial(k - 2) / math.factorial(2 * k - 3)
                  * float(ff.f_universal(i, k)))
    assert abs(ff.gamma_factor(i, z) - total) < 1e-13


# ---------------------------------------------------------------------------
# backgrounds
# ---------------------------------------------------------------------------

def test_circle_cosine_layout():
    bg = ff.FourierBackground.circle_cosine(2 * math.pi, 3, 0.1)
    assert bg.volume == pytest.approx(2 * math.pi)
    assert set(bg.potential_modes) == {(3,), (-3,)}
    assert bg.potential_modes[(3,)][0, 0] == pytest.approx(0.05)
    assert np.allclose(bg.wavevector((3,)), [3.0])


def test_background_hermiticity_enforced():
    with pytest.raises(ValidationError):
        ff.FourierBackground(m=1, periods=(1.0,), potential_modes={(1,): 1.0})
    with pytest.raises(ValidationError):
        ff.FourierBackground(m=1, periods=(1.0,),
                             potential_modes={(1,): 1j, (-1,): 1j})


@pytest.mark.parametrize("kwargs,match", [
    (dict(periods=(1e-300,), potential_modes={(1,): 0.1, (-1,): 0.1}), "below 1e-100"),
    (dict(periods=(1.0,), potential_modes={(10 ** 21,): 0.1, (-10 ** 21,): 0.1}),
     "exceeds 9007199254740992"),
    (dict(periods=(1.0,), potential_modes={(1,): 1e300, (-1,): 1e300}), "exceeds 1e\\+100"),
])
def test_background_rejects_out_of_range_inputs(kwargs, match):
    # every |k(n)|^2 and |Qhat|^2 the channel sums form must stay a float
    with pytest.raises(ValidationError, match=match):
        ff.FourierBackground(m=1, **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(m=1, periods=(1.0,), potential_modes={(1,): np.eye(2), (-1,): np.eye(2)}),
    dict(m=1, periods=(1.0,), d=2, potential_modes={(0,): [1.0, 2.0, 3.0]}),
    dict(m=2, periods=(1.0, 1.0), curvature_modes={(1, 0): np.zeros((2, 1, 1)),
                                                   (-1, 0): np.zeros((2, 1, 1))}),
], ids=["potential-2x2-for-d-1", "potential-3-for-d-2", "curvature-2x1x1-for-m-2"])
def test_background_rejects_blocks_of_the_wrong_shape(kwargs):
    with pytest.raises(ValidationError, match="not a block of shape"):
        ff.FourierBackground(**kwargs)


@pytest.mark.parametrize("m,d", [(0, 1), (1, 0), (1, -1), (1.0, 1)])
def test_background_needs_positive_integer_sizes(m, d):
    with pytest.raises(ValidationError, match="positive integers"):
        ff.FourierBackground(m=m, periods=(1.0,) * int(m), d=d,
                             potential_modes={(0,) * int(m): 1.0})


def test_background_curvature_amplitude_bound():
    m, d = 2, 1
    b = np.zeros((m, m, d, d), dtype=complex)
    b[0, 1], b[1, 0] = 1e101, -1e101
    with pytest.raises(ValidationError, match="exceeds 1e\\+100"):
        ff.FourierBackground(m=m, periods=(1.0, 1.0),
                             curvature_modes={(1, 0): b, (-1, 0): -np.conj(b)})


def test_background_curvature_constraints():
    m, d = 2, 1
    b = np.zeros((m, m, d, d), dtype=complex)
    b[0, 1], b[1, 0] = 0.3, -0.3
    good = {(1, 0): b, (-1, 0): -np.conj(b.transpose(0, 1, 3, 2))}
    ff.FourierBackground(m=m, periods=(1.0, 1.0), curvature_modes=good)

    bad_pair = {(1, 0): b, (-1, 0): np.conj(b.transpose(0, 1, 3, 2))}
    with pytest.raises(ValidationError):
        ff.FourierBackground(m=m, periods=(1.0, 1.0), curvature_modes=bad_pair)

    sym = np.zeros((m, m, d, d), dtype=complex)
    sym[0, 1] = sym[1, 0] = 1.0
    with pytest.raises(ValidationError):
        ff.FourierBackground(m=m, periods=(1.0, 1.0),
                             curvature_modes={(1, 0): sym, (-1, 0): -sym})


def test_background_rejects_zero_mode_curvature():
    m, d = 2, 1
    b = np.zeros((m, m, d, d), dtype=complex)
    b[0, 1], b[1, 0] = 1j, -1j
    with pytest.raises(ValidationError, match="zero-mode"):
        ff.FourierBackground(m=m, periods=(1.0, 1.0), curvature_modes={(0, 0): b})


# ---------------------------------------------------------------------------
# the quadratic functional
# ---------------------------------------------------------------------------

def test_h_functional_circle_closed_form():
    q, L = 0.01, 2 * math.pi
    bg = ff.FourierBackground.circle_cosine(L, 3, q)
    pref = (4 * math.pi) ** -0.5 * math.pi * q * q / 2.0
    for t in (0.05, 0.2, 0.5):
        want = pref * ff.gamma_factor(1, 9.0 * t)
        assert abs(ff.h_functional(bg, t) - want) < 1e-15 + 1e-12 * abs(want)


def test_h_functional_constant_potential():
    # zero mode: gamma^(1)(0) = 1, so H = (4 pi)^{-1/2} (vol/2) q^2
    q, L = 0.3, 5.0
    bg = ff.FourierBackground(m=1, periods=(L,), potential_modes={(0,): q})
    want = (4 * math.pi) ** -0.5 * L / 2.0 * q * q
    assert abs(ff.h_functional(bg, 0.7) - want) < 1e-14


def test_h_functional_quadratic_scaling():
    bg1 = ff.FourierBackground.circle_cosine(2 * math.pi, 2, 0.1)
    bg3 = ff.FourierBackground.circle_cosine(2 * math.pi, 2, 0.3)
    t = 0.11
    assert abs(ff.h_functional(bg3, t) - 9.0 * ff.h_functional(bg1, t)) < 1e-15


def torus_curvature_background(c=0.25):
    m, d = 2, 1
    b = np.zeros((m, m, d, d), dtype=complex)
    b[0, 1], b[1, 0] = c, -c
    modes = {(1, 0): b, (-1, 0): -np.conj(b.transpose(0, 1, 3, 2))}
    return ff.FourierBackground(m=m, periods=(2 * math.pi, 2 * math.pi),
                                curvature_modes=modes), c


def test_h_functional_curvature_channel():
    # modes +-(1, 0) with |k|^2 = 1: each contributes 2 gamma2 tr(Rhat(-k)
    # Rhat(k)) = -2 gamma2 c^2 through the transverse contraction, so
    # H = (4 pi)^{-1} (vol/2) (-4 c^2) gamma^(2)(t)
    bg, c = torus_curvature_background()
    t = 0.3
    want = ((4 * math.pi) ** -1.0 * bg.volume / 2.0
            * (-4.0 * c * c) * ff.gamma_factor(2, t))
    got = ff.h_functional(bg, t)
    assert got < 0.0
    assert abs(got - want) < 1e-14 * abs(want)


def test_h_functional_validation():
    bg = ff.FourierBackground.circle_cosine(1.0, 1, 0.1)
    with pytest.raises(ValidationError):
        ff.h_functional(bg, 0.0)


# ---------------------------------------------------------------------------
# the mode sum: one weight evaluation per distinct |k|^2
# ---------------------------------------------------------------------------

def reference_channel_sums(bg, weight1, weight2):
    """The mode sum with one weight call per mode: the reference that ff._channel_sums,
    which calls each weight once per distinct |k|^2, must match bit for bit."""
    total = 0.0
    for n in sorted(bg.potential_modes):
        k = bg.wavevector(n)
        kk = float(k @ k)
        qq = np.trace(bg.potential_modes[tuple(-x for x in n)]
                      @ bg.potential_modes[n]).real
        total += weight1(kk) * qq
    for n in sorted(bg.curvature_modes):
        k = bg.wavevector(n)
        kk = float(k @ k)
        contr = np.einsum("a,b,agij,bgji->", k, k, bg.curvature_modes[tuple(-x for x in n)],
                          bg.curvature_modes[n]).real / kk
        total += 2.0 * weight2(kk) * contr
    return total


def hermitian(half):
    """{n: q, -n: conj(q)} for each n of `half`."""
    return half | {tuple(-x for x in n): np.conj(q) for n, q in half.items()}


def square_torus(lam=1.0):
    """Potential modes (+-1, 0) and (0, +-1) at |k|^2 = 1/lam^2, (+-1, +-1) at 2/lam^2,
    on the square torus of side 2 pi lam, with the amplitudes divided by lam^2."""
    half = {(1, 0): 0.3, (0, 1): 0.2 - 0.1j, (1, 1): 0.1 + 0.05j, (1, -1): -0.15}
    modes = hermitian({n: q / lam ** 2 for n, q in half.items()})
    return ff.FourierBackground(2, (2 * math.pi * lam,) * 2, potential_modes=modes)


def curved_torus():
    """Curvature modes +-(1, 0) and +-(0, 1), all at |k|^2 = 1, and potential modes
    +-(1, 0) at the same |k|^2, on the square torus of side 2 pi."""
    curvature = {}
    for n, c in (((1, 0), 0.25), ((0, 1), 0.1 + 0.2j)):
        b = np.zeros((2, 2, 1, 1), dtype=complex)
        b[0, 1], b[1, 0] = c, -c
        curvature[n] = b
        curvature[tuple(-x for x in n)] = -np.conj(b.transpose(0, 1, 3, 2))
    return ff.FourierBackground(2, (2 * math.pi,) * 2, potential_modes=hermitian({(1, 0): 0.2}),
                                curvature_modes=curvature)


# each background's _gamma calls per h_functional: {family i: distinct |k|^2 in its channel}
SHARED_KK = [
    (lambda: ff.FourierBackground.circle_cosine(2 * math.pi, 3, 0.1), {1: 1}),
    (square_torus, {1: 2}),
    (curved_torus, {1: 1, 2: 1}),
]


@pytest.mark.parametrize("make_bg", [bg for bg, _ in SHARED_KK], ids=["circle", "torus", "curved"])
def test_mode_sum_matches_one_call_per_mode_bit_for_bit(make_bg, monkeypatch):
    # t up to 3 puts t |k|^2 on both sides of _gamma's switch at z = 1
    bg = make_bg()
    ts = np.geomspace(0.01, 3.0, 9)

    def values():
        return ([ff.h_functional(bg, t) for t in (0.05, 2.5, ts)]
                + [ff.a2k2_coefficient(bg, k) for k in range(2, 7)])
    got = values()
    monkeypatch.setattr(ff, "_channel_sums", reference_channel_sums)
    want = values()
    assert [type(x) for x in got[:3]] == [float, float, np.ndarray]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)


@pytest.mark.parametrize("make_bg,calls", SHARED_KK, ids=["circle", "torus", "curved"])
def test_each_form_factor_runs_once_per_distinct_kk(make_bg, calls, monkeypatch):
    bg, seen, gamma = make_bg(), Counter(), ff._gamma

    def counted(i, z):
        seen[i] += 1
        return gamma(i, z)
    monkeypatch.setattr(ff, "_gamma", counted)
    ff.h_functional(bg, np.geomspace(0.01, 3.0, 9))
    assert seen == calls


# ---------------------------------------------------------------------------
# coefficient resummation
# ---------------------------------------------------------------------------

def test_a2k2_partial_sums_converge_to_h_circle():
    bg = ff.FourierBackground.circle_cosine(2 * math.pi, 3, 0.02)
    t = 0.05
    partial = sum(t ** (k - 2) * ff.a2k2_coefficient(bg, k) for k in range(2, 9))
    want = ff.h_functional(bg, t)
    assert abs(partial - want) < 1e-8 * abs(want)


def test_a2k2_partial_sums_converge_to_h_torus():
    bg, _ = torus_curvature_background(0.15)
    t = 0.05
    partial = sum(t ** (k - 2) * ff.a2k2_coefficient(bg, k) for k in range(2, 9))
    want = ff.h_functional(bg, t)
    assert abs(partial - want) < 1e-5 * abs(want)


def test_a2k2_leading_order_is_small_t_limit():
    bg = ff.FourierBackground.circle_cosine(2 * math.pi, 2, 0.1)
    assert abs(ff.h_functional(bg, 1e-9) - ff.a2k2_coefficient(bg, 2)) \
        < 1e-8 * abs(ff.a2k2_coefficient(bg, 2))


def test_a2k2_validation():
    bg = ff.FourierBackground.circle_cosine(1.0, 1, 0.1)
    with pytest.raises(ValidationError):
        ff.a2k2_coefficient(bg, 1)


# ---------------------------------------------------------------------------
# invariances of the form-factor column, and HMDS against the form factors
# ---------------------------------------------------------------------------

def test_h_functional_is_invariant_under_scaling():
    """periods -> lam periods, Qhat -> Qhat / lam^2 and t -> lam^2 t keep every t |k|^2
    and multiply vol |Qhat|^2 by lam^-2, so t^{2 - m/2} H(t) = t H(t) is the same at
    m = 2.  t |k|^2 runs from 0.01 to 2, over both branches of _gamma.  Scaling keeps
    each t |k|^2 up to rounding, which is the whole gap: the worst was 4.0e-16."""
    lam = 1.7
    ts = np.geomspace(0.01, 1.0, 8)
    want = ts * ff.h_functional(square_torus(), ts)
    got = lam ** 2 * ts * ff.h_functional(square_torus(lam), lam ** 2 * ts)
    assert np.max(np.abs(got - want) / want) < 1.5e-15


def test_h_functional_is_invariant_under_translation():
    """Q(x) -> Q(x + x0) sends Qhat_n -> e^{i k_n . x0} Qhat_n, which leaves every
    tr(Qhat_{-n} Qhat_n) and so H(t) unchanged up to the rounding of the phases.  The
    worst relative gap was 2.3e-16."""
    bg, x0 = square_torus(), np.array([0.3, -1.1])
    moved = ff.FourierBackground(2, bg.periods, potential_modes={
        n: np.exp(1j * bg.wavevector(n) @ x0) * q for n, q in bg.potential_modes.items()})
    ts = np.geomspace(0.01, 3.0, 9)
    want = ff.h_functional(bg, ts)
    assert np.max(np.abs(ff.h_functional(moved, ts) - want) / want) < 1e-15


def hmds_quadratic_part(bg, kmax):
    """The eps^2 part of (4 pi)^{-1/2} (-1)^k / k! int tr a_k for k <= kmax on the circle
    `bg` with Q scaled by eps, from the HMDS recursion at base points x.

    The jet of Q at x holds eps sum_n Qhat_n e^{i k_n x} (i k_n)^j / j! (real: the +-n
    terms are conjugate).  a_k is a trigonometric polynomial of degree at most
    k n_max in x, so the trapezoid rule on 4 kmax n_max + 1 points integrates it
    exactly, and it is a polynomial of degree k in eps, so kmax + 1 values of eps
    fit it exactly."""
    L = bg.periods[0]
    modes = [(bg.wavevector(n)[0], q[0, 0]) for n, q in bg.potential_modes.items()]
    points = 4 * kmax * max(abs(n[0]) for n in bg.potential_modes) + 1
    cap = 2 * kmax
    geom = tc.build_model_geometry("torus", 1, cutoff=cap, periods=(L,))
    j = np.arange(cap + 1)
    fact = np.array([math.factorial(i) for i in j], dtype=float)
    eps = np.linspace(-0.5, 0.5, kmax + 1)
    integrals = np.zeros((kmax + 1, kmax + 1))
    for x in L * np.arange(points) / points:
        jet = sum(q * np.exp(1j * k * x) * (1j * k) ** j / fact for k, q in modes)
        for row, e in enumerate(eps):
            pot = tc.PotentialJet(1, 1, cap, (e * jet.real)[:, None, None], np.zeros((1, 1, 1, 1)))
            coeffs = hmds.hmds_coefficients(hmds.build_operator_jet(geom, pot, cap), kmax, 0)
            integrals[row] += [c.diagonal[0, 0].real * L / points for c in coeffs]
    pref = [(4 * math.pi) ** -0.5 * (-1) ** k / math.factorial(k) for k in range(kmax + 1)]
    return np.linalg.solve(np.vander(eps, increasing=True), integrals * pref)[2]


# worst relative gaps over k = 2..5: 1.1e-15 (cosine) and 1.5e-15 (two modes)
@pytest.mark.parametrize("bg", [
    ff.FourierBackground.circle_cosine(2 * math.pi, 1, 0.3),
    ff.FourierBackground(1, (3.0,), potential_modes=hermitian({(2,): 0.2 + 0.1j, (1,): 0.1})),
], ids=["cosine", "two-modes"])
def test_hmds_quadratic_part_is_a2k2_coefficient(bg):
    """Barvinsky-Vilkovisky (Nucl. Phys. B 333 (1990) 471): the part of A_2k quadratic
    in Q from the HMDS recursion is the form factors' a2k2_coefficient, k = 2..5."""
    kmax = 5
    got = hmds_quadratic_part(bg, kmax)[2:]
    want = np.array([ff.a2k2_coefficient(bg, k) for k in range(2, kmax + 1)])
    assert np.max(np.abs(got - want) / np.abs(want)) < 5e-15
