"""Universal quadratic-term constants, profiles, and entire form factors.

The trace coefficients quadratic in the background (potential Q, connection
curvature R) are controlled by five universal constant families f^(i)_k,
equivalently by five profile functions f^(i)(xi) on [0,1], equivalently by
five entire functions

    gamma^(i)(z) = int_0^1 dxi f^(i)(xi) exp(-(1 - xi^2) z / 4),

related order by order through

    gamma^(i)(z) = sum_{k>=2} (-1)^k z^{k-2} (k-2)!/(2k-3)! f^(i)_k.

_gamma evaluates gamma^(i) on an array of z: that Taylor series below z = 1,
with float coefficients built once per order; above it, since each profile
is a polynomial in xi^2, a closed form in Dawson's function D, which _dawson
evaluates with numpy.  gamma_factor is the scalar entry point: it runs its
one z on Python floats through the same operations in the same order, and so
returns _gamma's value at np.array([z]) bit for bit.  The two paths share the
float profile table, the series length, the asymptotic Dawson series and the
J_j recursion (_profile_sum); only the Taylor sum and Rybicki's sum are
written twice, and neither is Python's sum, which compensates from 3.12 on.

h_functional resums the whole quadratic tower on flat torus backgrounds,
where the mode decomposition makes every operator function diagonal.  The
background is spectra.FourierBackground, also importable from here.  As in
spectra, a scalar t gives a float, a 1-D t-array an array, and any other t
is a ValidationError.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericError, ValidationError
from .spectra import FourierBackground, _as_t, _like_t, _number, _sizes

# profiles as polynomials in u = xi^2: {power of u: rational coefficient}
_PROFILE_POLY = {
    1: {0: Fraction(1)},
    2: {1: Fraction(1, 2)},
    3: {0: Fraction(1, 4), 1: Fraction(-1, 4)},
    4: {2: Fraction(1, 6)},
    5: {0: Fraction(3, 48), 1: Fraction(-6, 48), 2: Fraction(-1, 48)},
}


def _family(i):
    """The family index i, an int in 1..5, or a ValidationError.  A Python int is
    tested as it is; anything else is read by spectra._sizes first."""
    if type(i) is not int:
        (i,) = _sizes((i,), "family index i", -math.inf)
    if not 1 <= i <= 5:
        raise ValidationError(f"family index i must be in 1..5, not {i!r}")
    return i


def f_universal(i, k):
    """Exact rational constant f^(i)_k of the quadratic trace coefficients."""
    i = _family(i)
    (k,) = _sizes((k,), "order k", least=2)
    if i == 1:
        return Fraction(1)
    if i == 2:
        return Fraction(1, 2 * (2 * k - 1))
    if i == 3:
        return Fraction(k - 1, 2 * (2 * k - 1))
    if i == 4:
        return Fraction(1, 2 * (4 * k * k - 1))
    return Fraction(k * k - k - 1, 4 * (4 * k * k - 1))


def f_profile(i, xi):
    """Profile function f^(i)(xi) on [0, 1]."""
    i = _family(i)
    xi = _number(xi, "xi", 0.0, 1.0)
    u = xi * xi
    return float(sum(c * u ** j for j, c in _PROFILE_POLY[i].items()))


def _beta_moment(j, n):
    """Exact int_0^1 xi^{2j} (1 - xi^2)^n dxi as a Fraction."""
    num = (Fraction(math.factorial(2 * j)) * math.factorial(n)
           * 4 ** (n + 1) * math.factorial(n + j + 1))
    den = 2 * math.factorial(j) * math.factorial(2 * n + 2 * j + 2)
    return num / den


# the profile coefficients as floats, in increasing power of u
_PROFILE_FLOATS = {i: tuple((j, float(c)) for j, c in sorted(poly.items()))
                   for i, poly in _PROFILE_POLY.items()}
_series_table = {i: np.empty(0) for i in _PROFILE_POLY}


def _series_moments(i, count):
    """M_n = int_0^1 f^(i)(xi) (1 - xi^2)^n dxi for n < count as floats, built once."""
    if _series_table[i].size < count:
        poly = _PROFILE_POLY[i].items()
        _series_table[i] = np.array([float(sum(c * _beta_moment(j, n) for j, c in poly))
                                     for n in range(count)])
    return _series_table[i][:count]


# the Taylor sums stop at their first n with |s_{n+1}| < _SERIES_TOL max(1, |sum|),
# and take at most _SERIES_TERMS terms
_SERIES_TOL = 1e-18
_SERIES_TERMS = 250


def _series_length(zmax):
    """Terms the Taylor series needs at |z| <= 4 zmax: the first count with
    zmax^(count-1) / (count-1)! < _SERIES_TOL, at most _SERIES_TERMS."""
    count, s = 1, 1.0
    while s >= _SERIES_TOL and count < _SERIES_TERMS:
        s, count = s * zmax / count, count + 1
    return count


def _gamma_series(i, z):
    """Taylor series sum_n M_n s_n, s_n = (-z/4)^n / n!, at each entry of the array z:
    sequential sums, each stopped at its first n with |s_{n+1}| < _SERIES_TOL
    max(1, |sum|), which every entry has reached once (max|z|/4)^n / n! < _SERIES_TOL."""
    count = _series_length(float(np.max(np.abs(z), initial=0.0)) / 4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = (-z / 4.0) / np.arange(1.0, count + 1)[:, None]
        scale = np.cumprod(np.vstack([np.ones_like(z), steps]), axis=0)
        acc = np.cumsum(scale[:-1] * _series_moments(i, count)[:, None], axis=0)
        done = np.abs(scale[1:]) < _SERIES_TOL * np.maximum(1.0, np.abs(acc))
    if not np.all(done.any(axis=0)):
        raise NumericError(f"gamma series did not converge for i={i}, z={z.min()}")
    return acc[done.argmax(axis=0), np.arange(z.size)]


def _gamma_series_one(i, z):
    """_gamma_series at one float z, on Python floats: the same count, products and
    sums in the same order, so the same bits."""
    count = _series_length(abs(z) / 4.0)
    step, acc, scale = -z / 4.0, 0.0, 1.0
    for n, moment in enumerate(_series_moments(i, count).tolist()):
        acc = acc + scale * moment
        scale = scale * (step / (n + 1))
        if abs(scale) < _SERIES_TOL * max(1.0, abs(acc)):
            return acc
    raise NumericError(f"gamma series did not converge for i={i}, z={z}")


# Rybicki's sampling-theorem sum for Dawson's function (Computers in Physics
# 3 (1989) 85): D(x) ~ pi^{-1/2} sum_{n odd} e^{-(x - n h)^2} / n.  The
# aliasing error is about exp(-(pi / 2h)^2) < 1e-26 at h = 0.2, and the
# odd offsets |n| <= 39 about the nearest even node leave out terms below
# e^{-64}.
_DAWSON_H = 0.2
_DAWSON_OFFSETS = tuple(range(-39, 40, 2))
_DAWSON_N = np.array(_DAWSON_OFFSETS, dtype=float)
# above this x the asymptotic series 1/(2x) sum_k (2k-1)!! / (2x^2)^k is
# exact to rounding within a few terms, and x - n0 h would lose digits
_DAWSON_ASYMPTOTIC = 50.0


def _dawson_asymptotic(x):
    """The asymptotic series of D(x), on a float or an array."""
    u = 0.5 / (x * x)
    term = total = 1.0
    for k in range(1, 7):       # (2k - 1)!! u^k < 1e-18 by k = 6 at x >= 50
        term = term * ((2 * k - 1) * u)
        total = total + term
    return total / (2.0 * x)


def _dawson(x):
    """Dawson's function D(x) = e^{-x^2} int_0^x e^{s^2} ds at each entry x >= 0.5.

    Relative error about 1e-16.  Both forms are evaluated at every x, which
    costs less than splitting x and stays finite on either side of the switch.
    """
    n0 = 2.0 * np.round(0.5 * x / _DAWSON_H)
    xp = x - n0 * _DAWSON_H
    n = _DAWSON_N[:, None]
    # summed in offset order (cumsum is sequential), the same for any size of x
    terms = np.exp(-(xp - n * _DAWSON_H) ** 2) / (n0 + n)
    rybicki = np.cumsum(terms, axis=0)[-1] / math.sqrt(math.pi)
    return np.where(x >= _DAWSON_ASYMPTOTIC, _dawson_asymptotic(x), rybicki)


def _dawson_one(x):
    """_dawson at one float x >= 0.5, the same bits: the same np.exp over the 40
    offsets, whose terms are then added in offset order on Python floats."""
    if x >= _DAWSON_ASYMPTOTIC:
        return _dawson_asymptotic(x)
    n0 = 2.0 * round(0.5 * x / _DAWSON_H)
    xp = x - n0 * _DAWSON_H
    terms = (np.exp(-(xp - _DAWSON_N * _DAWSON_H) ** 2) / (n0 + _DAWSON_N)).tolist()
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total / math.sqrt(math.pi)


def _profile_sum(i, a, j0):
    """sum_j c_j J_j over the profile's u-powers from J_0 = j0, by the recursion
    J_j = (1 - (2j - 1) J_{j-1}) / (2a), the terms added in order of j: plain
    arithmetic on floats or on arrays, with the same bits either way."""
    moments = [j0]
    for j in range(1, _PROFILE_FLOATS[i][-1][0] + 1):
        moments.append((1.0 - (2 * j - 1) * moments[-1]) / (2.0 * a))
    total = 0.0
    for j, c in _PROFILE_FLOATS[i]:
        total = total + c * moments[j]
    return total


def _gamma(i, z):
    """gamma^(i) at each entry of the array z: the Taylor series below z = 1; at and
    above it sum_j c_j J_j over the profile's u-powers, J_j = e^{-a} int_0^1 xi^{2j}
    e^{a xi^2} dxi with a = z/4, so J_0 = D(sqrt a)/sqrt a and, integrating by
    parts, J_j = (1 - (2j - 1) J_{j-1}) / (2a)."""
    out = np.empty_like(z)
    low = z < 1.0
    if low.any():
        out[low] = _gamma_series(i, z[low])
    if not low.all():
        a = z[~low] / 4.0
        r = np.sqrt(a)
        out[~low] = _profile_sum(i, a, _dawson(r) / r)
    return out


def gamma_factor(i, z):
    """Entire form factor gamma^(i)(z) at one real z, absolute accuracy 1e-12.

    Taylor series below z = 1 (and for negative z); above it, the closed
    form in Dawson's function, which keeps the 1/z decay at any finite z.
    The one z runs on Python floats through the same operations, in the
    same order, as _gamma, so the value is bit for bit _gamma's at
    np.array([z]); only the Taylor sum and the Rybicki sum are loops of
    their own.  Non-finite z is a ValidationError.
    """
    i = _family(i)
    z = _number(z, "gamma argument z")
    if z < 1.0:
        return _gamma_series_one(i, z)
    a = z / 4.0
    r = math.sqrt(a)
    return _profile_sum(i, a, _dawson_one(r) / r)


# ---------------------------------------------------------------------------
# flat torus backgrounds
# ---------------------------------------------------------------------------

def _background(bg, what):
    if not isinstance(bg, FourierBackground):
        raise ValidationError(f"{what} needs a FourierBackground, not {type(bg).__name__}")
    return bg


def _channel_sums(bg, weight1, weight2):
    """Common mode-sum skeleton of h_functional and a2k2_coefficient.

    weight1(kk) multiplies tr(Qhat(-n) Qhat(n)); weight2(kk) multiplies the
    transverse curvature contraction; kk = |k|^2.  The weights may return
    arrays (one entry per t), and so does the sum.  Each weight runs once per
    distinct kk, kept in a dict of this call; terms are added in sorted mode order.
    """
    total, w1, w2 = 0.0, {}, {}
    for n in sorted(bg.potential_modes):
        k = bg.wavevector(n)
        kk = float(k @ k)
        if kk not in w1:
            w1[kk] = weight1(kk)
        qq = np.trace(bg.potential_modes[tuple(-x for x in n)]
                      @ bg.potential_modes[n]).real
        total += w1[kk] * qq
    for n in sorted(bg.curvature_modes):
        k = bg.wavevector(n)
        kk = float(k @ k)
        if kk not in w2:
            w2[kk] = weight2(kk)
        # sum over al, be, ga of k_al k_be / kk tr(Rhat(-n)_{al ga} Rhat(n)_{be ga})
        contr = np.einsum("a,b,agij,bgji->", k, k, bg.curvature_modes[tuple(-x for x in n)],
                          bg.curvature_modes[n]).real / kk
        total += 2.0 * w2[kk] * contr
    return total


def h_functional(bg, t):
    """Quadratic generating functional H(t) on a flat torus background.

    H(t) = (4 pi)^{-m/2} (1/2) int tr { Q gamma^(1)(-t box) Q
           + 2 R^{alpha}_{gamma} nabla_alpha box^{-1} gamma^(2)(-t box)
             nabla_beta R^{beta gamma} },
    evaluated as a lattice mode sum (box acts as -|k|^2 on mode k), each
    gamma^(i) evaluated on the whole t-array once per distinct |k|^2.
    """
    bg = _background(bg, "h_functional")
    ts = _as_t(t)
    flat = np.atleast_1d(ts)
    pref = (4.0 * math.pi) ** (-bg.m / 2.0) * bg.volume / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _channel_sums(bg, lambda kk: _gamma(1, flat * kk), lambda kk: _gamma(2, flat * kk))
    return _like_t(ts, np.full(flat.shape, pref * sums))     # sums is 0.0 with no modes


def a2k2_coefficient(bg, k):
    """Quadratic part of the trace coefficient A_{2k} on a flat background.

    (4 pi)^{-m/2} (-1)^k (k-2)!/(2 (2k-3)!) times the mode-space value of
    the bracketed invariants, with operator powers evaluated on the positive
    operator (+|k|^2)^{k-2}; the Ricci-channel terms vanish identically here.
    """
    bg = _background(bg, "a2k2_coefficient")
    (k,) = _sizes((k,), "order k", least=2)
    f1 = float(f_universal(1, k))
    f2 = float(f_universal(2, k))
    pref = ((4.0 * math.pi) ** (-bg.m / 2.0) * (-1.0) ** k
            * math.factorial(k - 2) / (2.0 * math.factorial(2 * k - 3))
            * bg.volume)
    return pref * _channel_sums(bg,
                                lambda kk: f1 * kk ** (k - 2),
                                lambda kk: f2 * kk ** (k - 2))
