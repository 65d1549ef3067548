"""Universal quadratic-term constants, profiles, and entire form factors.

The trace coefficients quadratic in the background (potential Q, connection
curvature R) are controlled by five universal constant families f^(i)_k,
equivalently by five profile functions f^(i)(xi) on [0,1], equivalently by
five entire functions

    gamma^(i)(z) = int_0^1 dxi f^(i)(xi) exp(-(1 - xi^2) z / 4),

related order by order through

    gamma^(i)(z) = sum_{k>=2} (-1)^k z^{k-2} (k-2)!/(2k-3)! f^(i)_k.

gamma_factor sums that Taylor series below z = 1.  Above it, each profile is
a polynomial in xi^2, so gamma^(i) is a combination of Gaussian moments with
a closed form in Dawson's function D, which _dawson evaluates with `math`
alone.

h_functional resums the whole quadratic tower on flat torus backgrounds,
where the mode decomposition makes every operator function diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NumericError, ValidationError
from .spectra import MAX_AMPLITUDE, MAX_MODE, MIN_LENGTH

# profiles as polynomials in u = xi^2: {power of u: rational coefficient}
_PROFILE_POLY = {
    1: {0: Fraction(1)},
    2: {1: Fraction(1, 2)},
    3: {0: Fraction(1, 4), 1: Fraction(-1, 4)},
    4: {2: Fraction(1, 6)},
    5: {0: Fraction(3, 48), 1: Fraction(-6, 48), 2: Fraction(-1, 48)},
}


def f_universal(i, k):
    """Exact rational constant f^(i)_k of the quadratic trace coefficients."""
    if i not in (1, 2, 3, 4, 5):
        raise ValidationError("family index i must be in 1..5")
    if not isinstance(k, int) or k < 2:
        raise ValidationError("order k must be an integer >= 2")
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
    if i not in (1, 2, 3, 4, 5):
        raise ValidationError("family index i must be in 1..5")
    if not 0.0 <= xi <= 1.0:
        raise ValidationError("xi must lie in [0, 1]")
    u = xi * xi
    return float(sum(c * u ** j for j, c in _PROFILE_POLY[i].items()))


def _beta_moment(j, n):
    """Exact int_0^1 xi^{2j} (1 - xi^2)^n dxi as a Fraction."""
    num = (Fraction(math.factorial(2 * j)) * math.factorial(n)
           * 4 ** (n + 1) * math.factorial(n + j + 1))
    den = 2 * math.factorial(j) * math.factorial(2 * n + 2 * j + 2)
    return num / den


def _gamma_series(i, z, tol=1e-18, nmax=250):
    acc = 0.0
    term_scale = 1.0
    for n in range(nmax):
        M = float(sum(c * _beta_moment(j, n) for j, c in _PROFILE_POLY[i].items()))
        term = term_scale * M
        acc += term
        term_scale *= (-z / 4.0) / (n + 1)
        if abs(term_scale) < tol * max(1.0, abs(acc)):
            return acc
    raise NumericError(f"gamma series did not converge for i={i}, z={z}")


# Rybicki's sampling-theorem sum for Dawson's function (Computers in Physics
# 3 (1989) 85): D(x) ~ pi^{-1/2} sum_{n odd} e^{-(x - n h)^2} / n.  The
# aliasing error is about exp(-(pi / 2h)^2) < 1e-26 at h = 0.2, and the
# odd offsets |n| <= 39 about the nearest even node leave out terms below
# e^{-64}.
_DAWSON_H = 0.2
_DAWSON_OFFSETS = tuple(range(-39, 40, 2))
# above this x the asymptotic series 1/(2x) sum_k (2k-1)!! / (2x^2)^k is
# exact to rounding within a few terms, and x - n0 h would lose digits
_DAWSON_ASYMPTOTIC = 50.0


def _dawson(x):
    """Dawson's function D(x) = e^{-x^2} int_0^x e^{s^2} ds for x >= 0.

    Relative error about 1e-16 for x >= 0.5; near 0 the alternating sum
    leaves an absolute error of about 1e-16.
    """
    if x >= _DAWSON_ASYMPTOTIC:
        u = 0.5 / (x * x)
        term = total = 1.0
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= (2 * k - 1) * u
            total += term
        return total / (2.0 * x)
    n0 = 2 * round(0.5 * x / _DAWSON_H)
    xp = x - n0 * _DAWSON_H
    return sum(math.exp(-(xp - n * _DAWSON_H) ** 2) / (n0 + n)
               for n in _DAWSON_OFFSETS) / math.sqrt(math.pi)


def _gamma_dawson(i, z):
    """gamma^(i)(z) for z > 0 as sum_j c_j J_j over the profile's u-powers.

    J_j = e^{-a} int_0^1 xi^{2j} e^{a xi^2} dxi with a = z/4; then
    J_0 = D(sqrt a)/sqrt a and, integrating by parts,
    J_j = (1 - (2j - 1) J_{j-1}) / (2a).
    """
    a = z / 4.0
    r = math.sqrt(a)
    moments = [_dawson(r) / r]
    for j in range(1, max(_PROFILE_POLY[i]) + 1):
        moments.append((1.0 - (2 * j - 1) * moments[-1]) / (2.0 * a))
    return sum(float(c) * moments[j] for j, c in _PROFILE_POLY[i].items())


def gamma_factor(i, z):
    """Entire form factor gamma^(i)(z), absolute accuracy 1e-12.

    Taylor series below z = 1 (and for negative z); above it, the closed
    form in Dawson's function, which keeps the 1/z decay at any finite z.
    Non-finite z is a ValidationError.
    """
    if i not in (1, 2, 3, 4, 5):
        raise ValidationError("family index i must be in 1..5")
    z = float(z)
    if not math.isfinite(z):
        raise ValidationError(f"gamma argument z must be finite, got {z}")
    if z < 1.0:
        return _gamma_series(i, z)
    return _gamma_dawson(i, z)


# ---------------------------------------------------------------------------
# flat torus backgrounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierBackground:
    """Flat torus with a Hermitian potential and optional curvature modes.

    potential_modes maps integer wavevector tuples n to (d, d) amplitude
    blocks of Q(x) = sum_n Qhat_n e^{i k(n).x}, k(n) = 2 pi n / periods;
    Hermiticity of Q forces Qhat_{-n} = Qhat_n^dagger.  curvature_modes maps
    wavevectors to (m, m, d, d) blocks, antisymmetric in the base pair, with
    Rhat_{-n} = -Rhat_n^dagger (the field is anti-Hermitian pointwise); the
    zero mode is excluded because the curvature channel carries an explicit
    1/box.
    """

    m: int
    periods: tuple
    d: int = 1
    potential_modes: dict = field(default_factory=dict)
    curvature_modes: dict = field(default_factory=dict)

    def __post_init__(self):
        periods = tuple(float(p) for p in self.periods)
        if len(periods) != self.m or not all(0 < p < math.inf for p in periods):
            raise ValidationError("need m positive finite periods")
        if min(periods) < MIN_LENGTH:
            raise ValidationError(f"period {min(periods)!r} is below {MIN_LENGTH:g}")
        object.__setattr__(self, "periods", periods)

        pm = {}
        for key, amp in self.potential_modes.items():
            n = self._mode(key, "potential")
            pm[n] = np.asarray(amp, dtype=complex).reshape(self.d, self.d)
            if not np.all(np.isfinite(pm[n])):
                raise ValidationError(f"potential mode {key!r} amplitude is not finite")
            if np.max(np.abs(pm[n])) > MAX_AMPLITUDE:
                raise ValidationError(
                    f"potential mode {key!r} amplitude exceeds {MAX_AMPLITUDE:g}")
        for n, amp in pm.items():
            mn = tuple(-x for x in n)
            other = pm.get(mn)
            if other is None or np.max(np.abs(other - amp.conj().T)) > 1e-12:
                raise ValidationError(
                    "potential modes must satisfy Qhat(-n) = Qhat(n)^dagger")
        object.__setattr__(self, "potential_modes", pm)

        cm = {}
        for key, blk in self.curvature_modes.items():
            n = self._mode(key, "curvature")
            if all(x == 0 for x in n):
                raise ValidationError(
                    "zero-mode curvature excluded: the curvature channel carries 1/box; "
                    "constant field strength belongs to the symmspace route")
            b = np.asarray(blk, dtype=complex).reshape(self.m, self.m, self.d, self.d)
            if not np.max(np.abs(b), initial=0.0) <= MAX_AMPLITUDE:
                raise ValidationError(f"curvature mode {key!r} amplitude is not finite "
                                      f"or exceeds {MAX_AMPLITUDE:g}")
            if np.max(np.abs(b + b.transpose(1, 0, 2, 3))) > 1e-12:
                raise ValidationError("curvature modes must be antisymmetric in base indices")
            cm[n] = b
        for n, b in cm.items():
            mn = tuple(-x for x in n)
            other = cm.get(mn)
            flip = -np.conj(b.transpose(0, 1, 3, 2))
            if other is None or np.max(np.abs(other - flip)) > 1e-12:
                raise ValidationError(
                    "curvature modes must satisfy Rhat(-n) = -Rhat(n)^dagger")
        object.__setattr__(self, "curvature_modes", cm)

    def _mode(self, key, what):
        n = (key,) if isinstance(key, int) else tuple(int(x) for x in key)
        if len(n) != self.m:
            raise ValidationError(f"{what} mode {key!r} has wrong dimension")
        if any(abs(x) > MAX_MODE for x in n):
            raise ValidationError(f"{what} mode {key!r} exceeds {MAX_MODE} in magnitude")
        return n

    @classmethod
    def circle_cosine(cls, length, n, q, d=1):
        """Q(x) = q cos(2 pi n x / length) on a circle."""
        eye = np.eye(d)
        if n == 0:
            modes = {(0,): q * eye}
        else:
            modes = {(n,): 0.5 * q * eye, (-n,): 0.5 * q * eye}
        return cls(m=1, periods=(length,), d=d, potential_modes=modes)

    @property
    def volume(self):
        return float(np.prod(self.periods))

    def wavevector(self, n):
        return np.array([2.0 * math.pi * ni / p for ni, p in zip(n, self.periods)])


def _channel_sums(bg, weight1, weight2):
    """Common mode-sum skeleton of h_functional and a2k2_coefficient.

    weight1(kk) multiplies tr(Qhat(-n) Qhat(n)); weight2(kk) multiplies the
    transverse curvature contraction; kk = |k|^2.
    """
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
        rm = bg.curvature_modes[tuple(-x for x in n)]
        rp = bg.curvature_modes[n]
        contr = 0.0
        for al in range(bg.m):
            for be in range(bg.m):
                w = k[al] * k[be] / kk
                for ga in range(bg.m):
                    contr += w * np.trace(rm[al, ga] @ rp[be, ga]).real
        total += 2.0 * weight2(kk) * contr
    return total


def h_functional(bg, t):
    """Quadratic generating functional H(t) on a flat torus background.

    H(t) = (4 pi)^{-m/2} (1/2) int tr { Q gamma^(1)(-t box) Q
           + 2 R^{alpha}_{gamma} nabla_alpha box^{-1} gamma^(2)(-t box)
             nabla_beta R^{beta gamma} },
    evaluated as a lattice mode sum (box acts as -|k|^2 on mode k).
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    pref = (4.0 * math.pi) ** (-bg.m / 2.0) * bg.volume / 2.0
    return pref * _channel_sums(bg,
                                lambda kk: gamma_factor(1, t * kk),
                                lambda kk: gamma_factor(2, t * kk))


def a2k2_coefficient(bg, k):
    """Quadratic part of the trace coefficient A_{2k} on a flat background.

    (4 pi)^{-m/2} (-1)^k (k-2)!/(2 (2k-3)!) times the mode-space value of
    the bracketed invariants, with operator powers evaluated on the positive
    operator (+|k|^2)^{k-2}; the Ricci-channel terms vanish identically here.
    """
    if not isinstance(k, int) or k < 2:
        raise ValidationError("order k must be an integer >= 2")
    f1 = float(f_universal(1, k))
    f2 = float(f_universal(2, k))
    pref = ((4.0 * math.pi) ** (-bg.m / 2.0) * (-1.0) ** k
            * math.factorial(k - 2) / (2.0 * math.factorial(2 * k - 3))
            * bg.volume)
    return pref * _channel_sums(bg,
                                lambda kk: f1 * kk ** (k - 2),
                                lambda kk: f2 * kk ** (k - 2))
