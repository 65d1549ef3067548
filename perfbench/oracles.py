"""Reference values computed apart from heatkern.

Every function here rebuilds its answer from the mathematics (spectral sums,
closed forms, tridiagonal Fourier chains, scipy quadrature) and imports
nothing from the package under test.  The harness imports this module only
after the timed passes, so its scipy import never counts as set-up.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import dawsn

# Mulholland: Z_{S^2}(t) = 1/t + 1/3 + t/15 + 4 t^2/315 + t^3/315 + O(t^4)
MULHOLLAND = (Fraction(1), Fraction(1, 3), Fraction(1, 15), Fraction(4, 315),
              Fraction(1, 315))

# profile polynomials f^(i)(xi) in u = xi^2, lowest power first
PROFILES = {
    1: (1.0,),
    2: (0.0, 0.5),
    3: (0.25, -0.25),
    4: (0.0, 0.0, 1.0 / 6.0),
    5: (3.0 / 48.0, -6.0 / 48.0, -1.0 / 48.0),
}


# ---------------------------------------------------------------------------
# spectral sums
# ---------------------------------------------------------------------------

def sphere_spectrum(m, a, lmax):
    """Eigenvalues l(l+m-1)/a^2 and multiplicities of the round S^m, l <= lmax."""
    l = np.arange(lmax + 1, dtype=float)
    lam = l * (l + m - 1) / (a * a)
    if m == 2:
        mult = 2 * l + 1
    elif m == 3:
        mult = (l + 1) ** 2
    elif m == 4:
        mult = (l + 1) * (l + 2) * (2 * l + 3) / 6.0
    else:
        raise ValueError(f"no sphere spectrum for m={m}")
    return lam, mult


def sphere_trace(m, a, t):
    """sum_l mult_l e^{-t lambda_l}, cut where the exponent passes 60."""
    lmax = int(a * math.sqrt(60.0 / t)) + m + 10
    lam, mult = sphere_spectrum(m, a, lmax)
    return float(np.sum(mult * np.exp(-t * lam)))


def interval_trace(L, bc, t):
    jmax = int(L / math.pi * math.sqrt(60.0 / t)) + 10
    j = np.arange(jmax + 1, dtype=float)
    if bc == "DD":
        k = j[1:] * math.pi / L
    elif bc == "NN":
        k = j * math.pi / L
    elif bc == "DN":
        k = (j + 0.5) * math.pi / L
    else:
        raise ValueError(bc)
    return float(np.sum(np.exp(-t * k * k)))


def interval_weyl(L, bc, t):
    return L / math.sqrt(4.0 * math.pi * t) + {"DD": -0.5, "NN": 0.5, "DN": 0.0}[bc]


def landau_levels(B, t):
    """(B / 2 pi) sum_n e^{-t B (2n + 1)}, summed level by level."""
    nmax = int(60.0 / (2.0 * t * B)) + 10
    n = np.arange(nmax + 1, dtype=float)
    return float(B / (2.0 * math.pi) * np.sum(np.exp(-t * B * (2.0 * n + 1.0))))


# ---------------------------------------------------------------------------
# sphere and flat short-time series
# ---------------------------------------------------------------------------

def _exp_series(c, n):
    """Taylor coefficients of e^{c t} through t^(n-1)."""
    return np.array([c ** k / math.factorial(k) for k in range(n)])


def sphere_a_series(m, a, q, n):
    """Coefficients s_k with e^{-qt} Z(t) (4 pi t)^{m/2} / vol = sum_k s_k t^k.

    S^2: Mulholland's series in t/a^2.  S^3: e^{t/a^2} exactly, since the
    spectrum is n^2 - 1 with multiplicity n^2.  The diagonal coefficients of
    the package are then a_k = (-1)^k k! s_k.
    """
    if m == 2:
        if n > len(MULHOLLAND):
            raise ValueError("Mulholland's series is tabulated through t^3")
        z = np.array([float(c) / a ** (2 * k) for k, c in enumerate(MULHOLLAND[:n])])
    elif m == 3:
        z = _exp_series(1.0 / a ** 2, n)
    else:
        raise ValueError(m)
    return npoly.polymul(_exp_series(-q, n), z)[:n]


def diag_from_series(s):
    return [(-1) ** k * math.factorial(k) * s[k] for k in range(len(s))]


def sphere_volume(m, a):
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0) * a ** m


def sphere_expansion(m, a, q, kmax):
    """(exponent, coefficient) of the kmax-truncated sphere heat trace."""
    pref = (4.0 * math.pi) ** (-m / 2.0) * sphere_volume(m, a)
    s = sphere_a_series(m, a, q, kmax + 1)
    return [(k - m / 2.0, pref * s[k]) for k in range(kmax + 1)]


def evaluate_expansion(terms, t):
    return sum(c * t ** e for e, c in terms)


def sphere_curvature_a1_a2(m, a, q):
    """a_1 = q - R/6 and a_2 = (R/6 - q)^2 + (|Riem|^2 - |Ric|^2)/90.

    The general Gilkey coefficients for a constant-curvature space with a
    constant potential, in the package normalisation a_k = (-1)^k k! x
    (standard coefficient).
    """
    k2 = 1.0 / a ** 4
    R = m * (m - 1) / a ** 2
    riem2 = 2.0 * m * (m - 1) * k2
    ric2 = m * (m - 1) ** 2 * k2
    return q - R / 6.0, (R / 6.0 - q) ** 2 + (riem2 - ric2) / 90.0


def constant_field_series(q, B, n):
    """Flat space, constant potential q and abelian field strength B.

    The radial-gauge kernel is (4 pi t)^{-m/2} e^{-|y|^2/4t} Phi with
    Phi = e^{-qt} (tB / sinh tB) exp(-|y|^2 g(t)),  4 t g(t) = tB coth tB - 1.
    Returns (base, g) as Taylor coefficient arrays in t through t^(n-1).
    """
    N = n + 2
    sinhc = np.zeros(N)
    for k in range(0, N, 2):
        sinhc[k] = B ** k / math.factorial(k + 1)
    inv = np.zeros(N)
    inv[0] = 1.0
    for k in range(1, N):
        inv[k] = -np.dot(sinhc[1:k + 1], inv[k - 1::-1][:k])
    # x coth x - 1 = sum_{j>=1} 2^{2j} B_{2j} x^{2j} / (2j)!
    bern = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
            8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730)}
    h = np.zeros(N)
    for j, b in bern.items():
        if j < N:
            h[j] = 2 ** j * float(b) * B ** j / math.factorial(j)
    g = np.zeros(N)
    g[:N - 1] = h[1:] / 4.0
    base = npoly.polymul(_exp_series(-q, N), inv)[:n]
    return base, g[:n]


def constant_field_component(q, B, k, j):
    """Coefficient of (|y|^2)^j in the package's a_k(y) for a constant field."""
    base, g = constant_field_series(q, B, k + 1)
    gpow = np.array([1.0])
    for _ in range(j):
        gpow = npoly.polymul(gpow, -g)[:k + 1]
    poly = npoly.polymul(base, gpow)[:k + 1] / math.factorial(j)
    return (-1) ** k * math.factorial(k) * (poly[k] if len(poly) > k else 0.0)


def norm2_power_entry(expo, j):
    """alpha! x coefficient of y^alpha in (|y|^2)^j, for the Taylor basis."""
    if sum(expo) != 2 * j or any(e % 2 for e in expo):
        return 0.0
    halves = [e // 2 for e in expo]
    multinom = math.factorial(j)
    for h in halves:
        multinom //= math.factorial(h)
    fact = 1
    for e in expo:
        fact *= math.factorial(e)
    return float(multinom * fact)


# ---------------------------------------------------------------------------
# Fourier traces on circles and tori
# ---------------------------------------------------------------------------

def chain_trace(periods, mode, amp, cutoff, t):
    """Trace of exp(-t(-Laplace + Q)) for Q = amp e^{i k.x} + conj.

    On the Fourier box |n|_inf <= cutoff the single mode couples n to n +
    mode only, so the matrix splits into one tridiagonal chain per coset;
    a phase on amp is removed by a diagonal unitary, so only |amp| enters.
    """
    m = len(periods)
    mode = np.array(mode)
    axes = [np.arange(-cutoff, cutoff + 1)] * m
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    kscale = np.array([2.0 * math.pi / p for p in periods])
    total = 0.0
    for start in pts:
        prev = start - mode
        if np.all(np.abs(prev) <= cutoff):
            continue            # not the first point of its chain
        chain = [start]
        while np.all(np.abs(chain[-1] + mode) <= cutoff):
            chain.append(chain[-1] + mode)
        k = np.array(chain) * kscale
        diag = np.sum(k * k, axis=1)
        if len(chain) == 1:
            lam = diag
        else:
            lam = eigvalsh_tridiagonal(diag, np.full(len(chain) - 1, abs(amp)))
        total += float(np.sum(np.exp(-t * lam)))
    return total


def gamma1(z):
    """gamma^(1)(z) = (2/sqrt z) D(sqrt z / 2) for z > 0, by Dawson's D."""
    if z <= 0.0:
        return gamma_quad(1, z)
    r = math.sqrt(z)
    return 2.0 / r * float(dawsn(r / 2.0))


def gamma_quad(i, z):
    """int_0^1 f^(i)(xi) e^{-(1 - xi^2) z / 4} d xi by scipy quad."""
    coeffs = PROFILES[i]
    val, _ = quad(lambda xi: sum(c * xi ** (2 * j) for j, c in enumerate(coeffs))
                  * math.exp(-(1.0 - xi * xi) * z / 4.0), 0.0, 1.0,
                  epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def fourier_weyl(periods, modes, t):
    """Volume term and the zero mode's t^{1-m/2} term."""
    m = len(periods)
    vol = float(np.prod(periods))
    pref = (4.0 * math.pi) ** (-m / 2.0)
    zero = modes.get((0,) * m, 0.0)
    return pref * vol * (t ** (-m / 2.0) - zero.real * t ** (1.0 - m / 2.0))


def fourier_channel(periods, modes, t):
    """The resummed quadratic channel t^{2-m/2} H(t), through Dawson's D."""
    m = len(periods)
    vol = float(np.prod(periods))
    H = 0.0
    for n, amp in modes.items():
        kk = sum((2.0 * math.pi * ni / p) ** 2 for ni, p in zip(n, periods))
        H += gamma1(t * kk) * abs(amp) ** 2
    return t ** (2.0 - m / 2.0) * (4.0 * math.pi) ** (-m / 2.0) * vol / 2.0 * H


# ---------------------------------------------------------------------------
# constant-coefficient and boundary closed forms
# ---------------------------------------------------------------------------

def theta_1d(s, L):
    """sum_n e^{-s (2 pi n / L)^2} over all integers n."""
    c = s * (2.0 * math.pi / L) ** 2
    nmax = int(math.sqrt(60.0 / c)) + 10
    n = np.arange(1, nmax + 1, dtype=float)
    return 1.0 + 2.0 * float(np.sum(np.exp(-c * n * n)))


def one_form_torus_trace(m, c, q, periods, t):
    """|xi|^2 I + c xi (x) xi on T^m: slopes 1 + c (once) and 1 (m - 1 times)."""
    prod = lambda s: math.prod(theta_1d(s, L) for L in periods)
    return math.exp(-t * q) * (prod((1.0 + c) * t) + (m - 1) * prod(t))


def one_form_h(m, c):
    """H = -(4 pi)^{-m/2} [(1 + c)^{-m/2}/m + (1 - 1/m)] I."""
    return -(4.0 * math.pi) ** (-m / 2.0) * ((1.0 + c) ** (-m / 2.0) / m + (1.0 - 1.0 / m))


def oblique_a1(m, Pi, J):
    d = Pi.shape[0]
    return (4.0 * math.pi) ** (-(m - 1) / 2.0) * 0.25 * (-np.eye(d) - 2.0 * Pi + 2.0 * J)


def corner_closed(m, dimV=1):
    return -(4.0 * math.pi) ** (-(m - 2) / 2.0) * dimV / 16.0
