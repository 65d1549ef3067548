"""Exact-spectrum oracles and asymptotic-series fitting.

These are the ground-truth side of every comparison in the package: interval,
sphere and Landau level sums, Fourier-matrix traces for circle/torus
potentials, and a weighted least-squares fitter that turns oracle sums into
expansion coefficients with honest error bars.  _certified_trace runs the
level sums and the Fourier box here, the nonlaplace lattice oracle and the
zaremba Bessel modes through quadrature.converge: it doubles a partial sum
until a tail bound holds, and refuses a sum past a cap with a ResourceError.
For the Fourier box that bound covers only the modes outside the box, not
the box's own eigenvalues.  _lattice_tail is the one tail bound of the two
flat-torus oracles, the Fourier box and the nonlaplace lattice.  The Fourier
box's spectrum is built from one spectrum per group of axes that its modes
couple (_axis_groups), so a separable torus costs a few circle spectra.

FourierBackground is the one description of a flat torus with potential and
curvature modes, for the Fourier oracle, formfactors and the CLI.  Its period
check _periods is also the one for the torus geometry and the nonlaplace
lattice oracle.  _number reads every real scalar input (a finite float in its
range) and _sizes every integer size, order and mode number, or else each raises
a ValidationError naming it.  Both take real numbers only, never a string,
Decimal or 0-d array, and return the value their caller computes with; the CLI
converts config text first.  _array and _require are the one array check of the
package: every matrix-valued input of tensorcalc, spectra, nonlaplace, oblique
and symmspace is read by _array (size, numbers, finite) and its symmetries are
tested by _require, so a malformed array is always a ValidationError.

Every trace, the lattice oracle and every t-dependent evaluator in
formfactors, hmds and symmspace take a positive scalar t and return a float,
or a non-empty 1-D t-array and return an array, with one spectrum for the grid.
Any other t (zero, negative, not finite, empty, 2-D) is a ValidationError.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import NumericError, ValidationError
from .quadrature import converge

_INTERVAL_CAP = 1_000_000        # eigenvalues in one interval partial sum
_LEVEL_CAP = 2_000_000           # levels in one sphere or Landau partial sum
_WORK_CAP = 100_000_000          # levels times t-grid points in one spectral sum
_EXP_CHUNK = 1_000_000           # entries of one t x level block of exponentials

# Input ranges of the interval, sphere and Fourier routes.  Inside them every
# squared wavenumber (2 pi n / L)^2, 1/a^2 and squared amplitude is a finite
# float, and every mode number is exact as a float and as an int64 offset.
MIN_LENGTH = 1e-100
MAX_MODE = 2 ** 53
MAX_AMPLITUDE = 1e100


def _number(x, what, lo=-math.inf, hi=math.inf):
    """float(x), the value its caller computes with, or a ValidationError naming `what`
    unless x is a real number (not a str, bytes, Decimal, complex or 0-d array), finite
    and lo <= x <= hi.  A float or int skips the slower numbers.Real test."""
    if not isinstance(x, (float, int)) and not isinstance(x, numbers.Real):
        raise ValidationError(f"{what} {x!r} is not a real number")
    try:
        value = float(x)
    except OverflowError:                   # an int past the float range
        value = math.nan
    if not (lo <= value <= hi and -math.inf < value < math.inf):
        limits = [f"below {lo:g}"] * (lo > -math.inf) + [f"above {hi:g}"] * (hi < math.inf)
        raise ValidationError(f"{what} {x!r} is {' or '.join(limits + ['not finite'])}")
    return value


def _as_t(t):
    """t as a float array of shape () or (n,), n >= 1, every entry positive and finite;
    a positive finite Python float needs no further test.  As for _number, strings,
    Decimals and complex numbers are no t."""
    if type(t) is float and 0.0 < t < math.inf:
        return np.asarray(t)
    try:
        ts = np.asarray(t)
    except (TypeError, ValueError):         # a ragged list is no t
        ts = np.array(math.nan)
    ts = ts.astype(float, copy=False) if ts.dtype.kind in "biuf" else np.array(math.nan)
    if ts.ndim > 1 or ts.size == 0:
        raise ValidationError("t must be a scalar or a non-empty 1-D array")
    if not (np.isfinite(ts) & (ts > 0)).all():
        raise ValidationError("t must be positive and finite")
    return ts


def _scalar_t(t):
    """t as a positive finite float, for the routes that take one t per call."""
    if type(t) is float and 0.0 < t < math.inf:
        return t
    ts = _as_t(t)
    if ts.ndim:
        raise ValidationError("t must be a scalar")
    return float(ts)


def _gauss_power(x, m, t):
    """x^{-m/2}, x = 4 pi t (mu), as a Python float power, or a NumericError giving t."""
    try:
        return x ** (-m / 2.0)
    except OverflowError:
        raise NumericError(f"(4 pi t)^(-m/2) overflows at t={t!r}") from None


def _like_t(ts, values, what=None):
    """values as a float when ts is a scalar, else as the array.  With `what`,
    a non-finite value is a NumericError "<what> overflows at t=<first such t>"."""
    if what and not np.isfinite(values).all():
        first = np.atleast_1d(ts)[~np.isfinite(np.atleast_1d(values))][0]
        raise NumericError(f"{what} overflows at t={float(first)!r}")
    return float(np.ravel(values)[0]) if ts.ndim == 0 else values


def _exp_sum(ts, lam, mult=1.0):
    """sum_j mult_j exp(-t lam_j), pairwise, at each t of the 1-D array ts; 0 for no lam.
    Blocks of at most _EXP_CHUNK exponentials fill one preallocated result."""
    rows = max(1, _EXP_CHUNK // max(1, lam.size))
    sums = np.empty(ts.size)
    with np.errstate(over="ignore"):
        for i in range(0, ts.size, rows):
            block = np.multiply.outer(-ts[i:i + rows], lam)
            np.exp(block, out=block)
            block *= mult
            block.sum(axis=1, out=sums[i:i + rows])
    return sums


def _certified_trace(t, what, first, cap, partial, tail, floor, size=lambda n: n):
    """(sum, the n it stopped at, certified tail), sum and tail at every t, through
    quadrature.converge.  partial(ts, n) sums the first n terms at each t of the 1-D
    array ts and tail(ts, n) bounds the rest; n starts at first(min t), which must be
    >= 1.  size(n) levels over cap, or over _WORK_CAP at all t, is a ResourceError."""
    ts = _as_t(t)
    flat = ts.reshape(-1)
    tmin = float(flat.min())
    n = first(tmin)
    # a size past the float range is spelled as a bound, not as "inf"
    levels = lambda size: (f"about {size:.3g}" if math.isfinite(size)
                           else f"more than {sys.float_info.max:.3g}")
    refusal = lambda size, **_: (
        f"{what} trace needs {levels(size)} levels at t={tmin!r}, over the cap of {cap}"
        if not size <= cap else f"{what} trace needs {size:.3g} levels at each of "
        f"{flat.size} times, over the work cap of {_WORK_CAP:.3g}")
    total, n, err = converge(n, min(cap, _WORK_CAP / flat.size),
                             lambda n: _like_t(flat, partial(flat, n), f"{what} sum"),
                             lambda n, total, prev: tail(flat, n), floor, refusal, size)
    return _like_t(ts, total), n, _like_t(ts, err)


# ---------------------------------------------------------------------------
# interval spectra
# ---------------------------------------------------------------------------

def _bisect(f, lo, hi, width=0.0):
    """Roots of the elementwise f, one in each bracket [lo, hi] where f changes sign,
    all bisected at once until a bracket is `width` wide or has no float inside."""
    neg = f(lo) < 0
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (hi - lo > width) & (lo < mid) & (mid < hi)
        if not open_.any():
            return np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)
        right = (f(mid) < 0) == neg
        lo = np.where(open_ & right, mid, lo)
        hi = np.where(open_ & ~right, mid, hi)


def _branch_roots(secular, L, j, lo, hi):
    """k = 2u/L at the root u = j pi + delta, lo < delta < hi, of secular(k, delta) on
    every branch j where it changes sign.  Bisecting the offset delta, not u, keeps
    the brackets 1e-12 short of the tan and cot poles however large j pi is."""
    f = lambda j, d: secular(2.0 * (j * math.pi + d) / L, d)
    keep = (f(j, lo) < 0) != (f(j, hi) < 0)
    j = j[keep]
    delta = _bisect(lambda d: f(j, d), lo[keep], hi[keep], np.spacing(j * math.pi))
    return 2.0 * (j * math.pi + delta) / L


def _robin_eigenvalues(L, S, count):
    """Robin condition (d/dn + S)u = 0 with inward normal at both endpoints.

    The secular function factorizes into even/odd families about the
    midpoint: k tan(kL/2) = -S and k cot(kL/2) = S.  Each branch of tan/cot
    carries exactly one root, and all of them are bisected in one pass; for
    S > 0 the lowered spectrum admits one or two negative eigenvalues, found
    from the hyperbolic counterparts kappa tanh(kappa L/2) = S, kappa coth = S.
    The two roots that vanish with S, the tanh root for S > 0 and the j = 0
    even root for S < 0 (both near lambda = -2S/L), are bracketed from 0,
    where their secular function is -S or S, so no |S| is too small to bracket.
    """
    lams = []
    if S > 0:
        hi = np.array([S + 4.0 / L])
        lams.append(-_bisect(lambda x: x * np.tanh(x * L / 2.0) - S, np.zeros(1), hi) ** 2)
        if S * L > 2.0:
            lams.append(-_bisect(lambda x: x / np.tanh(x * L / 2.0) - S, np.array([1e-14]),
                                 hi) ** 2)

    # with |S| L <= 1e12 every branch j >= 1 changes sign, so j = 0..J-1 carry at least
    # 2J - 2 >= count + 4 roots
    eps = 1e-12
    j = np.arange(count // 2 + 4.0)
    # even: kL/2 in (j pi - pi/2, j pi + pi/2), k > 0; odd: kL/2 in (j pi, (j+1) pi)
    even = _branch_roots(lambda k, d: k * np.tan(d) + S, L, j,
                         np.where(j >= 1, eps - math.pi / 2.0, 0.0),
                         np.full(j.shape, math.pi / 2.0 - eps))
    odd = _branch_roots(lambda k, d: k / np.tan(d) - S, L, j,
                        np.full(j.shape, eps), np.full(j.shape, math.pi - eps))
    lams = np.sort(np.concatenate(lams + [even ** 2, odd ** 2]))[:count]
    # residual of the secular function (k^2 - S^2) sin kL + 2 S k cos kL; at k = i x
    # of its continuation over cosh xL, (x^2 + S^2) tanh xL - 2 S x
    k = np.sqrt(np.abs(lams))
    residual = np.abs(np.where(lams >= 0,
                               (k * k - S * S) * np.sin(k * L) + 2.0 * S * k * np.cos(k * L),
                               (k * k + S * S) * np.tanh(k * L) - 2.0 * S * k))
    bad = residual > 1e-12 * np.maximum(1.0, k * k + S * S) * np.maximum(1.0, k)
    if np.any(bad):
        raise NumericError(f"robin root residual too large at lambda={lams[bad][0]}")
    return lams


def _interval_levels(L, bc, S=None):
    """(levels, tail) of the interval Laplacian with boundary condition bc: levels(n)
    is the first n eigenvalues, nondecreasing, and their multiplicities as arrays;
    tail(ts, n) bounds the trace mass past them at each t of ts."""
    L = _number(L, "interval length", MIN_LENGTH)
    bc = str(bc).upper()
    c = (math.pi / L) ** 2

    first = {"DD": 1.0, "NN": 0.0, "DN": 0.5}.get(bc)
    if first is not None:
        levels = lambda n: (((np.arange(n) + first) * math.pi / L) ** 2, np.ones(n))
    elif bc == "ROBIN":
        S = _number(S, "robin constant S", -MAX_AMPLITUDE, MAX_AMPLITUDE)
        # brackets 1e-12 short of the tan and cot poles miss roots once |S| L > pi 1e12
        if abs(S) * L > 1e12:
            raise ValidationError(f"robin constant S = {S!r} needs |S| L <= 1e12")
        if S == 0.0:
            return _interval_levels(L, "NN")
        levels = lambda n: (_robin_eigenvalues(L, S, n), np.ones(n))
    else:
        raise ValidationError(f"unknown interval boundary condition {bc!r}")

    def tail(ts, n):
        # lambda_j >= ((j-2) pi / L)^2 for every family above; past J = n - 2 > 0
        # the Gaussian integral is at most e^{-tc J^2} / (2 tc J)
        tc, J = ts * c, n - 2
        return np.exp(-tc * J * J) * (1.0 + 1.0 / (2.0 * tc * J))

    return levels, tail


def interval_trace(L, bc, t, S=None):
    """Sum of e^{-t lambda} over the interval spectrum with the given bc."""
    L = _number(L, "interval length", MIN_LENGTH)       # for the first size, too
    levels, tail = _interval_levels(L, bc, S)
    return _certified_trace(t, "interval",
                            lambda tmin: max(np.floor(L / math.pi * math.sqrt(60.0 / tmin)) + 4, 8),
                            _INTERVAL_CAP, lambda ts, n: _exp_sum(ts, *levels(n)), tail,
                            lambda total: 1e-15 * np.maximum(total, 1e-300))[0]


# ---------------------------------------------------------------------------
# sphere spectra
# ---------------------------------------------------------------------------

def _sphere_levels(m, a):
    """(levels, tail) of the round m-sphere of radius a, as in _interval_levels."""
    if m not in (2, 3):
        raise ValidationError(f"sphere spectra implemented for m in {{2, 3}}, not {m}")
    a = _number(a, "sphere radius", MIN_LENGTH)
    ia2 = 1.0 / (a * a)
    if m == 2:
        def levels(n):
            l = np.arange(n)
            return l * (l + 1) * ia2, 2.0 * l + 1.0

        def tail(ts, n):
            c = ts * ia2
            x = np.exp(-c * n * (n + 1))
            return (2 * n + 1) * x + x / c
    else:
        def levels(n):
            l = np.arange(n)
            return l * (l + 2) * ia2, (l + 1.0) ** 2

        def tail(ts, n):
            # l(l+2) = u^2 - 1, u = l + 1: e^{c} (u^2 e^{-c u^2} + int_u^inf x^2 e^{-c x^2})
            c = ts * ia2
            u = n + 1.0
            return np.exp(-c * (u * u - 1.0)) * (u * u + u / (2.0 * c) + 1.0 / (4.0 * c * c * u))
    return levels, tail


def sphere_trace(m, a, t):
    """Exact heat trace of the round sphere Laplacian, tail below 1e-14."""
    a = _number(a, "sphere radius", MIN_LENGTH)         # for the first size, too
    levels, tail = _sphere_levels(m, a)
    return _certified_trace(t, "sphere",
                            lambda tmin: max(np.floor(a * math.sqrt(40.0 / tmin)) + 2, 4),
                            _LEVEL_CAP, lambda ts, n: _exp_sum(ts, *levels(n)), tail,
                            lambda total: 1e-14 * np.maximum(total, 1.0))[0]


# ---------------------------------------------------------------------------
# Landau levels
# ---------------------------------------------------------------------------

def landau_trace_density(B, t):
    """Per-area trace of the m=2 constant-field problem, the Landau level sum
    (B/2 pi) sum_n e^{-tB(2n+1)}; past n levels the rest is (B/2 pi) e^{-tB(2n+1)}
    / (1 - e^{-2tB}).  Its closed form is symmspace.nilpotent_trace_density's."""
    B = _number(B, "landau field B", math.ulp(0.0))
    c = B / (2.0 * math.pi)
    # at n = 20 / tB the tail is e^{-40} of the sum
    return _certified_trace(
        t, "landau", lambda tmin: max(20.0 / (tmin * B), 1) if tmin * B else math.inf,
        _LEVEL_CAP, lambda ts, n: c * _exp_sum(ts, B * (2.0 * np.arange(n) + 1.0)),
        lambda ts, n: c * np.exp(-ts * B * (2 * n + 1)) / -np.expm1(-2.0 * ts * B),
        lambda total: 1e-15 * np.maximum(total, 1e-300))[0]


# ---------------------------------------------------------------------------
# circle / torus with potential
# ---------------------------------------------------------------------------

_MATRIX_BUDGET = 4097          # Fourier modes in one box


def _periods(periods, m):
    """periods as a tuple of m floats, each finite and at least MIN_LENGTH."""
    periods = tuple(_number(p, "period", MIN_LENGTH) for p in periods)
    if len(periods) != m:
        raise ValidationError(f"need {m} periods, got {len(periods)}")
    return periods


def _sizes(sizes, what, least=1):
    """The sizes as a tuple of Python ints, the values their caller computes with, or a
    ValidationError naming `what` unless each is an int or numpy integer >= least
    (-inf: any integer); a float, str or 0-d array is refused, however integral."""
    if not all(isinstance(n, (int, np.integer)) and n >= least for n in sizes):
        want = {0: "nonnegative integers", 1: "a shape of positive integers",
                -math.inf: "integers"}
        raise ValidationError(f"{what} needs {want.get(least, f'integers >= {least}')}, "
                              f"not {tuple(sizes)}")
    return tuple(map(int, sizes))


def _array(x, shape, what, dtype=complex):
    """x, any layout of prod(shape) numbers, as a finite array of that shape and
    dtype (complex or float); shape None is a square matrix of x's own size, a
    scalar being 1 x 1.  Anything else (a shape that is not positive integers,
    the wrong size, an entry that is not a number, not finite, or not real for a
    float dtype) is a ValidationError naming `what`."""
    if shape is not None:
        shape = _sizes(shape, what)
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} is not an array of numbers") from None
    if shape is None:
        shape = a.shape or (1, 1)
        if len(shape) != 2 or shape[0] != shape[1] or not a.size:
            raise ValidationError(f"{what} of shape {a.shape} is not a square matrix")
    if a.size != math.prod(shape):
        raise ValidationError(f"{what} of shape {a.shape} is not a block of shape {shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} is not finite")
    if dtype is float:
        if np.any(a.imag):
            raise ValidationError(f"{what} is not real")
        a = np.ascontiguousarray(a.real)
    return a.reshape(shape)


def _read_only(a):
    """A read-only copy of the checked array `a`: the copy cannot change after its
    checks ran, and the caller's own array, which _array may return as it is,
    stays writeable."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def _unit_vectors(x, dim, least, what):
    """x, a sequence of at least `least` vectors of dim numbers each, every one of
    norm 1 to 1e-12, as a finite real (count, dim) array; anything else is a
    ValidationError naming `what`."""
    try:
        count = len(x)
    except TypeError:                     # a scalar is at most one vector
        count = 1
    dirs = _array(x, (max(count, 1), dim), what, float)
    if len(dirs) < least or np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) > 1e-12:
        raise ValidationError(f"{what} must be at least {least} unit vectors of dimension {dim}")
    return dirs


def _require(a, b, message):
    """A ValidationError(message) unless a and b agree to 1e-12 at every entry;
    a NaN entry never agrees."""
    if not np.max(np.abs(a - b), initial=0.0) <= 1e-12:
        raise ValidationError(message)


def _modes(modes, m, shape, what, flip, relation):
    """modes as {m-tuple of ints: complex block of the given shape}.  Every key has
    m entries of magnitude at most MAX_MODE, every block is finite with entries
    of magnitude at most MAX_AMPLITUDE, and mode -n holds flip(block of mode n)."""
    out = {}
    for key, amp in modes.items():
        n = _sizes(key if isinstance(key, tuple) else (key,), f"{what} mode {key!r}", -math.inf)
        if len(n) != m:
            raise ValidationError(f"{what} mode {key!r} has wrong dimension")
        if any(abs(x) > MAX_MODE for x in n):
            raise ValidationError(f"{what} mode {key!r} exceeds {MAX_MODE} in magnitude")
        out[n] = blk = _array(amp, shape, f"{what} mode {key!r}")
        if np.max(np.abs(blk)) > MAX_AMPLITUDE:
            raise ValidationError(f"{what} mode {key!r} amplitude exceeds {MAX_AMPLITUDE:g}")
    for n, blk in out.items():
        # a missing partner reads as NaN, which never agrees
        _require(out.get(tuple(-x for x in n), math.nan), flip(blk),
                 f"{what} modes must satisfy {relation}")
    return out


@dataclass(frozen=True, eq=False)
class FourierBackground:
    """Flat torus with a Hermitian potential and optional curvature modes.

    potential_modes maps integer wavevector tuples n to (d, d) amplitude
    blocks of Q(x) = sum_n Qhat_n e^{i k(n).x}, k(n) = 2 pi n / periods;
    Hermiticity of Q forces Qhat_{-n} = Qhat_n^dagger.  With d = 1 a block
    may be a scalar.  curvature_modes maps wavevectors to (m, m, d, d)
    blocks, antisymmetric in the base pair, with Rhat_{-n} = -Rhat_n^dagger
    (the field is anti-Hermitian pointwise); the zero mode is excluded
    because the curvature channel carries an explicit 1/box.  Every block is
    stored as a complex array of its shape.
    """

    m: int
    periods: tuple
    d: int = 1
    potential_modes: dict = field(default_factory=dict)
    curvature_modes: dict = field(default_factory=dict)

    def __post_init__(self):
        m, d = _sizes((self.m, self.d), "FourierBackground (m, d)")
        object.__setattr__(self, "periods", _periods(self.periods, m))
        object.__setattr__(self, "potential_modes", _modes(
            self.potential_modes, m, (d, d), "potential", lambda q: q.conj().T,
            "Qhat(-n) = Qhat(n)^dagger"))
        cm = _modes(self.curvature_modes, m, (m, m, d, d), "curvature",
                    lambda b: -np.conj(b.transpose(0, 1, 3, 2)), "Rhat(-n) = -Rhat(n)^dagger")
        for n, b in cm.items():
            if not any(n):
                raise ValidationError(
                    "zero-mode curvature excluded: the curvature channel carries 1/box; "
                    "constant field strength belongs to the symmspace route")
            _require(b, -b.transpose(1, 0, 2, 3),
                     "curvature modes must be antisymmetric in base indices")
        object.__setattr__(self, "curvature_modes", cm)

    @classmethod
    def circle_cosine(cls, length, n, q, d=1):
        """Q(x) = q cos(2 pi n x / length) on a circle, for any integer n."""
        (n,) = _sizes((n,), "circle_cosine mode n", -math.inf)
        (d,) = _sizes((d,), "circle_cosine d")
        block = _number(q, "circle_cosine amplitude q") * np.eye(d)
        modes = {(0,): block} if n == 0 else {(n,): 0.5 * block, (-n,): 0.5 * block}
        return cls(m=1, periods=(length,), d=d, potential_modes=modes)

    @property
    def volume(self):
        return float(np.prod(self.periods))

    def wavevector(self, n):
        """2 pi n / L for a mode n of m integers, read as a mode key is (an int for m = 1)."""
        n = _sizes(n if isinstance(n, tuple) else (n,), f"wavevector mode {n!r}", -math.inf)
        if len(n) != self.m:
            raise ValidationError(f"wavevector mode {n!r} has wrong dimension")
        return np.array([2.0 * math.pi * ni / p for ni, p in zip(n, self.periods)])


def _fourier_spectrum(periods, modes, cutoff):
    """Sorted eigenvalues of -Laplace + Q on the Fourier box |n|_inf <= cutoff.

    Each block is the principal submatrix of the dense matrix on one
    connected component of the coupling graph n -> n + k, with the dense
    matrix's entry layout (H[n + k, n] = q(k)).  Components are labelled by
    their least point, and one stable sort by size, then label, stacks the
    blocks of equal size, members ascending, into one eigvalsh call.
    """
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

    # root[i] ends as the least point of i's block: hook each point onto its least
    # neighbouring root, then jump pointers (Shiloach & Vishkin, J. Algorithms 3 (1982)
    # 57).  FourierBackground keeps -k beside k, so after r rounds each root is at most
    # the least point within r edges, and a round within diameter + 1 <= dim changes nothing.
    root, prev = np.arange(dim), None
    while prev is None or not np.array_equal(root, prev):
        prev = root.copy()
        for _, src, dst in couplings:
            np.minimum.at(root, dst, prev[src])
        root = root[root]

    # by block size, then block (stable): size class s is order[lo:hi] in rows of s
    size = np.bincount(root, minlength=dim)[root]
    order = np.lexsort((root, size))
    rank = np.empty(dim, dtype=int)
    rank[order] = np.arange(dim)
    count = np.bincount(size)
    real = all(amp.imag == 0 for amp, _, _ in couplings)
    lams, hi = [], 0
    for s in np.flatnonzero(count).tolist():
        lo, hi = hi, hi + int(count[s])
        H = np.zeros(((hi - lo) // s, s, s), dtype=float if real else complex)
        H[:, np.arange(s), np.arange(s)] = diag[order[lo:hi].reshape(-1, s)]
        for amp, src, dst in couplings:
            keep = size[src] == s
            a, b = rank[src[keep]] - lo, rank[dst[keep]] - lo
            H[a // s, b % s, a % s] = amp.real if real else amp
        lams.append(np.linalg.eigvalsh(H).ravel())
    return np.sort(np.concatenate(lams))


def _lattice_tail(ts, N, periods, shift):
    """Bound on sum e^{-t(|k|^2 + shift)} over k = 2 pi n / periods, |n|_inf > N, at
    each t of the 1-D array ts.  e^{-t|k|^2} factorizes: the sum is at most the sum
    over axes of the axis's part past N, 2 e^{-c N(N+1)} / (1 - e^{-c N}) with
    c = t (2 pi / period)^2, times the other whole axes, each at most
    1 + sqrt(pi / c).  The shift sits in the exponent, so it never overflows alone."""
    c = np.multiply.outer(ts, (2.0 * math.pi / np.array(periods)) ** 2)
    whole = 1.0 + np.sqrt(math.pi / c)
    past = 2.0 * np.exp(-c * N * (N + 1) - (ts * shift)[:, None]) / -np.expm1(-c * N)
    return np.prod(whole, axis=1) * np.sum(past / whole, axis=1)


def _axis_groups(m, modes):
    """The axes 0..m-1 as sorted tuples, ordered by first axis: two axes share a
    group when some mode k != 0 is nonzero on both, and an axis that no mode
    touches is a group of its own."""
    groups = [{a} for a in range(m)]
    for k in modes:
        touched = [g for g in groups if any(k[a] for a in g)]
        if len(touched) > 1:
            groups = [g for g in groups if g not in touched] + [set().union(*touched)]
    return sorted(tuple(sorted(g)) for g in groups)


def torus_potential_trace(periods, modes, cutoff, t):
    """Trace of exp(-t(-Laplace + Q)) on a circle or torus.

    periods and modes are those of a FourierBackground with d = 1, which
    validates them: modes maps wavevector tuples to scalar amplitudes or to
    1x1 blocks, so a background's own potential_modes can be passed.
    The operator is represented exactly on the Fourier modes |n|_inf <= N:
    diagonal |k|^2 plus the convolution matrix of the potential modes; the
    trace of the matrix exponential is the partial spectral sum.  On the box
    that matrix is a Kronecker sum over the axis groups of _axis_groups, and
    the eigenvalues of a Kronecker sum A (+) B are the sums of one of A and
    one of B (Horn & Johnson, Topics in Matrix Analysis, 1991, 4.4), so only
    each group's matrix is diagonalised, on the group's axes and modes, with
    Re Qhat_0 on the first group's diagonal.  A box of one group (every
    circle, and a torus whose modes couple all axes) is that group's
    spectrum.  Q couples mode n only to n + k for its mode vectors k, so each
    group's matrix is block diagonal over the connected components of that
    graph: zero potential gives 1x1 blocks, one circle cosine mode n0 gives n0
    chains.  Each block is diagonalised on its own, as a real symmetric matrix
    when every amplitude is real, and the spectrum is computed once for all t.
    N starts at cutoff and doubles, through _certified_trace, until the modes
    outside the box weigh at most 1e-10 min(sum, 1), and at most 1e-10 of the
    least normal float where the sum underflows, at every t: _lattice_tail on
    the whole box, with every |k|^2 shifted by Re Qhat_0, which moves the
    whole diagonal, and lowered by sum_{k != 0} |Qhat_k|, as far as Gershgorin
    lets the couplings move an eigenvalue.  That bound covers only the modes
    outside the box, not the box's own eigenvalues, which lie above the true
    ones until the box resolves the low-lying eigenvectors (ROADMAP item 1, "Certify
    the Fourier box with a two-sided enclosure"): Q = 100 (1 + cos x) on the circle
    of length 2 pi gives 1.650e-7 from cutoff 4 at t = 2, a 1201-mode box 8.183e-7.
    A box of more than _MATRIX_BUDGET modes, (2N+1)^m over all m axes however
    they group, is a ResourceError.
    """
    periods = tuple(periods) if np.iterable(periods) else (periods,)
    bg = FourierBackground(len(periods), periods, potential_modes=modes)
    (cutoff,) = _sizes((cutoff,), "Fourier cutoff")
    m, periods = bg.m, bg.periods
    modes = {n: complex(q[0, 0]) for n, q in bg.potential_modes.items()}
    shift = modes.get((0,) * m, 0.0).real - sum(abs(a) for n, a in modes.items() if any(n))
    groups = [(tuple(periods[a] for a in g),
               {tuple(n[a] for a in g): q for n, q in modes.items()
                if any(n[a] for a in g) or (i == 0 and not any(n))})
              for i, g in enumerate(_axis_groups(m, modes))]

    # the eigenvalues of a Kronecker sum are the sums of one eigenvalue per group
    partial = lambda ts, N: _exp_sum(ts, reduce(np.add.outer, [
        _fourier_spectrum(p, q, N) for p, q in groups]).ravel())
    floor = lambda total: 1e-10 * np.maximum(np.minimum(total, 1.0), np.finfo(float).tiny)
    return _certified_trace(t, "fourier", lambda tmin: cutoff, _MATRIX_BUDGET, partial,
                            lambda ts, N: _lattice_tail(ts, N, periods, shift), floor,
                            lambda N: (2 * min(N, _MATRIX_BUDGET) + 1) ** m)[0]


# ---------------------------------------------------------------------------
# asymptotic fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FitResult:
    exponents: tuple
    coefficients: np.ndarray
    errors: np.ndarray
    condition_number: float


def fit_expansion(samples, m, exponents, bootstrap=200, seed=1234):
    """Weighted least squares of trace samples onto the basis t^e.

    Weights are 1/|value| (relative residuals); the t-grid must be geometric and
    each exponent finite.  One thin SVD of the weighted design X gives its
    condition number and, once that is at most 1e12 (every singular value above
    lstsq's cutoff), the pseudo-inverse that solves for the coefficients and for
    every resample of a residual bootstrap, whose fixed RNG seed makes the error
    bars reproducible byte for byte.
    """
    _sizes((m,), "fit_expansion m")         # the fit needs no dimension; it is checked all the same
    (bootstrap,) = _sizes((bootstrap,), "bootstrap", least=2)
    # any iterables, a generator included; anything else reads as empty, and is refused
    samples, exponents = ([*x] if np.iterable(x) else [] for x in (samples, exponents))
    data = _array(samples, (len(samples), 2), "samples", float)
    exponents = tuple(_number(e, "exponent") for e in exponents)
    if not exponents:
        raise ValidationError("need at least one exponent")
    if len(data) < 2 * len(exponents):
        raise ValidationError("need at least twice as many samples as exponents")
    order = np.argsort(_as_t(data[:, 0]))
    ts, ys = data[order].T
    ratios = ts[1:] / ts[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9 * ratios[0]:
        raise ValidationError("t-grid must be geometric")

    w = 1.0 / np.maximum(np.abs(ys), 1e-300)
    X = np.power.outer(ts, np.array(exponents)) * w[:, None]
    y = ys * w
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
    if cond > 1e12:
        raise NumericError(f"fit basis condition number {cond:.3e} exceeds 1e12")
    pinv = (Vt.T / s) @ U.T
    coef = pinv @ y

    fitted = X @ coef
    resid = y - fitted
    # one draw of every resample, one product with a column per resample
    draws = np.random.default_rng(seed).choice(resid, size=(bootstrap, len(resid)))
    errors = (pinv @ (fitted + draws).T).std(axis=1, ddof=1)

    return FitResult(exponents=exponents, coefficients=coef, errors=errors,
                     condition_number=cond)
