"""The monomial basis, dense polynomials, jet containers, and model geometries.

Everything downstream works with jets at a single base point x', in normal
coordinates y centered there.  Monomials of order n are listed by their
nondecreasing multi-indices; `_Basis` builds them as integer exponent rows, a
degree at a time from those of the degree below.  It is the one polynomial
algebra of the package: dense coefficient arrays over every monomial of
degree <= deg in that order, multiplied by index gathers
(`_times`), or by a series in w = |y|^2 with Horner's rule (`_radial_times`).
Every basis and jet checks its size N against BASIS_BUDGET before it allocates.
`hmds` builds the operator jet on it, and `symmspace` the theta series in the
holonomy variables.  `_graded_exp` is the one exponential recurrence, for a
w-series and for polynomials held as their degree blocks alike.  Nothing in
the algebra casts to float: on object arrays of Fractions every product stays
exact.
Taylor data are coefficient arrays on this basis: a PotentialJet holds Q as
the plain y^alpha coefficients.  SymTensor and TaylorSeries serve only
`HmdsCoefficient.series`, which stores a component densely over those
multi-indices, with complex d x d fiber blocks even for scalar problems (then
d = 1); the stored entry of <n|f> is alpha! times the y^alpha Taylor
coefficient of f.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ResourceError, ValidationError
from .spectra import MIN_LENGTH, _array, _number, _periods, _read_only, _require, _sizes

# comb(14, 4): the m = 4, degree-10 basis of an S^4 kmax-4 tower
BASIS_BUDGET = 1001


# ---------------------------------------------------------------------------
# dense polynomials over the graded monomial basis
# ---------------------------------------------------------------------------

def _basis_size(m, deg, what):
    """N = comb(m + deg, m), the monomials of degree <= deg in m variables, or a
    ResourceError naming `what` once N passes BASIS_BUDGET.  comb(m + deg, j) grows
    with j <= min(m, deg), so the running product stops at the budget."""
    N = 1
    for j in range(1, min(m, deg) + 1):
        N = N * (m + deg + 1 - j) // j
        if N > BASIS_BUDGET:
            raise ResourceError(f"{what}: N = comb({m + deg}, {m}) monomials of degree <= "
                                f"{deg} in m = {m} pass BASIS_BUDGET = {BASIS_BUDGET}")
    return N


class _Basis:
    """Monomials y^alpha with |alpha| <= deg, by degree and in the order of their
    nondecreasing multi-indices.

    A polynomial is an array (batch..., N, d, d) of monomial coefficients, or
    (N,) for a scalar one; its order-n slice is in a SymTensor's lower-index
    order.  Index maps use N for "outside the basis", and column N maps N to
    N: `down[mu]` takes alpha to alpha - e_mu, `up[mu]` to alpha + e_mu and
    `square[mu]` (no column N) to alpha - 2 e_mu.
    `quot[j, k]` is the position of y^{alpha_k} / y^{alpha_j}: the product
    pair map read backwards, so a gather through row j of a zero-padded array
    multiplies by y^{alpha_j} and truncates at `deg`.

    The basis is graded: its first N_c = offsets[c + 1] monomials are those of
    degree <= c, whose tables are `_Basis(m, c)`'s once any position >= N_c
    reads as outside.  So an array P of n rows is truncated at its own length:
    every gather reads `_pad(P)`, with any position >= n sent to its zero row.

    The rows of degree n are built at once from those of degree n - 1: each
    parent times y_mu for every mu from its last nonzero axis on, in order.
    `down[mu, child]` is then the parent, and `down[nu, child]` for another nu
    is `up[mu, down[nu, parent]]`, set a degree earlier.
    """

    def __init__(self, m, deg):
        self.m, self.deg = m, deg
        self.N = N = _basis_size(m, deg, "monomial basis")
        expo, last = np.zeros((N, m), dtype=np.int64), np.zeros(N, dtype=np.int64)
        down, up = np.full((2, m, N + 1), N)
        offsets, factorials, f = [0, 1], [1.0], 1
        for n in range(1, deg + 1):
            lo, hi = offsets[-2:]
            count = m - last[lo:hi]           # mu = last, ..., m - 1; last[0] = 0 for y^0
            parent = np.repeat(np.arange(lo, hi), count)
            offsets.append(hi + len(parent))
            child = np.arange(hi, offsets[-1])
            last[child] = mu = np.arange(len(parent)) - np.repeat(np.cumsum(count) - m, count)
            expo[child] = expo[parent] + (np.arange(m) == mu[:, None])
            down[:, child] = up[mu, down[:, parent]]
            down[mu, child], up[mu, parent] = parent, child
            f *= n
            factorials.append(float(f) if f <= sys.float_info.max else math.inf)  # past 170!
        nu, k = np.nonzero(down[:, :N] < N)
        up[nu, down[nu, k]] = k
        self.expo, self.degree, self.offsets = expo, expo.sum(axis=1), np.array(offsets)
        self.down, self.up = down, up
        self.fact = np.array(factorials)[expo].prod(axis=1)
        self.square = np.take_along_axis(down, down[:, :N], axis=1)
        # dividing by y^{alpha_i} is dividing by its parent's monomial, then by
        # y_mu (mu its last axis), for all alpha_i of one degree at once
        quot = np.empty((N, N + 1), dtype=np.min_scalar_type(N))
        quot[0] = np.arange(N + 1)
        prev, flat = down[last, np.arange(N)], down.astype(quot.dtype).ravel()
        for lo, hi in zip(offsets[1:-1], offsets[2:]):
            quot[lo:hi] = flat[(N + 1) * last[lo:hi, None] + quot[prev[lo:hi]]]
        self.quot = quot[:, :N]

@lru_cache(maxsize=8)
def _basis(m, deg):
    return _Basis(m, deg)


def _pad(P):
    zero = np.zeros(P.shape[:-3] + (1,) + P.shape[-2:], dtype=P.dtype)
    return np.concatenate([P, zero], axis=-3)


def _take(Ppad, index):
    """Rows `index` of a padded polynomial `_pad(P)`: a position >= len(P) reads
    the zero row, so P is truncated at its own length."""
    return Ppad.take(index, axis=-3, mode="clip")


def _times(B, C, P):
    """C P for a scalar or matrix (d, d) polynomial C, truncated at P's length n.

    Sums C_j y^{alpha_j} P over the support of C[:n] in basis order, so each
    coefficient is accumulated in a fixed order; y^{alpha_j} P starts at
    degree |alpha_j|, so only that tail of the output is touched.
    """
    n = P.shape[-3]
    C, Ppad = C[:n], _pad(P)
    out = np.zeros_like(P)
    for j in np.flatnonzero(C if C.ndim == 1 else np.any(C, axis=(1, 2))):
        lo = B.offsets[B.degree[j]]
        shifted = _take(Ppad, B.quot[j, lo:n])
        out[..., lo:, :, :] += C[j] * shifted if C.ndim == 1 else C[j] @ shifted
    return out


def _radial_times(B, series, P):
    """sum_k series[k] |y|^{2k} P, truncated at P's length n, by Horner's rule in
    w = |y|^2: out = c_k P + sum_mu y_mu^2 out, over any leading batch axes of P.
    out sits in the first n rows of a zero buffer, so a step is one gather through
    `square[:, :n]`, one sum over mu from 0 (as Python's `sum`) and one multiply-add.
    Each trailing zero of the series costs a step: a caller reusing a series trims it."""
    n = P.shape[-3]
    c = np.asarray(series[:B.degree[n - 1] // 2 + 1])
    if len(c) < 2:
        return c[-1] * P if len(c) else np.zeros_like(P)
    buf = np.zeros(P.shape[:-3] + (n + 1,) + P.shape[-2:], dtype=np.result_type(c, P))
    out = np.multiply(c[-1], P, out=buf[..., :n, :, :])
    for ck in c[-2::-1]:
        gathered = buf.take(B.square[:, :n], axis=-3, mode="clip")
        np.add(ck * P, np.add.reduce(gathered, axis=-4, initial=0), out=out)
    return out


# ---------------------------------------------------------------------------
# SymTensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymTensor:
    """Symmetric tensor with p upper and q lower slots and d x d fiber blocks.

    entries has shape (#upper multi-indices, #lower multi-indices, d, d);
    the entry is the component value itself, identical for every reordering
    within each index group.
    """

    m: int
    p: int
    q: int
    d: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m, d = _sizes((self.m, self.d), "SymTensor (m, d)")
        p, q = _sizes((self.p, self.q), "SymTensor (p, q)", least=0)
        shape = (math.comb(m + p - 1, p), math.comb(m + q - 1, q), d, d)
        e = _array(self.entries, shape, "SymTensor entries")
        # _array reads any layout; a misordered block of the right size is refused here
        if np.shape(self.entries) != shape:
            raise ValidationError(f"entries shape {np.shape(self.entries)} != {shape} "
                                  f"for (m={m}, p={p}, q={q}, d={d})")
        object.__setattr__(self, "entries", e)


# ---------------------------------------------------------------------------
# Taylor series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorSeries:
    """Jet of a V-valued (or operator-valued) function at the base point.

    components[n] is the SymTensor <n|f> with covariant order n: alpha!
    times the y^alpha Taylor coefficients of f, |alpha| = n.
    """

    m: int
    d: int
    cutoff: int
    components: tuple

    def __post_init__(self):
        (cutoff,) = _sizes((self.cutoff,), "TaylorSeries cutoff", least=0)
        if len(self.components) != cutoff + 1:
            raise ValidationError("component list length must be cutoff + 1")
        for n, c in enumerate(self.components):
            if not isinstance(c, SymTensor) or c.q != n or c.m != self.m or c.d != self.d:
                raise ValidationError(f"component {n} has wrong type or order")
        object.__setattr__(self, "components", tuple(self.components))

    def component(self, n):
        return self.components[n]


# ---------------------------------------------------------------------------
# power series: the w-series logarithm and the graded exponential
# ---------------------------------------------------------------------------

def _series_log(a, n):
    # a[0] must be 1: the weight a[0] j / k is exact on a Fraction series, and on a
    # float one the correctly rounded j / k
    la = [0] * n
    for k in range(1, n):
        s = a[k]
        for j in range(1, k):
            s -= a[0] * j / k * la[j] * a[k - j]
        la[k] = s
    return la


def _graded_exp(s, K, one, times):
    """Grades G_0..G_K of exp(sum_j s_j), s_j = s[j - 1] of grade j and 0 past
    the end of s: G_0 = one and k G_k = sum_j times(j s_j, G_{k-j}, j, k - j).

    `times(a, b, i, j)` is the algebra's product of a of grade i and b of
    grade j: scalar multiplication for a w-series, which reads no grade, and
    `symmspace._block_times` for polynomials held as their degree blocks.  The
    weights j and k are integers, so a Fraction series stays exact.
    """
    G = [one]
    for k in range(1, K + 1):
        G.append(sum(times(j * s[j - 1], G[k - j], j, k - j)
                     for j in range(1, min(k, len(s)) + 1)) / k)
    return G


def _sphere_profile(radius, nterms):
    """Series coefficients of f(w) = sin^2(sqrt(w)/a)/(w/a^2) in w = |y|^2.

    sin^2(x)/x^2 = sum_k (-1)^k 2^{2k+1}/(2k+2)! x^{2k}; each rational is one
    correctly rounded integer quotient, scaled by a^{-2k}.  A radius for which a^{2k} leaves the
    float range is rejected.
    """
    try:
        terms = tuple((-1) ** k * 2 ** (2 * k + 1) / math.factorial(2 * k + 2)
                      / radius ** (2 * k) for k in range(nterms))
    except (OverflowError, ZeroDivisionError):
        terms = (math.inf,)
    if not all(math.isfinite(c) for c in terms):
        raise ValidationError(f"sphere radius {radius!r} gives a non-finite curvature series")
    return terms


# ---------------------------------------------------------------------------
# model geometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelGeometry:
    """Closed-form geometry data at a base point, in normal coordinates.

    radial_profile holds the series coefficients (in w = |y|^2) of the
    profile f with g_ij(y) = f(w) delta_ij + (1 - f(w))/w * y_i y_j; flat and
    torus geometries have profile (1,).
    """

    kind: str
    m: int
    cutoff: int
    volume: float
    radial_profile: tuple = (1.0,)


def sphere_volume(m, radius):
    """Volume of the round m-sphere of the given radius; one past the float range
    is a ValidationError."""
    (m,) = _sizes((m,), "sphere_volume m")
    radius = _number(radius, "sphere radius", MIN_LENGTH)
    try:
        vol = 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0) * radius ** m
    except OverflowError:
        vol = math.inf
    if not math.isfinite(vol):
        raise ValidationError(f"sphere radius {radius!r} gives a non-finite volume")
    return vol


def build_model_geometry(kind, m, cutoff=6, radius=None, periods=None, volume=None):
    """Construct a flat, torus, or sphere ModelGeometry good to order `cutoff`.

    The radial profile carries enough terms for polynomials of degree cutoff + 2,
    the basis an operator jet of that cutoff reads; BASIS_BUDGET bounds it.

    The sphere metric in normal coordinates about any point is
        g_ij(y) = f(w) delta_ij + (1 - f(w)) y_i y_j / w,
        f(w) = sin^2(r/a)/(r/a)^2,  w = r^2 = |y|^2,
    a power series in w with coefficients (-1)^k 2^{2k+1}/(2k+2)! a^{-2k}.
    This is the standard constant-curvature closed form: along a unit-speed
    geodesic of length r from the base point, Jacobi fields orthogonal to the
    geodesic scale like a sin(r/a), radial ones like r; squaring the
    differential of the exponential map gives exactly the profile above.  The
    Van Vleck factor is then Delta^{1/2}(y) = det(g)^{-1/4} = f^{-(m-1)/4}.
    """
    if kind not in ("flat", "torus", "sphere"):
        raise ValidationError(f"unsupported geometry kind {kind!r}")
    (m,) = _sizes((m,), "geometry dimension m")
    (cutoff,) = _sizes((cutoff,), "geometry cutoff", least=0)
    _basis_size(m, cutoff + 2, f"cutoff-{cutoff} geometry")

    if kind == "sphere":
        radius = _number(radius, "sphere radius", MIN_LENGTH)
        profile = _sphere_profile(radius, cutoff // 2 + 2)
        vol = sphere_volume(m, radius)
    elif kind == "torus":
        if periods is None:
            raise ValidationError("torus requires periods")
        profile = (1.0,)
        vol = float(np.prod(_periods(periods, m)))
    else:
        profile = (1.0,)
        vol = 1.0 if volume is None else _number(volume, "volume", math.ulp(0.0))

    return ModelGeometry(kind=kind, m=m, cutoff=cutoff, volume=vol, radial_profile=tuple(profile))


# ---------------------------------------------------------------------------
# potential jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PotentialJet:
    """Taylor coefficients of the endomorphism Q plus a covariantly constant curvature.

    Q has shape (N, d, d), N = comb(m + cutoff, m): Q[i] is the y^{alpha_i}
    Taylor coefficient of Q on `_basis(m, cutoff)`.  curvature has shape
    (m, m, d, d): antisymmetric in the two base indices, anti-Hermitian in
    the fiber.
    """

    m: int
    d: int
    cutoff: int
    Q: np.ndarray = field(repr=False)
    curvature: np.ndarray = field(repr=False)

    def __post_init__(self):
        (cutoff,) = _sizes((self.cutoff,), "PotentialJet cutoff", least=0)
        m, d = _sizes((self.m, self.d), "PotentialJet (m, d)")   # before the basis size
        curv = _array(self.curvature, (m, m, d, d), "curvature")
        shape = (_basis_size(m, cutoff, "PotentialJet"), d, d)
        Q = _array(self.Q, shape, "Q")
        # _array reads any layout; a (d, d, N) Q or a transposed curvature is refused here
        if np.shape(self.Q) != shape:
            raise ValidationError(f"Q shape {np.shape(self.Q)} != {shape} "
                                  f"for (m={m}, cutoff={cutoff}, d={d})")
        if np.shape(self.curvature) != curv.shape:
            raise ValidationError("curvature must have shape (m, m, d, d)")
        _require(curv, -curv.transpose(1, 0, 2, 3),
                 "curvature must be antisymmetric in base indices")
        _require(curv, -np.conj(curv.transpose(0, 1, 3, 2)),
                 "curvature fiber blocks must be anti-Hermitian")
        _require(Q[0], np.conj(Q[0].T), "Q at the base point must be Hermitian")
        object.__setattr__(self, "Q", _read_only(Q))
        object.__setattr__(self, "curvature", _read_only(curv))

    @classmethod
    def constant(cls, m, d, Q0, curvature=None, cutoff=6):
        m, d = _sizes((m, d), "PotentialJet")        # before the basis size and np.zeros
        (cutoff,) = _sizes((cutoff,), "PotentialJet cutoff", least=0)
        Q0 = _array(Q0, (d, d), "Q0")
        N = _basis_size(m, cutoff, "PotentialJet")
        if curvature is None:
            # m^2 zero blocks: m must be one whose degree-2 basis, the least a
            # geometry of dimension m builds, is within the budget
            _basis_size(m, 2, "PotentialJet curvature")
            curvature = np.zeros((m, m, d, d), dtype=complex)
        Q = np.zeros((N, d, d), dtype=complex)
        Q[0] = Q0
        return cls(m, d, cutoff, Q, curvature)

    @classmethod
    def zero(cls, m, d=1, cutoff=6):
        return cls.constant(m, d, np.zeros((d, d)), cutoff=cutoff)
