"""Multi-index bookkeeping, dense polynomials, jet containers, and model geometries.

Everything downstream works with jets at a single base point x', in normal
coordinates y centered there.  Monomials of order n are listed by their
nondecreasing multi-indices, `multi_indices(m, n)`.  `_Basis` is the one
polynomial algebra of the package: dense coefficient arrays over every
monomial of degree <= deg in that order, multiplied by index gathers
(`_times`), or by a series in w = |y|^2 with Horner's rule (`_radial_times`).
`hmds` builds the operator jet on it, and `symmspace` the theta series in the
holonomy variables.  Taylor data are coefficient arrays on this basis: a
PotentialJet holds Q as the plain y^alpha coefficients.  SymTensor and
TaylorSeries serve only `HmdsCoefficient.series`, which stores a component
densely over those multi-indices, with complex d x d fiber blocks even for
scalar problems (then d = 1); the stored entry of <n|f> is alpha! times the
y^alpha Taylor coefficient of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ValidationError
from .spectra import _array, _periods, _require

MAX_CUTOFF = 8


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def multi_indices(m, n):
    """All nondecreasing multi-indices of order n in dimension m."""
    return tuple(combinations_with_replacement(range(m), n))


def exponents(idx, m):
    """Multi-index as a per-axis exponent vector."""
    e = [0] * m
    for i in idx:
        e[i] += 1
    return tuple(e)


# ---------------------------------------------------------------------------
# dense polynomials over the graded monomial basis
# ---------------------------------------------------------------------------

class _Basis:
    """Monomials y^alpha with |alpha| <= deg, by degree and in multi_indices order.

    A polynomial is an array (batch..., N, d, d) of monomial coefficients, or
    (N,) for a scalar one; its order-n slice is in a SymTensor's lower-index
    order.  Index maps use N for "outside the basis", and column N maps N to
    N: `down[mu]` takes alpha to alpha - e_mu, `up[mu]` to alpha + e_mu and
    `square[mu]` (no column N) to alpha - 2 e_mu.
    `quot[j, k]` is the position of y^{alpha_k} / y^{alpha_j}: the product
    pair map read backwards, so a gather through row j of a zero-padded array
    multiplies by y^{alpha_j} and truncates at `deg`.
    """

    def __init__(self, m, deg):
        self.m, self.deg = m, deg
        rows = [exponents(idx, m) for n in range(deg + 1) for idx in multi_indices(m, n)]
        position = {r: i for i, r in enumerate(rows)}
        self.expo = np.array(rows, dtype=np.int64).reshape(len(rows), m)
        self.N = N = len(rows)
        self.degree = self.expo.sum(axis=1)
        self.offsets = np.cumsum([0] + [len(multi_indices(m, n)) for n in range(deg + 1)])
        self.fact = np.array([math.prod(map(math.factorial, r)) for r in rows], dtype=float)
        self.down = np.full((m, N + 1), N)
        self.up = np.full((m, N + 1), N)
        for mu in range(m):
            ks = [k for k, r in enumerate(rows) if r[mu]]
            self.down[mu, ks] = [position[rows[k][:mu] + (rows[k][mu] - 1,) + rows[k][mu + 1:]]
                                 for k in ks]
            self.up[mu, self.down[mu, ks]] = ks
        self.up_weight = (self.expo.T + 1).astype(float)      # (m, N): alpha_mu + 1
        self.square = np.take_along_axis(self.down, self.down[:, :N], axis=1)
        # dividing by y^{alpha_i} is dividing by y^{alpha_i - e_mu}, then by y_mu
        quot = np.empty((N, N + 1), dtype=np.min_scalar_type(N))
        quot[0] = np.arange(N + 1)
        for i in range(1, N):
            mu = next(a for a, e in enumerate(rows[i]) if e)
            quot[i] = self.down[mu, quot[self.down[mu, i]]]
        self.quot = quot[:, :N]

@lru_cache(maxsize=8)
def _basis(m, deg):
    return _Basis(m, deg)


def _pad(P):
    zero = np.zeros(P.shape[:-3] + (1,) + P.shape[-2:], dtype=P.dtype)
    return np.concatenate([P, zero], axis=-3)


def _times(B, C, P):
    """C P for a scalar (N,) or matrix (N, d, d) polynomial C, truncated at deg.

    Sums C_j y^{alpha_j} P over C's support in basis order, so each
    coefficient is accumulated in a fixed order; y^{alpha_j} P starts at
    degree |alpha_j|, so only that tail of the output is touched.
    """
    Ppad = _pad(P)
    out = np.zeros_like(P)
    for j in np.flatnonzero(C if C.ndim == 1 else np.any(C, axis=(1, 2))):
        lo = B.offsets[B.degree[j]]
        shifted = Ppad[..., B.quot[j, lo:], :, :]
        out[..., lo:, :, :] += C[j] * shifted if C.ndim == 1 else C[j] @ shifted
    return out


def _radial_times(B, series, P):
    """sum_k series[k] |y|^{2k} P, truncated at deg, by Horner's rule in w = |y|^2:
    out = c_k P + sum_mu y_mu^2 out, after dropping trailing zero coefficients."""
    c = np.trim_zeros(np.asarray(series[:B.deg // 2 + 1], dtype=float), "b")
    out = c[-1] * P if len(c) else np.zeros_like(P)
    for ck in c[-2::-1]:
        pad = _pad(out)
        out = ck * P + sum(pad[..., B.square[mu], :, :] for mu in range(B.m))
    return out


# ---------------------------------------------------------------------------
# SymTensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        shape = (len(multi_indices(self.m, self.p)), len(multi_indices(self.m, self.q)),
                 self.d, self.d)
        e = _array(self.entries, shape, "SymTensor entries")
        # _array reads any layout; a misordered block of the right size is refused here
        if np.shape(self.entries) != shape:
            raise ValidationError(
                f"entries shape {np.shape(self.entries)} != {shape} "
                f"for (m={self.m}, p={self.p}, q={self.q}, d={self.d})")
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
        if len(self.components) != self.cutoff + 1:
            raise ValidationError("component list length must be cutoff + 1")
        for n, c in enumerate(self.components):
            if not isinstance(c, SymTensor) or c.q != n or c.m != self.m or c.d != self.d:
                raise ValidationError(f"component {n} has wrong type or order")
        object.__setattr__(self, "components", tuple(self.components))

    def component(self, n):
        return self.components[n]


# ---------------------------------------------------------------------------
# scalar power series helpers (series in w = |y|^2)
# ---------------------------------------------------------------------------

def _series_log(a, n):
    # a[0] must be 1; the weights j/k are exact, so Fraction series stay exact
    la = [0.0] * n
    for k in range(1, n):
        s = a[k]
        for j in range(1, k):
            s -= Fraction(j, k) * la[j] * a[k - j]
        la[k] = s
    return la

def _series_exp(a, n):
    # a[0] must be 0
    ea = [0.0] * n
    ea[0] = 1.0
    for k in range(1, n):
        s = 0.0
        for j in range(1, k + 1):
            s += j * a[j] * ea[k - j]
        ea[k] = s / k
    return ea

def _series_pow(a, alpha, n):
    return _series_exp([alpha * c for c in _series_log(a, n)], n)


def _sphere_profile(radius, nterms):
    """Series coefficients of f(w) = sin^2(sqrt(w)/a)/(w/a^2) in w = |y|^2.

    sin^2(x)/x^2 = sum_k (-1)^k 2^{2k+1}/(2k+2)! x^{2k}; exact rationals,
    floated once, scaled by a^{-2k}.  A radius for which a^{2k} leaves the
    float range is rejected.
    """
    try:
        terms = tuple(float(Fraction((-1) ** k * 2 ** (2 * k + 1), math.factorial(2 * k + 2)))
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
    torus geometries have profile (1,).  The frame is orthonormal at the base
    point, so index placement on the stored curvature arrays is immaterial.
    """

    kind: str
    m: int
    cutoff: int
    volume: float
    radius: float | None
    periods: tuple | None
    scalar_curvature: float
    ricci: np.ndarray = field(repr=False)
    riemann: np.ndarray = field(repr=False)
    radial_profile: tuple = (1.0,)


def sphere_volume(m, radius):
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0) * radius ** m


def build_model_geometry(kind, m, cutoff=6, radius=None, periods=None, volume=None):
    """Construct a flat, torus, or sphere ModelGeometry good to order `cutoff`.

    The radial profile carries enough terms for polynomials of degree
    cutoff + 2, which is what an operator jet of that cutoff reads.

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
    if not isinstance(m, int) or m < 1:
        raise ValidationError("dimension m must be a positive integer")
    if not isinstance(cutoff, int) or cutoff < 0 or cutoff > MAX_CUTOFF:
        raise ValidationError(f"cutoff must lie in 0..{MAX_CUTOFF}")

    nterms = cutoff // 2 + 2
    riemann = np.zeros((m, m, m, m))
    ricci = np.zeros((m, m))
    R = 0.0

    if kind == "sphere":
        if radius is None or not radius > 0:
            raise ValidationError("sphere requires radius > 0")
        profile = _sphere_profile(float(radius), nterms)
        try:
            kappa = 1.0 / float(radius) ** 2
            vol = sphere_volume(m, float(radius))
        except OverflowError:
            vol = math.inf
        if not math.isfinite(vol):
            raise ValidationError(f"sphere radius {radius!r} gives a non-finite volume")
        pair = np.einsum("ac,bd->abcd", np.eye(m), np.eye(m))     # delta_ac delta_bd
        riemann = kappa * (pair - pair.swapaxes(2, 3))
        ricci = kappa * (m - 1) * np.eye(m)
        R = kappa * m * (m - 1)
        per = None
    elif kind == "torus":
        if periods is None:
            raise ValidationError("torus requires periods")
        per = _periods(periods, m)
        profile = (1.0,)
        vol = float(np.prod(per))
        radius = None
    else:
        profile = (1.0,)
        vol = 1.0 if volume is None else float(volume)
        if not 0 < vol < math.inf:
            raise ValidationError("volume must be positive and finite")
        per = None
        radius = None

    return ModelGeometry(kind=kind, m=m, cutoff=cutoff, volume=vol,
                         radius=None if radius is None else float(radius),
                         periods=per, scalar_curvature=float(R), ricci=ricci,
                         riemann=riemann, radial_profile=tuple(profile))


# ---------------------------------------------------------------------------
# potential jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        if self.cutoff < 0:
            raise ValidationError("potential cutoff must be nonnegative")
        m, d = self.m, self.d
        # curvature first: its shape check vets m and d before math.comb sees them
        curv = _array(self.curvature, (m, m, d, d), "curvature")
        shape = (math.comb(m + self.cutoff, m), d, d)
        Q = _array(self.Q, shape, "Q")
        # _array reads any layout; a (d, d, N) Q or a transposed curvature is refused here
        if np.shape(self.Q) != shape:
            raise ValidationError(f"Q shape {np.shape(self.Q)} != {shape} "
                                  f"for (m={m}, cutoff={self.cutoff}, d={d})")
        if np.shape(self.curvature) != curv.shape:
            raise ValidationError("curvature must have shape (m, m, d, d)")
        _require(curv, -curv.transpose(1, 0, 2, 3),
                 "curvature must be antisymmetric in base indices")
        _require(curv, -np.conj(curv.transpose(0, 1, 3, 2)),
                 "curvature fiber blocks must be anti-Hermitian")
        _require(Q[0], np.conj(Q[0].T), "Q at the base point must be Hermitian")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "curvature", curv)

    @classmethod
    def constant(cls, m, d, Q0, curvature=None, cutoff=6):
        Q = np.zeros((math.comb(m + max(cutoff, 0), m), d, d), dtype=complex)
        Q[0] = _array(Q0, (d, d), "Q0")
        if curvature is None:
            curvature = np.zeros((m, m, d, d), dtype=complex)
        return cls(m, d, cutoff, Q, curvature)

    @classmethod
    def zero(cls, m, d=1, cutoff=6):
        return cls.constant(m, d, np.zeros((d, d)), cutoff=cutoff)
