"""Symmetric-tensor algebra, the covariant Taylor basis, and model geometries.

Everything downstream works with V-valued jets at a single base point x', in
normal coordinates y centered there.  A symmetric tensor with p upper and q
lower slots is stored densely over canonicalized multi-indices (nondecreasing
tuples); the stored entry is the common symmetric component value, so every
contraction carries a multinomial multiplicity.

The covariant Taylor basis used throughout:

    e_n(y) = (1/n!) y^{vee n},      <n|f> = n! * (Taylor coefficient of f),

which makes <n|m> = delta_{nm} I_(n) with no stray factorials.  Fiber blocks
are complex d x d arrays even for scalar problems (then d = 1).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ValidationError

MAX_CUTOFF = 8


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def multi_indices(m, n):
    """All canonical (nondecreasing) multi-indices of order n in dimension m."""
    return tuple(combinations_with_replacement(range(m), n))


@lru_cache(maxsize=None)
def _positions(m, n):
    return {idx: i for i, idx in enumerate(multi_indices(m, n))}


def canonical(idx):
    return tuple(sorted(idx))


def multiplicity(idx):
    """Number of distinct orderings of the multi-index."""
    n = len(idx)
    r = math.factorial(n)
    for c in Counter(idx).values():
        r //= math.factorial(c)
    return r


def exponents(idx, m):
    """Multi-index as a per-axis exponent vector."""
    e = [0] * m
    for i in idx:
        e[i] += 1
    return tuple(e)


@lru_cache(maxsize=None)
def _index_of_exponents(m, n):
    return {exponents(idx, m): i for i, idx in enumerate(multi_indices(m, n))}


@lru_cache(maxsize=None)
def _splits(m, whole, size):
    """Sub-multisets of `whole` of the given size, with split weights.

    Returns tuples (sub, rest, weight) where weight = prod_c C(m_whole(c),
    m_sub(c)) / C(|whole|, size).  These are the coefficients with which
    A[sub] B[rest] enters the weight-one symmetrized product component at
    `whole`.
    """
    total = len(whole)
    counts = Counter(whole)
    values = sorted(counts)
    out = []

    def rec(i, remaining, chosen, ways):
        if i == len(values):
            if remaining == 0:
                sub = []
                for v, k in chosen:
                    sub.extend([v] * k)
                rest = list(whole)
                for s in sub:
                    rest.remove(s)
                out.append((tuple(sub), tuple(rest), ways))
            return
        v = values[i]
        for k in range(0, min(counts[v], remaining) + 1):
            rec(i + 1, remaining - k, chosen + [(v, k)], ways * math.comb(counts[v], k))

    rec(0, size, [], 1)
    denom = math.comb(total, size)
    return tuple((s, r, w / denom) for s, r, w in out)


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
        nu = len(multi_indices(self.m, self.p))
        nl = len(multi_indices(self.m, self.q))
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (nu, nl, self.d, self.d):
            raise ValidationError(
                f"entries shape {e.shape} != {(nu, nl, self.d, self.d)} "
                f"for (m={self.m}, p={self.p}, q={self.q}, d={self.d})")
        if not np.all(np.isfinite(e)):
            raise ValidationError("non-finite entry block")
        object.__setattr__(self, "entries", e)

    @classmethod
    def zeros(cls, m, p, q, d=1):
        nu = len(multi_indices(m, p))
        nl = len(multi_indices(m, q))
        return cls(m, p, q, d, np.zeros((nu, nl, d, d), dtype=complex))

    @property
    def upper_indices(self):
        return multi_indices(self.m, self.p)

    @property
    def lower_indices(self):
        return multi_indices(self.m, self.q)

    def get(self, upper=(), lower=()):
        iu = _positions(self.m, self.p)[canonical(upper)]
        il = _positions(self.m, self.q)[canonical(lower)]
        return self.entries[iu, il]

    def _like(self, other):
        if (self.m, self.p, self.q, self.d) != (other.m, other.p, other.q, other.d):
            raise ValidationError("tensor shape mismatch")

    def __add__(self, other):
        self._like(other)
        return SymTensor(self.m, self.p, self.q, self.d, self.entries + other.entries)

    def __sub__(self, other):
        self._like(other)
        return SymTensor(self.m, self.p, self.q, self.d, self.entries - other.entries)

    def scale(self, c):
        return SymTensor(self.m, self.p, self.q, self.d, self.entries * c)

    def max_abs(self):
        return float(np.max(np.abs(self.entries))) if self.entries.size else 0.0

    def allclose(self, other, tol=1e-12):
        self._like(other)
        return bool(np.max(np.abs(self.entries - other.entries)) <= tol)


def sym_product(A, B):
    """Weight-one symmetrized tensor product (vee).

    The component at canonical index groups (W_up, W_lo) is the average over
    all interleavings of A's and B's slots, which reduces to a sum over
    sub-multiset splits with binomial split weights.  Fiber blocks multiply
    as A_block @ B_block.
    """
    if not isinstance(A, SymTensor) or not isinstance(B, SymTensor):
        raise ValidationError("sym_product expects SymTensor arguments")
    if A.m != B.m or A.d != B.d:
        raise ValidationError("sym_product: dimension or fiber mismatch")
    m, d = A.m, A.d
    p, q = A.p + B.p, A.q + B.q
    R = np.zeros((len(multi_indices(m, p)), len(multi_indices(m, q)), d, d), dtype=complex)
    posA_u = _positions(m, A.p)
    posA_l = _positions(m, A.q)
    posB_u = _positions(m, B.p)
    posB_l = _positions(m, B.q)
    for iw, W in enumerate(multi_indices(m, p)):
        up_splits = _splits(m, W, A.p)
        for il, Wl in enumerate(multi_indices(m, q)):
            lo_splits = _splits(m, Wl, A.q)
            acc = np.zeros((d, d), dtype=complex)
            for su, ru, wu in up_splits:
                au = posA_u[su]
                bu = posB_u[ru]
                for sl, rl, wl in lo_splits:
                    acc += (wu * wl) * (A.entries[au, posA_l[sl]] @ B.entries[bu, posB_l[rl]])
            R[iw, il] = acc
    return SymTensor(m, p, q, d, R)


def inner_product(A, B):
    """Full contraction of A's upper block with B's lower block.

    A is (n over mA), B is (i over n); the result is (i over mA).  The sum
    over the shared n-tuples carries the multi-index multiplicity; fiber
    blocks compose as A_block @ B_block (A acts on B's values).
    """
    if not isinstance(A, SymTensor) or not isinstance(B, SymTensor):
        raise ValidationError("inner_product expects SymTensor arguments")
    if A.m != B.m or A.d != B.d:
        raise ValidationError("inner_product: dimension or fiber mismatch")
    if A.p != B.q:
        raise ValidationError(
            f"inner_product: contravariant order {A.p} of A != covariant order {B.q} of B")
    m, d = A.m, A.d
    w = np.array([multiplicity(K) for K in multi_indices(m, A.p)], dtype=float)
    # R[U, L] = sum_K mult(K) A[K, L] @ B[U, K]
    R = np.einsum("k,klab,ukbc->ulac", w, A.entries, B.entries)
    return SymTensor(m, B.p, A.q, d, R)


def identity_pairing(m, n, d=1):
    """The (n, n) identity tensor I_(n): <n|m> for n = m."""
    idxs = multi_indices(m, n)
    nn = len(idxs)
    E = np.zeros((nn, nn, d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    fact = math.factorial(n)
    for i, idx in enumerate(idxs):
        w = 1.0
        for c in Counter(idx).values():
            w *= math.factorial(c)
        E[i, i] = (w / fact) * eye
    return SymTensor(m, n, n, d, E)


# ---------------------------------------------------------------------------
# Taylor series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorSeries:
    """Jet of a V-valued (or operator-valued) function at the base point.

    components[n] is the SymTensor <n|f> with covariant order n; the
    contravariant order is whatever the represented object carries (0 for
    plain functions, n0 for the basis element |n0>).
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

    @classmethod
    def zero(cls, m, d, cutoff, p=0):
        return cls(m, d, cutoff, tuple(SymTensor.zeros(m, p, n, d) for n in range(cutoff + 1)))

    def component(self, n):
        return self.components[n]

    def __add__(self, other):
        if (self.m, self.d) != (other.m, other.d):
            raise ValidationError("series mismatch")
        cut = min(self.cutoff, other.cutoff)
        return TaylorSeries(self.m, self.d, cut,
                            tuple(self.components[n] + other.components[n]
                                  for n in range(cut + 1)))

    def scale(self, c):
        return TaylorSeries(self.m, self.d, self.cutoff,
                            tuple(t.scale(c) for t in self.components))

    def truncate(self, cutoff):
        if cutoff > self.cutoff:
            raise ValidationError("cannot extend a series by truncation")
        return TaylorSeries(self.m, self.d, cutoff, self.components[:cutoff + 1])


# ---------------------------------------------------------------------------
# scalar power series helpers (series in w = |y|^2)
# ---------------------------------------------------------------------------

def _series_mul(a, b, n):
    out = [0.0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[:n - i]):
            out[i + j] += ai * bj
    return out

def _series_log(a, n):
    # a[0] must be 1
    la = [0.0] * n
    for k in range(1, n):
        s = a[k]
        for j in range(1, k):
            s -= (j / k) * la[j] * a[k - j]
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


@lru_cache(maxsize=None)
def _norm2_power(m, k):
    """Exponent vectors and multinomial weights of (y_1^2+...+y_m^2)^k."""
    out = {}
    for idx in combinations_with_replacement(range(m), k):
        e = [0] * m
        for i in idx:
            e[i] += 2
        out[tuple(e)] = out.get(tuple(e), 0) + multiplicity(idx)
    return tuple(out.items())


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
    metric_jets: tuple          # SymTensor(p=2, q=n), scalar fiber
    vanvleck_jets: tuple        # SymTensor(p=0, q=n), scalar fiber
    scalar_curvature: float
    ricci: np.ndarray = field(repr=False)
    riemann: np.ndarray = field(repr=False)
    radial_profile: tuple = (1.0,)


def _profile_component_jets(m, cutoff, diag_series, outer_series):
    """Jets of g_ij(y) = diag(w) delta_ij + outer(w) y_i y_j.

    Returns a list of SymTensor(p=2, q=n) over n = 0..cutoff.
    """
    pair_pos = _positions(m, 2)
    jets = []
    for n in range(cutoff + 1):
        low = multi_indices(m, n)
        low_pos = _index_of_exponents(m, n)
        E = np.zeros((len(pair_pos), len(low), 1, 1), dtype=complex)
        if n % 2 == 0:
            k = n // 2
            fact = {}
            # diag(w) delta_ij contributes c_k * w^k
            if k < len(diag_series) and diag_series[k] != 0.0:
                for expo, wgt in _norm2_power(m, k):
                    fact[expo] = diag_series[k] * wgt
                for (i, j), ip in pair_pos.items():
                    if i == j:
                        for expo, c in fact.items():
                            E[ip, low_pos[expo], 0, 0] += c
            # outer(w) y_i y_j contributes at w-order k-1
            if 1 <= k <= len(outer_series) and outer_series[k - 1] != 0.0:
                for expo, wgt in _norm2_power(m, k - 1):
                    base = outer_series[k - 1] * wgt
                    for (i, j), ip in pair_pos.items():
                        e2 = list(expo)
                        e2[i] += 1
                        e2[j] += 1
                        E[ip, low_pos[tuple(e2)], 0, 0] += base
        if n % 2 == 0:
            # <n|.> = alpha! * (monomial coefficient); convert in place
            for li, idx in enumerate(low):
                al = exponents(idx, m)
                f = 1.0
                for e in al:
                    f *= math.factorial(e)
                E[:, li] *= f
        jets.append(SymTensor(m, 2, n, 1, E))
    return jets


def _scalar_series_jets(m, cutoff, series):
    """Jets of a radial scalar h(w = |y|^2) as SymTensor(p=0, q=n)."""
    jets = []
    for n in range(cutoff + 1):
        low = multi_indices(m, n)
        low_pos = _index_of_exponents(m, n)
        E = np.zeros((1, len(low), 1, 1), dtype=complex)
        if n % 2 == 0:
            k = n // 2
            if k < len(series) and series[k] != 0.0:
                for expo, wgt in _norm2_power(m, k):
                    al = expo
                    f = 1.0
                    for e in al:
                        f *= math.factorial(e)
                    E[0, low_pos[expo], 0, 0] += series[k] * wgt * f
        jets.append(SymTensor(m, 0, n, 1, E))
    return jets


def sphere_volume(m, radius):
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0) * radius ** m


def build_model_geometry(kind, m, cutoff=6, radius=None, periods=None, volume=None):
    """Construct a flat, torus, or sphere ModelGeometry with jets to `cutoff`.

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
        for mu in range(m):
            for al in range(m):
                for nu in range(m):
                    for be in range(m):
                        riemann[mu, al, nu, be] = kappa * (
                            (mu == nu) * (al == be) - (mu == be) * (al == nu))
        ricci = kappa * (m - 1) * np.eye(m)
        R = kappa * m * (m - 1)
        per = None
    elif kind == "torus":
        if periods is None:
            raise ValidationError("torus requires periods")
        per = tuple(float(p) for p in periods)
        if len(per) != m or any(p <= 0 for p in per):
            raise ValidationError("torus needs m positive periods")
        profile = (1.0,)
        vol = float(np.prod(per))
        radius = None
    else:
        profile = (1.0,)
        vol = 1.0 if volume is None else float(volume)
        if vol <= 0:
            raise ValidationError("volume must be positive")
        per = None
        radius = None

    diag = list(profile) + [0.0] * nterms
    outer = [-c for c in diag[1:]]          # (1 - f)/w
    metric_jets = _profile_component_jets(m, cutoff, diag, outer)
    vv_series = _series_pow(diag, -(m - 1) / 4.0, nterms) if kind == "sphere" \
        else [1.0] + [0.0] * (nterms - 1)
    vanvleck_jets = _scalar_series_jets(m, cutoff, vv_series)

    return ModelGeometry(kind=kind, m=m, cutoff=cutoff, volume=vol,
                         radius=None if radius is None else float(radius),
                         periods=per, metric_jets=tuple(metric_jets),
                         vanvleck_jets=tuple(vanvleck_jets),
                         scalar_curvature=float(R), ricci=ricci,
                         riemann=riemann, radial_profile=tuple(profile))


# ---------------------------------------------------------------------------
# potential jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialJet:
    """Jets of the endomorphism Q plus a covariantly constant curvature.

    curvature has shape (m, m, d, d): antisymmetric in the two base indices,
    anti-Hermitian in the fiber.  Q_jets[n] is the symmetrized n-th
    derivative <n|Q> as a SymTensor(p=0, q=n).
    """

    m: int
    d: int
    cutoff: int
    Q_jets: tuple
    curvature: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.Q_jets) != self.cutoff + 1:
            raise ValidationError("Q jet list length must be cutoff + 1")
        for n, t in enumerate(self.Q_jets):
            if t.q != n or t.p != 0 or t.m != self.m or t.d != self.d:
                raise ValidationError(f"Q jet {n} has wrong orders")
        curv = np.asarray(self.curvature, dtype=complex)
        if curv.shape != (self.m, self.m, self.d, self.d):
            raise ValidationError("curvature must have shape (m, m, d, d)")
        if np.max(np.abs(curv + curv.transpose(1, 0, 2, 3))) > 1e-12:
            raise ValidationError("curvature must be antisymmetric in base indices")
        ah = curv + np.conj(curv.transpose(0, 1, 3, 2))
        if np.max(np.abs(ah)) > 1e-12:
            raise ValidationError("curvature fiber blocks must be anti-Hermitian")
        Q0 = self.Q_jets[0].entries[0, 0]
        if np.max(np.abs(Q0 - np.conj(Q0.T))) > 1e-12:
            raise ValidationError("Q at the base point must be Hermitian")
        object.__setattr__(self, "curvature", curv)
        object.__setattr__(self, "Q_jets", tuple(self.Q_jets))

    @classmethod
    def constant(cls, m, d, Q0, curvature=None, cutoff=6):
        Q0 = np.asarray(Q0, dtype=complex).reshape(d, d)
        jets = [SymTensor(m, 0, 0, d, Q0.reshape(1, 1, d, d))]
        jets += [SymTensor.zeros(m, 0, n, d) for n in range(1, cutoff + 1)]
        if curvature is None:
            curvature = np.zeros((m, m, d, d), dtype=complex)
        return cls(m, d, cutoff, tuple(jets), np.asarray(curvature, dtype=complex))

    @classmethod
    def zero(cls, m, d=1, cutoff=6):
        return cls.constant(m, d, np.zeros((d, d)), cutoff=cutoff)
