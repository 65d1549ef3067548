"""Jet-space recursion for the diagonal heat-kernel coefficients.

The generator works on one model geometry at a time, in normal coordinates y
about the base point.  The conjugated operator

    L = P^{-1} Delta^{-1/2} F Delta^{1/2} P,
    F f = -g^{-1/2} (d_mu + A_mu) (g^{1/2} g^{mu nu} (d_nu + A_nu) f) + Q f,

is second order, L = a^{mu nu} d_mu d_nu + b^mu d_mu + c.  Applying L once,
batched, to the test monomials 1, y_mu, y_mu y_nu gives a, b and c (c = L 1,
b^mu = L y_mu - c y_mu, ...).

Polynomials are dense arrays over the monomials y^alpha of degree <= cutoff + 2
(`tensorcalc._Basis`), and the operator jet is one matrix on the monomials of
degree <= cutoff,

    M[beta, alpha] = coefficient of y^beta in L y^alpha
                   = sum_gamma W[gamma, alpha] K_gamma[beta - alpha + gamma],

where K_gamma is the coefficient of d^gamma in L (c, b^mu, a^{mu mu} or
2 a^{mu nu}) and W[gamma, alpha] = alpha!/(alpha - gamma)! is one integer table
over |gamma| <= 2 and the whole basis, 0 unless alpha >= gamma.  W peels the
K_gamma off L applied to the test monomials y^gamma, and each K_gamma fills
every column it reaches with one gather.  L takes two derivatives, so a, b and c
stay exact through degree cutoff, which is every coefficient M reads; and
M[beta, alpha] vanishes unless |alpha| <= |beta| + 2.

Two simplifications are exact here: the connection one-form in the radial
gauge for a covariantly constant curvature is A_mu(y) = -1/2 R_{mu alpha}
y^alpha, which also makes the parallel-transport factor P identically 1, and
the Van Vleck factor in normal coordinates is Delta^{1/2} = det(g)^{-1/4}.

The metric enters as series in w = |y|^2: g_ij = f delta_ij + (1 - f) y_i y_j / w,
so det(g) = f^{m-1} and, with h = (1 - f^{-1})/w,

    sqrt(g) g^{mu nu} G_nu = sqrt(g) f^{-1} G_mu + y^mu sqrt(g) h sum_nu y^nu G_nu.

L multiplies by det(g)^{-1/4}, sqrt(g) f^{-1} and sqrt(g) h with Horner's rule
in w and by y^mu with one gather; Delta^{+-1/2} commute with Q and cancel on it.

The recursion itself is

    a_0 = I,     (1 + D/k) a_k = L a_{k-1},

with D the Euler (degree-counting) operator.  On monomial coefficients it is
one matrix product and one per-degree scale per k,

    a_k[beta] = k/(k + |beta|) sum_alpha M[beta, alpha] a_{k-1}[alpha],

and the trace coefficients are A_{2k} = (4 pi)^{-m/2} ((-1)^k / k!) vol tr a_k^diag.

HeatTraceExpansion.evaluate takes t as spectra's oracles do: a positive scalar
gives a float, a non-empty 1-D array an array, any other t a ValidationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, ValidationError
from .spectra import _as_t, _like_t
from .tensorcalc import (
    SymTensor,
    TaylorSeries,
    _Basis,
    _basis,
    _pad,
    _radial_times,
    _series_pow,
    _times,
)


# ---------------------------------------------------------------------------
# operator jet
# ---------------------------------------------------------------------------

def _cov(B, conn, mu, P):
    """(d_mu + A_mu) P."""
    out = B.up_weight[mu, :, None, None] * _pad(P)[..., B.up[mu, :B.N], :, :]
    return out if conn is None else out + _times(B, conn[mu], P)

def _metric_series(geom, deg):
    """det(g)^{-1/4}, sqrt(g) f^{-1} and sqrt(g) h as series in w = |y|^2,
    exact through degree deg in y."""
    m, nser = geom.m, deg // 2 + 1
    if len(geom.radial_profile) < nser and geom.kind == "sphere":
        raise ValidationError("geometry radial profile too short for requested cutoff")
    prof = list(geom.radial_profile) + [0.0] * nser
    sqrtg, diag, vanvleck = (_series_pow(prof, s, nser)
                             for s in ((m - 1) / 2, (m - 3) / 2, (1 - m) / 4))
    return vanvleck, diag, [a - b for a, b in zip(sqrtg[1:], diag[1:])]


@dataclass(frozen=True)
class OperatorJet:
    """L on the monomials of degree <= cutoff: M[beta, alpha] is the y^beta
    coefficient of L y^alpha, shape (N, N, d, d) in `_Basis` order."""

    m: int
    d: int
    cutoff: int
    M: np.ndarray = field(repr=False)


def build_operator_jet(geom, pot, cutoff):
    """Matrix of the conjugated operator on the given geometry."""
    if geom.m != pot.m:
        raise ValidationError("geometry and potential dimensions differ")
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    if geom.cutoff < cutoff or pot.cutoff < cutoff:
        raise ValidationError(
            f"input jets support order {min(geom.cutoff, pot.cutoff)} < requested {cutoff}")
    m, d = geom.m, pot.d
    B = _basis(m, cutoff + 2)

    vanvleck, flux_diag, flux_outer = _metric_series(geom, B.deg)
    conn = None
    if np.any(pot.curvature):
        # A_mu = -1/2 R_{mu alpha} y^alpha; y^alpha sits at position 1 + alpha
        conn = np.zeros((m, B.N, d, d), dtype=complex)
        conn[:, 1:m + 1] = -0.5 * pot.curvature
    Q = np.zeros((B.N, d, d), dtype=complex)
    Q[:len(pot.Q)] = pot.Q[:B.N]
    if conn is None and not Q.imag.any():
        Q = Q.real                        # then every polynomial is real

    def times_y(nu, P):
        return _pad(P)[..., B.down[nu, :B.N], :, :]

    def apply_L(phi):
        u = _radial_times(B, vanvleck, phi)
        G = [_cov(B, conn, nu, u) for nu in range(m)]
        hS = _radial_times(B, flux_outer, sum(times_y(nu, G[nu]) for nu in range(m)))
        flux = sum(_cov(B, conn, mu, _radial_times(B, flux_diag, G[mu]) + times_y(mu, hS))
                   for mu in range(m))
        return _times(B, Q, phi) - _radial_times(B, vanvleck, flux)

    # L = sum_{|gamma| <= 2} K_gamma d^gamma, so K_gamma is c, b^mu, a^{mu mu} or
    # 2 a^{mu nu} (mu < nu).  Apply L to the test monomials y^gamma (the first nt
    # basis elements) and peel off the lower orders.  W[gamma, alpha] =
    # alpha!/(alpha - gamma)! has at most two factors per axis: gamma_mu <= 2.
    nt = B.offsets[3]
    gam, expo = B.expo[:nt, None], B.expo[None]
    W = np.prod(np.where(gam > 0, expo, 1) * np.where(gam > 1, expo - 1, 1), axis=-1)
    Lphi = apply_L((np.eye(nt, B.N)[:, :, None, None] * np.eye(d)).astype(Q.dtype))
    K = Lphi.copy()
    for t in range(nt):
        for s in range(t):
            if W[s, t]:                                # y^gamma_s divides y^gamma_t
                K[t] -= W[s, t] * _pad(K[s])[B.quot[B.quot[s, t]]]
        K[t] /= W[t, t]

    # Columns of order <= 2 are the test monomials' images L y^gamma; each
    # other column alpha sums W[gamma, alpha] K_gamma[beta - alpha + gamma]
    # over the gamma <= alpha, in gamma order.  beta - alpha + gamma =
    # beta / y^{alpha-gamma} has degree <= |beta| <= cutoff, where K is exact.
    N = B.offsets[cutoff + 1]
    M = np.zeros((N, N, d, d), dtype=K.dtype)
    M[:, :nt] = Lphi[:N, :N].swapaxes(0, 1)
    Kpad = _pad(K)
    for t in np.flatnonzero(K.any(axis=(1, 2, 3))):   # a zero K_gamma adds nothing
        alpha = nt + np.flatnonzero(W[t, nt:N])
        image = Kpad[t, B.quot[B.quot[t, alpha], :N].T]
        image *= W[t, alpha, None, None]
        M[:, alpha] += image

    # sparsity: degree counting makes M[beta, alpha] vanish for |alpha| > |beta| + 2
    deg = B.degree[:N]
    if np.any(np.abs(M[deg[:, None] + 2 < deg[None, :]]) > 1e-13):
        raise ValidationError("sparsity violation in operator jet (internal)")

    return OperatorJet(m=m, d=d, cutoff=cutoff, M=M)


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HmdsCoefficient:
    """a_k exact through degree `cutoff`: coeffs[i] (d, d) multiplies y^{alpha_i}
    of `basis`."""

    order: int
    cutoff: int
    coeffs: np.ndarray = field(repr=False)
    basis: _Basis = field(repr=False, compare=False)

    @property
    def diagonal(self):
        """a_k at the base point, as a complex (d, d) array."""
        return self.coeffs[0].astype(complex)

    @cached_property
    def series(self):
        """a_k as a TaylorSeries: component n holds alpha! times each y^alpha coefficient."""
        B, d = self.basis, self.coeffs.shape[-1]
        taylor = B.fact[:len(self.coeffs), None, None] * self.coeffs
        comps = tuple(SymTensor(B.m, 0, n, d, taylor[None, B.offsets[n]:B.offsets[n + 1]])
                      for n in range(self.cutoff + 1))
        return TaylorSeries(B.m, d, self.cutoff, comps)


def hmds_coefficients(jet, kmax, cutoff):
    """Solve the recursion; coefficient k is exact to order cutoff + 2(kmax-k)."""
    if kmax < 0 or cutoff < 0:
        raise ValidationError("kmax and cutoff must be nonnegative")
    if cutoff + 2 * kmax > jet.cutoff:
        raise ValidationError(
            f"need jet capacity {cutoff + 2 * kmax}, operator jet has {jet.cutoff}")
    B = _basis(jet.m, jet.cutoff + 2)
    cut = cutoff + 2 * kmax
    a = np.zeros((B.offsets[cut + 1], jet.d, jet.d), dtype=jet.M.dtype)
    a[0] = np.eye(jet.d)
    out = [HmdsCoefficient(0, cut, a, B)]
    for k in range(1, kmax + 1):
        cut -= 2
        nr = B.offsets[cut + 1]
        a = (k / (k + B.degree[:nr]))[:, None, None] \
            * np.einsum("baij,ajk->bik", jet.M[:nr, :len(a)], a)
        if not np.all(np.isfinite(a)):
            raise NumericError(f"heat coefficient a_{k} is not finite")
        out.append(HmdsCoefficient(k, cut, a, B))
    return out


def b_lambda(k, lam, coeffs):
    """Shifted coefficient b_k(lambda) = sum_n C(k,n) (-lambda)^{k-n} a_n, as an
    HmdsCoefficient of order k exact through the smallest cutoff of a_0..a_k."""
    if not isinstance(k, int) or k < 0:
        raise ValidationError("order k must be a nonnegative integer")
    have = {c.order: c for c in coeffs}
    missing = [n for n in range(k + 1) if n not in have]
    if missing:
        raise ValidationError(f"b_lambda needs orders 0..{k}, missing {missing}")
    cut = min(have[n].cutoff for n in range(k + 1))
    size = have[0].basis.offsets[cut + 1]
    b = sum(math.comb(k, n) * (-lam) ** (k - n) * have[n].coeffs[:size] for n in range(k + 1))
    return HmdsCoefficient(k, cut, b, have[0].basis)


# ---------------------------------------------------------------------------
# trace expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatTraceExpansion:
    """Sum of coefficient * t^exponent terms.

    terms is a tuple of (exponent, coefficient) with strictly increasing
    half-integer exponents.
    """

    m: int
    terms: tuple

    def __post_init__(self):
        ex = [e for e, _ in self.terms]
        if any(b <= a for a, b in zip(ex, ex[1:])):
            raise ValidationError("exponents must be strictly increasing")

    def evaluate(self, t):
        """The expansion at a scalar t (a float) or a t-array (an array); a
        value that leaves the float range is a NumericError naming its t."""
        ts = _as_t(t)
        with np.errstate(over="ignore", invalid="ignore"):
            val = sum(c * ts ** e for e, c in self.terms)
        return _like_t(ts, val, "heat-trace expansion")

    def coefficient(self, exponent):
        for e, c in self.terms:
            if abs(e - exponent) < 1e-12:
                return c
        return 0.0


def trace_expansion(geom, coeffs):
    """Integrated diagonal: A_{2k} = (4 pi)^{-m/2} ((-1)^k/k!) vol tr a_k."""
    if geom.kind not in ("flat", "torus", "sphere"):
        raise ValidationError("trace expansion needs a homogeneous model geometry")
    m = geom.m
    pref = (4.0 * math.pi) ** (-m / 2.0) * geom.volume
    terms = []
    kmax = max(c.order for c in coeffs)
    by_order = {c.order: c for c in coeffs}
    for k in range(kmax + 1):
        c = by_order.get(k)
        if c is None:
            raise ValidationError(f"missing coefficient order {k}")
        tr = np.trace(c.diagonal)
        if abs(tr.imag) > 1e-10 * max(1.0, abs(tr.real)):
            raise ValidationError("coefficient trace is not real")
        A = pref * ((-1.0) ** k / math.factorial(k)) * tr.real
        terms.append(((2 * k - m) / 2.0, A))
        if k < kmax:
            terms.append(((2 * k + 1 - m) / 2.0, 0.0))
    return HeatTraceExpansion(m=m, terms=tuple(terms))
