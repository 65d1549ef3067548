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
                   = sum_gamma alpha!/(alpha - gamma)! K_gamma[beta - alpha + gamma],

where K_gamma is the coefficient of d^gamma in L (c, b^mu, a^{mu mu} or
2 a^{mu nu}), filled by index gathers.  L takes two derivatives, so a, b and c
stay exact through degree cutoff, which is every coefficient M reads; and
M[beta, alpha] vanishes unless |alpha| <= |beta| + 2.

Two simplifications are exact here: the connection one-form in the radial
gauge for a covariantly constant curvature is A_mu(y) = -1/2 R_{mu alpha}
y^alpha, which also makes the parallel-transport factor P identically 1, and
the Van Vleck factor in normal coordinates is Delta^{1/2} = det(g)^{-1/4}.

The recursion itself is

    a_0 = I,     (1 + D/k) a_k = L a_{k-1},

with D the Euler (degree-counting) operator.  On monomial coefficients it is
one matrix product and one per-degree scale per k,

    a_k[beta] = k/(k + |beta|) sum_alpha M[beta, alpha] a_{k-1}[alpha],

and the trace coefficients are A_{2k} = (4 pi)^{-m/2} ((-1)^k / k!) vol tr a_k^diag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, ValidationError
from .tensorcalc import (
    ModelGeometry,
    PotentialJet,
    SymTensor,
    TaylorSeries,
    _Basis,
    _basis,
    _pad,
    _series_pow,
    _times,
)


# ---------------------------------------------------------------------------
# operator jet
# ---------------------------------------------------------------------------

def _falling(alpha, gamma):
    """alpha!/(alpha - gamma)!, the coefficient of d^gamma y^alpha; 0 unless alpha >= gamma."""
    out = np.ones(alpha.shape[:-1])
    for mu, g in enumerate(gamma):
        for i in range(g):
            out = out * (alpha[..., mu] - i)
    return out


def _cov(B, conn, mu, P):
    """(d_mu + A_mu) P."""
    out = B.up_weight[mu, :, None, None] * _pad(P)[..., B.up[mu, :B.N], :, :]
    return out if conn is None else out + _times(B, conn[mu], P)

def _metric_polynomials(geom, B):
    """det(g)^{1/2}, det(g)^{-1/2}, det(g)^{1/4}, det(g)^{-1/4} and g^{mu nu} on B.

    Each is a scalar polynomial (N,), exact through degree B.deg; the last is
    an m x m nested list of them.  det(g)^{-1/4} is the Van Vleck factor
    Delta^{1/2}.
    """
    m = geom.m
    nser = B.deg // 2 + 1
    if len(geom.radial_profile) < nser and geom.kind == "sphere":
        raise ValidationError("geometry radial profile too short for requested cutoff")
    prof = list(geom.radial_profile) + [0.0] * nser
    powers = [B.radial(_series_pow(prof, s * (m - 1), nser)) for s in (0.5, -0.5, 0.25, -0.25)]
    # g^{mu nu} = f^{-1} delta + ((1 - 1/f)/w) y^mu y^nu
    inv_prof = _series_pow(prof, -1.0, nser)
    outer_inv = np.append(B.radial([-c for c in inv_prof[1:nser]]), 0.0)
    ginv = [[(B.radial(inv_prof) if mu == nu else 0.0) + outer_inv[B.quot[B.up[nu, B.up[mu, 0]]]]
             for nu in range(m)] for mu in range(m)]
    return (*powers, ginv)


@dataclass(frozen=True)
class OperatorJet:
    """L on the monomials of degree <= cutoff: M[beta, alpha] is the y^beta
    coefficient of L y^alpha, shape (N, N, d, d) in `_Basis` order."""

    m: int
    d: int
    cutoff: int
    M: np.ndarray = field(repr=False)
    geometry: ModelGeometry = field(repr=False)
    potential: PotentialJet = field(repr=False)


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

    sqrtg, inv_sqrtg, gq, ginvq, ginv = _metric_polynomials(geom, B)
    conn = None
    if np.any(pot.curvature):
        # A_mu = -1/2 R_{mu alpha} y^alpha; y^alpha sits at position 1 + alpha
        conn = np.zeros((m, B.N, d, d), dtype=complex)
        conn[:, 1:m + 1] = -0.5 * pot.curvature
    Q = np.zeros((B.N, d, d), dtype=complex)
    for n, jet in enumerate(pot.Q_jets[:B.deg + 1]):
        s = slice(B.offsets[n], B.offsets[n + 1])
        Q[s] = jet.entries[0] / B.fact[s, None, None]     # y^alpha coefficient
    if conn is None and not Q.imag.any():
        Q = Q.real                        # then every polynomial is real

    def apply_L(phi):
        u = _times(B, ginvq, phi)
        G = [_cov(B, conn, nu, u) for nu in range(m)]
        flux = 0.0
        for mu in range(m):
            s = 0.0
            for nu in range(m):
                s = s + _times(B, ginv[mu][nu], G[nu])
            flux = flux + _cov(B, conn, mu, _times(B, sqrtg, s))
        return _times(B, gq, _times(B, Q, u) - _times(B, inv_sqrtg, flux))

    # L = sum_{|gamma| <= 2} K_gamma d^gamma, so K_gamma is c, b^mu, a^{mu mu} or
    # 2 a^{mu nu} (mu < nu).  Apply L to the test monomials y^gamma (the first nt
    # basis elements) and peel off the lower orders.
    nt = B.offsets[3]
    gam = B.expo[:nt]
    Lphi = apply_L((np.eye(nt, B.N)[:, :, None, None] * np.eye(d)).astype(Q.dtype))
    K = Lphi.copy()
    for t in range(nt):
        for s in range(t):
            if B.quot[s, t] < B.N:                 # y^gamma_s divides y^gamma_t
                K[t] -= _falling(gam[t], gam[s]) * _pad(K[s])[B.quot[B.quot[s, t]]]
        K[t] /= _falling(gam[t], gam[t])

    # Columns of order <= 2 are the test monomials' images L y^gamma; the
    # others sum over gamma, one order at a time.  A nonzero weight needs
    # alpha >= gamma, so beta - alpha + gamma = beta / y^{alpha-gamma} has
    # degree <= |beta| <= cutoff, where K is exact; columns with weight 0 read
    # an arbitrary quot row.
    N = B.offsets[cutoff + 1]
    M = np.zeros((N, N, d, d), dtype=K.dtype)
    M[:, :nt] = Lphi[:N, :N].swapaxes(0, 1)
    Kpad = _pad(K)
    for n in range(3, cutoff + 1):
        lo, hi = B.offsets[n], B.offsets[n + 1]
        for t in range(nt):
            w = _falling(B.expo[lo:hi], gam[t])
            cols = np.minimum(B.quot[t, lo:hi], B.N - 1)      # alpha - gamma
            M[:, lo:hi] += w[None, :, None, None] * Kpad[t, B.quot[cols, :N].T]

    # sparsity: degree counting makes M[beta, alpha] vanish for |alpha| > |beta| + 2
    deg = B.degree[:N]
    if np.any(np.abs(M[deg[:, None] + 2 < deg[None, :]]) > 1e-13):
        raise ValidationError("sparsity violation in operator jet (internal)")

    return OperatorJet(m=m, d=d, cutoff=cutoff, M=M, geometry=geom, potential=pot)


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HmdsCoefficient:
    """a_k exact through degree `cutoff`: coeffs[i] (d, d) multiplies y^{alpha_i}
    of `basis`, and diagonal = coeffs[0] is a_k at the base point."""

    order: int
    cutoff: int
    coeffs: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    basis: _Basis = field(repr=False, compare=False)

    @cached_property
    def series(self):
        """a_k as a TaylorSeries: component n holds alpha! times each y^alpha coefficient."""
        B, d = self.basis, self.diagonal.shape[0]
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

    def coefficient(k, cut, a):
        return HmdsCoefficient(k, cut, a, a[0].astype(complex), B)

    cut = cutoff + 2 * kmax
    a = np.zeros((B.offsets[cut + 1], jet.d, jet.d), dtype=jet.M.dtype)
    a[0] = np.eye(jet.d)
    out = [coefficient(0, cut, a)]
    for k in range(1, kmax + 1):
        cut -= 2
        nr = B.offsets[cut + 1]
        a = (k / (k + B.degree[:nr]))[:, None, None] \
            * np.einsum("baij,ajk->bik", jet.M[:nr, :len(a)], a)
        if not np.all(np.isfinite(a)):
            raise NumericError(f"heat coefficient a_{k} is not finite")
        out.append(coefficient(k, cut, a))
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
    return HmdsCoefficient(k, cut, b, b[0].astype(complex), have[0].basis)


# ---------------------------------------------------------------------------
# trace expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatTraceExpansion:
    """Sum of coefficient * t^exponent terms, optionally with log terms.

    terms is a tuple of (exponent, coefficient) with strictly increasing
    half-integer exponents; log_terms, when present, pairs each exponent with
    the coefficient of t^exponent * log t.
    """

    m: int
    terms: tuple
    log_terms: tuple = ()

    def __post_init__(self):
        ex = [e for e, _ in self.terms]
        if any(b <= a for a, b in zip(ex, ex[1:])):
            raise ValidationError("exponents must be strictly increasing")

    def evaluate(self, t):
        if t <= 0:
            raise ValidationError("t must be positive")
        try:
            val = sum(c * t ** e for e, c in self.terms)
            val += sum(c * t ** e * math.log(t) for e, c in self.log_terms)
        except OverflowError:
            raise NumericError(f"heat-trace expansion overflows at t={t!r}") from None
        return val

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
