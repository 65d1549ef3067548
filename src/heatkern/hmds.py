"""Jet-space recursion for the diagonal heat-kernel coefficients.

The generator works on one model geometry at a time, in normal coordinates y
about the base point.  The conjugated operator

    L = P^{-1} Delta^{-1/2} F Delta^{1/2} P,
    F f = -g^{-1/2} (d_mu + A_mu) (g^{1/2} g^{mu nu} (d_nu + A_nu) f) + Q f,

is second order, so the degree-<= c part of L P reads the degree-<= c + 2
part of P only.

Polynomials are dense arrays over the monomials y^alpha of degree <= c, the
first rows of `tensorcalc._Basis` of degree cutoff + 2, each truncated at its
own length.  The operator jet is L itself: `OperatorJet.apply` holds the
metric series, the connection and Q, and applies L to a batch of polynomials
at once, exact through degree c - 2 whenever P is exact through c.  Only
`build_operator_jet` casts to float: on Fraction data L and its tower are exact.

Two simplifications are exact here: the connection one-form in the radial
gauge for a covariantly constant curvature is A_mu(y) = -1/2 R_{mu alpha}
y^alpha, which also makes the parallel-transport factor P identically 1, and
the Van Vleck factor in normal coordinates is Delta^{1/2} = det(g)^{-1/4}.

The metric enters as series in w = |y|^2: g_ij = f delta_ij + (1 - f) y_i y_j / w,
so det(g) = f^{m-1} and, with h = (1 - f^{-1})/w,

    sqrt(g) g^{mu nu} G_nu = sqrt(g) f^{-1} G_mu + y^mu sqrt(g) h sum_nu y^nu G_nu.

L multiplies by det(g)^{-1/4}, sqrt(g) f^{-1} and sqrt(g) h with Horner's rule
in w and by y^mu with one gather for all mu; Delta^{+-1/2} commute with Q
and cancel on it.

The recursion itself is

    a_0 = I,     (1 + D/k) a_k = L a_{k-1},

with D the Euler (degree-counting) operator.  On monomial coefficients it is
one application of L and one per-degree scale per k,

    a_k[beta] = k/(k + |beta|) (L a_{k-1})[beta],

so a_{k-1} exact through degree c + 2 gives a_k exact through c, and L runs
on that shrinking prefix only.  The trace coefficients are
A_{2k} = (4 pi)^{-m/2} ((-1)^k / k!) vol tr a_k^diag.

HeatTraceExpansion.evaluate takes t as spectra's oracles do: a positive scalar
gives a float, a non-empty 1-D array an array, any other t a ValidationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, ValidationError
from .spectra import _as_t, _like_t, _number, _sizes
from .tensorcalc import (
    SymTensor,
    TaylorSeries,
    _Basis,
    _basis,
    _graded_exp,
    _pad,
    _radial_times,
    _series_log,
    _times,
)


# ---------------------------------------------------------------------------
# operator jet
# ---------------------------------------------------------------------------

def _gather(table, P, diag=False):
    """P through each row mu of an (m, N + 1) index map such as `down` (y^mu P),
    truncated at P's length n and stacked on axis -4; with diag, P is such a
    stack and row mu reads entry mu."""
    n = P.shape[-3]
    at = (np.arange(len(table))[:, None],) if diag else ()
    return _pad(P)[(..., *at, np.minimum(table[:, :n], n), slice(None), slice(None))]

def _cov(B, conn, P, diag=False):
    """(d_mu + A_mu) P for mu = 0..m-1, stacked as `_gather` does."""
    out = (B.expo[:P.shape[-3]].T + 1)[:, :, None, None] * _gather(B.up, P, diag)
    for mu in range(B.m) if conn is not None else ():
        out[..., mu, :, :, :] += _times(B, conn[mu], P[..., mu, :, :, :] if diag else P)
    return out

def _metric_series(geom, deg):
    """det(g)^{-1/4}, sqrt(g) f^{-1} and sqrt(g) h as series in w = |y|^2,
    exact through degree deg in y.  Nothing is cast, so a profile of Fractions
    gives Fraction series: the scales (m - 1)/2, (m - 3)/2 and (1 - m)/4 of
    log f divide by their power of 2 last, which rounds a float as the
    half-integer factor would."""
    m, nser = geom.m, deg // 2 + 1
    if len(geom.radial_profile) < nser and geom.kind == "sphere":
        raise ValidationError("geometry radial profile too short for requested cutoff")
    prof = list(geom.radial_profile)
    # the profile's own zero: a Python 0 would float a one-term Fraction profile's series
    log_f = _series_log(prof + [0 * prof[0]] * nser, nser)[1:]
    sqrtg, diag, vanvleck = (_graded_exp([p * c / q for c in log_f], nser - 1, 1,
                                         lambda a, b, *grades: a * b)
                             for p, q in ((m - 1, 2), (m - 3, 2), (1 - m, 4)))
    return vanvleck, diag, [a - b for a, b in zip(sqrtg[1:], diag[1:])]


@dataclass(frozen=True, eq=False)
class OperatorJet:
    """L on polynomials over `basis` = `_basis(m, cutoff + 2)`, each cut at its own degree.

    `series` holds det(g)^{-1/4}, sqrt(g) f^{-1} and sqrt(g) h as w-series
    without trailing zeros; `connection` is None or the (m, N_B, d, d)
    coefficients of A_mu; Q is (N_B, d, d), complex when a connection is
    present or Q is, real otherwise.
    """

    m: int
    d: int
    cutoff: int
    series: tuple = field(repr=False)
    connection: np.ndarray | None = field(repr=False)
    Q: np.ndarray = field(repr=False)
    basis: _Basis = field(repr=False)

    def apply(self, P):
        """L P for arrays P of shape (..., N_c, d, d), N_c = basis.offsets[c + 1], each
        truncated at degree c: exact through degree c - 2 when P is exact through c."""
        B, conn = self.basis, self.connection
        P = np.asarray(P)
        n = P.shape[-3] if P.ndim >= 3 else 0
        if n not in B.offsets[1:] or P.shape[-2:] != (self.d, self.d):
            raise ValidationError(f"operator jet acts on (..., N, {self.d}, {self.d}) arrays "
                                  f"with N in {B.offsets[1:].tolist()}, not {P.shape}")
        P = P.astype(np.result_type(P, self.Q), copy=False)
        vanvleck, flux_diag, flux_outer = self.series
        u = _radial_times(B, vanvleck, P)
        G = _cov(B, conn, u)
        Y = _gather(B.down, G, diag=True)
        hS = _radial_times(B, flux_outer, np.add.reduce(Y, axis=-4, initial=0))
        T = _cov(B, conn, _radial_times(B, flux_diag, G) + _gather(B.down, hS), diag=True)
        flux = np.add.reduce(T, axis=-4, initial=0)
        return _times(B, self.Q, P) - _radial_times(B, vanvleck, flux)


def build_operator_jet(geom, pot, cutoff):
    """The conjugated operator on the given geometry, exact through `cutoff`."""
    if geom.m != pot.m:
        raise ValidationError("geometry and potential dimensions differ")
    (cutoff,) = _sizes((cutoff,), "operator jet cutoff", least=0)
    if geom.cutoff < cutoff or pot.cutoff < cutoff:
        raise ValidationError(
            f"input jets support order {min(geom.cutoff, pot.cutoff)} < requested {cutoff}")
    m, d = geom.m, pot.d
    B = _basis(m, cutoff + 2)
    # trimmed once here, so no Horner step of `apply` multiplies by a zero
    series = tuple(np.trim_zeros(np.asarray(s, dtype=float), "b")
                   for s in _metric_series(geom, B.deg))
    conn = None
    if np.any(pot.curvature):
        # A_mu = -1/2 R_{mu alpha} y^alpha; y^alpha sits at position 1 + alpha
        conn = np.zeros((m, B.N, d, d), dtype=complex)
        conn[:, 1:m + 1] = -0.5 * pot.curvature
    Q = np.zeros((B.N, d, d), dtype=complex)
    Q[:len(pot.Q)] = pot.Q[:B.N]
    if conn is None and not Q.imag.any():
        Q = Q.real                        # then every polynomial is real
    return OperatorJet(m=m, d=d, cutoff=cutoff, series=series, connection=conn, Q=Q, basis=B)


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HmdsCoefficient:
    """a_k exact through degree `cutoff`: coeffs[i] (d, d) multiplies y^{alpha_i}
    of `basis`."""

    order: int
    cutoff: int
    coeffs: np.ndarray = field(repr=False)
    basis: _Basis = field(repr=False)

    @property
    def diagonal(self):
        """a_k at the base point, as a complex (d, d) array."""
        return self.coeffs[0].astype(complex)

    @cached_property
    def series(self):
        """a_k as a TaylorSeries: component n holds alpha! times each y^alpha coefficient."""
        B, d = self.basis, self.coeffs.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):     # SymTensor refuses inf alpha!
            taylor = B.fact[:len(self.coeffs), None, None] * self.coeffs
        comps = tuple(SymTensor(B.m, 0, n, d, taylor[None, B.offsets[n]:B.offsets[n + 1]])
                      for n in range(self.cutoff + 1))
        return TaylorSeries(B.m, d, self.cutoff, comps)


def hmds_coefficients(jet, kmax, cutoff):
    """Solve the recursion; coefficient k is exact to order cutoff + 2(kmax-k)."""
    kmax, cutoff = _sizes((kmax, cutoff), "hmds_coefficients (kmax, cutoff)", least=0)
    if cutoff + 2 * kmax > jet.cutoff:
        raise ValidationError(
            f"need jet capacity {cutoff + 2 * kmax}, operator jet has {jet.cutoff}")
    B = jet.basis
    cut = cutoff + 2 * kmax
    one = (jet.Q.flat[0] * 0 + 1).real          # 1.0, or Fraction(1) on a Fraction jet
    a = np.zeros((B.offsets[cut + 1], jet.d, jet.d), dtype=jet.Q.dtype)
    a[0] = np.eye(jet.d, dtype=int) * one
    out = [HmdsCoefficient(0, cut, a, B)]
    for k in range(1, kmax + 1):
        cut -= 2
        nr = B.offsets[cut + 1]
        # an overflow is reported once, as the NumericError below
        with np.errstate(over="ignore", invalid="ignore"):
            a = ((k * one) / (k + B.degree[:nr]))[:, None, None] * jet.apply(a)[:nr]
            if not np.all(np.abs(a) < np.inf):
                raise NumericError(f"heat coefficient a_{k} is not finite")
        out.append(HmdsCoefficient(k, cut, a, B))
    return out


def b_lambda(k, lam, coeffs):
    """Shifted coefficient b_k(lambda) = sum_n C(k,n) (-lambda)^{k-n} a_n, as an
    HmdsCoefficient of order k exact through the smallest cutoff of a_0..a_k."""
    (k,) = _sizes((k,), "b_lambda order k", least=0)
    _number(lam, "b_lambda shift lam")           # a Fraction lam is kept exact
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
        for e, c in self.terms:         # read, not stored: a coefficient keeps its own type
            _number(e, "terms exponent"), _number(c, "terms coefficient")
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
        exponent = _number(exponent, "exponent")
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
    kmax = max((c.order for c in coeffs), default=0)
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
