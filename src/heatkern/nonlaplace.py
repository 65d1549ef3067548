"""Leading-symbol machinery for operators whose principal part is not |xi|^2 I.

The class treated here has a covariantly constant leading symbol
A(xi) = a^{mu nu} xi_mu xi_nu whose eigenvalues are exact quadratics
mu_i |xi|^2 with direction-independent slopes and multiplicities; the
eigenprojectors Pi_i(xi) depend on the direction only.  That structure is
detected (and enforced) by sampling: inputs whose eigenvalues genuinely
depend on the direction are rejected as out of class rather than clustered
approximately.

The short-time data available at this level: the weighted volume term A_0,
the pointwise trace u_0, and the endomorphism H that multiplies Q in the
next coefficient.  H's sphere average and torus_oracle, the exact lattice
trace they are checked against, run through quadrature.converge; the tail
bound is spectra._lattice_tail, as for the circle/torus Fourier oracle.  The
lattice oracle builds and diagonalises only the box points whose Weyl lower
bound mu_min |k|^2 + qmin can reach its floor, and adds the bound on the
others to that tail.  A symbol with a real coefficient array has real symbol
matrices, so every eigvalsh and eigh here runs in real arithmetic unless a
(or, in the lattice oracle, Q) is complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import EllipticityError, StructureError
from .quadrature import sphere_average, unit_directions
from .spectra import (_array, _certified_trace, _exp_sum, _gauss_power, _lattice_tail, _number,
                      _periods, _read_only, _require, _scalar_t, _sizes, _unit_vectors)

_CLUSTER_RTOL = 1e-8
_SPREAD_RTOL = 1e-10
_LATTICE_CAP = 4_000_000         # eigenvalues in one lattice partial sum
_LATTICE_FLOOR = 1e-15           # bound on the lattice tail, relative to the sum
_EIG_CHUNK = 262_144             # lattice points per eigvalsh call
_DIRECTIONS = (24, 20260416)     # count and seed of eigenstructure's default sample


@dataclass(frozen=True, eq=False)
class LeadingSymbol:
    """Constant coefficient array a^{mu nu} of d x d Hermitian blocks, a read-only copy."""

    m: int
    d: int
    a: np.ndarray

    def __post_init__(self):
        a = _array(self.a, (self.m, self.m, self.d, self.d), "a")
        _require(a, a.transpose(1, 0, 2, 3), "a must be symmetric in its base indices")
        _require(a, a.conj().transpose(0, 1, 3, 2), "blocks of a must be Hermitian")
        object.__setattr__(self, "a", _read_only(a))

    @cached_property
    def spectrum(self):
        """eigenstructure at the default sample, detected on first use and kept."""
        return eigenstructure(self, unit_directions(self.m, *_DIRECTIONS))

    def symbol_matrix(self, xi):
        """A(xi) = a^{mu nu} xi_mu xi_nu, one matrix or a batch; real when a is."""
        xi = np.asarray(xi, dtype=float)
        m, d = self.m, self.d
        outer = (xi[..., :, None] * xi[..., None, :]).reshape(xi.shape[:-1] + (m * m,))
        a = self.a.reshape(m * m, d * d)
        if not a.imag.any():
            return (outer @ a.real).reshape(xi.shape[:-1] + (d, d))
        # two real products: a real-by-complex matmul does not reach BLAS
        A = np.empty(outer.shape[:-1] + (d * d,), dtype=complex)
        A.real = outer @ a.real
        A.imag = outer @ a.imag
        return A.reshape(xi.shape[:-1] + (d, d))


def laplace_symbol(m, d=1):
    """a^{mu nu} = delta^{mu nu} I."""
    m, d = _sizes((m, d), "laplace_symbol (m, d)")
    return LeadingSymbol(m=m, d=d, a=np.einsum("mn,ab->mnab", np.eye(m), np.eye(d)))


def one_form_symbol(m, c):
    """A(xi) = |xi|^2 I + c xi (x) xi on the cotangent fiber, d = m."""
    (m,), c = _sizes((m,), "one_form_symbol m"), _number(c, "one_form_symbol c")
    eye = np.eye(m)
    pair = np.einsum("ma,nb->mnab", eye, eye)          # a[mu, nu] = e_mu (x) e_nu
    a = np.einsum("mn,ab->mnab", eye, eye) + 0.5 * c * (pair + pair.transpose(1, 0, 2, 3))
    return LeadingSymbol(m=m, d=m, a=a)


@dataclass(frozen=True)
class SymbolSpectrum:
    """Direction-independent slopes and multiplicities of a leading symbol."""

    symbol: LeadingSymbol
    s: int
    mu: tuple
    mult: tuple

    def eigenvectors(self, directions):
        """(N, d, d) eigenvectors of A at unit directions and the (N, d) slope
        index of each column; an eigenvalue off every slope is out of class."""
        w, V = np.linalg.eigh(self.symbol.symbol_matrix(directions))
        mu = np.array(self.mu)
        labels = np.argmin(np.abs(w[..., None] - mu), axis=-1)
        if np.max(np.abs(w - mu[labels]) / mu[labels], initial=0.0) > _CLUSTER_RTOL:
            raise StructureError(
                "eigenvalue off every recorded slope; symbol out of class")
        return V, labels

    def projectors_batch(self, directions):
        """(N, s, d, d) array of projectors at unit directions."""
        V, labels = self.eigenvectors(directions)
        mask = labels[:, None, :] == np.arange(self.s)[None, :, None]
        return np.einsum("nak,nik,nbk->niab", V, mask, V.conj())


def eigenstructure(sym, directions=None):
    """Detect the slope/multiplicity structure of a leading symbol.

    Samples A over unit directions, clusters eigenvalues per direction at relative
    gap 1e-8, and requires identical multiplicities and slope agreement to 1e-10
    across all directions.  Without directions it returns sym.spectrum: the
    default sample's structure, detected once per symbol and kept on it.
    """
    if directions is None:
        return sym.spectrum
    dirs = _unit_vectors(directions, sym.m, 20, "directions")

    w = np.linalg.eigvalsh(sym.symbol_matrix(dirs))
    if np.min(w) <= 1e-12:
        raise EllipticityError(
            f"leading symbol not positive definite: min eigenvalue {np.min(w):.3e}")

    # sorted eigenvalues split where the relative gap exceeds _CLUSTER_RTOL
    breaks = np.diff(w, axis=1) > _CLUSTER_RTOL * w[:, 1:]
    if np.any(breaks != breaks[0]):
        raise StructureError(
            "eigenvalue multiplicities vary with direction; symbol out of class")
    starts = np.concatenate(([0], np.flatnonzero(breaks[0]) + 1))
    mult = np.diff(np.append(starts, sym.d))
    slopes = np.add.reduceat(w, starts, axis=1) / mult
    mean = slopes.mean(axis=0)
    spread = np.max(np.abs(slopes - mean[None, :]) / mean[None, :])
    if spread > _SPREAD_RTOL:
        raise StructureError(
            f"eigenvalue slopes vary with direction (relative spread {spread:.2e}); "
            "symbol out of class")

    spec = SymbolSpectrum(symbol=sym, s=len(mean),
                          mu=tuple(float(x) for x in mean), mult=tuple(mult.tolist()))

    # projector algebra residuals at the sampled directions
    P = spec.projectors_batch(dirs)
    PP = np.einsum("niab,njbc->nijac", P, P)
    diag = np.arange(spec.s)
    upper = np.triu_indices(spec.s, 1)
    if np.max(np.abs(P.sum(axis=1) - np.eye(sym.d))) > 1e-10:
        raise StructureError("projectors do not resolve the identity")
    if np.max(np.abs(PP[:, diag, diag] - P)) > 1e-10:
        raise StructureError("projector not idempotent")
    if np.max(np.abs(np.trace(P, axis1=2, axis2=3).real - np.array(spec.mult))) > 1e-10:
        raise StructureError("projector rank differs from multiplicity")
    if np.max(np.abs(PP[:, upper[0], upper[1]]), initial=0.0) > 1e-10:
        raise StructureError("projectors not mutually orthogonal")
    return spec


def a0_coefficient(spec, m, vol):
    """Leading trace coefficient (4 pi)^{-m/2} vol sum_i d_i mu_i^{-m/2}."""
    (m,) = _sizes((m,), "a0_coefficient m")
    return ((4.0 * math.pi) ** (-m / 2.0) * _number(vol, "vol", math.ulp(0.0))
            * sum(di * mui ** (-m / 2.0) for di, mui in zip(spec.mult, spec.mu)))


def u0_trace(spec, m, t):
    """Pointwise leading trace sum_i d_i (4 pi t mu_i)^{-m/2}."""
    t, (m,) = _scalar_t(t), _sizes((m,), "u0_trace m")
    return sum(di * _gauss_power(4.0 * math.pi * t * mui, m, t)
               for di, mui in zip(spec.mult, spec.mu))


def h_endomorphism(sym, spec):
    """H = -(4 pi)^{-m/2} sum_i mu_i^{-m/2} <Pi_i>, Gaussian xi-average.

    Pi_i depends on xi only through its direction, so the Gaussian average
    pi^{-m/2} int e^{-|xi|^2} Pi_i(xi-hat) d xi is the average over the unit
    sphere S^{m-1}, taken by quadrature.sphere_average from order 4, doubling
    to at most 32, to 1e-10 absolute.  Pi_i = prod_{j != i} (A(xi-hat) - mu_j)
    / (mu_i - mu_j) is a polynomial of degree at most 2(s - 1) in xi-hat, so
    order 4 is already exact for up to four slopes.  The slope weights are
    folded into the eigenvector contraction, so no per-node projector array
    is built.
    """
    m = sym.m
    weight = -(4.0 * math.pi) ** (-m / 2.0) * np.array(spec.mu) ** (-m / 2.0)

    def integrand(omega):
        V, labels = spec.eigenvectors(omega)
        return np.einsum("nak,nk,nbk->nab", V, weight[labels], V.conj())

    H = sphere_average(m, 4, 32, integrand, 1e-10)
    return 0.5 * (H + H.conj().T)


def a2_potential_part(H, Q, vol):
    """Potential channel of the subleading coefficient: vol tr(H Q), for a
    square H and a Q of the same size in any layout."""
    H = _array(H, None, "H")
    return float(_number(vol, "vol", math.ulp(0.0)) * np.trace(H @ _array(Q, H.shape, "Q")).real)


def x_tensor(sym, riemann):
    """X^{mu nu}_{alpha beta} = -1/3 a^{lambda(mu} R^{nu)}_{(alpha|lambda|beta)}."""
    R = _array(riemann, (sym.m,) * 4, "riemann", float)
    sym_R = 0.5 * (R + R.transpose(0, 3, 2, 1))
    T = np.einsum("lmij,nalb->mnabij", sym.a, sym_R)
    return -(T + T.transpose(1, 0, 2, 3, 4, 5)) / 6.0


def y_tensor(sym, ricci, fiber_curvature=None):
    """Y^mu_alpha = 2/3 a^{mu lambda} R_{lambda alpha} - (1/2){R_{alpha nu}, a^{mu nu}}."""
    m, d = sym.m, sym.d
    ric = _array(ricci, (m, m), "ricci", float)
    Y = (2.0 / 3.0) * np.einsum("ulij,la->uaij", sym.a, ric)
    if fiber_curvature is not None:
        fc = _array(fiber_curvature, (m, m, d, d), "fiber_curvature")
        Y = Y - 0.5 * (np.einsum("avij,uvjk->uaik", fc, sym.a)
                       + np.einsum("uvij,avjk->uaik", sym.a, fc))
    return Y


def _kept_half_box(N, scale, mu_min, qmin, cut):
    """(k, low) on the half box: the origin, then every n in [-N, N]^m whose first
    nonzero entry is positive, in that order.  k = n scale at the points whose Weyl
    bound low = mu_min |k|^2 + qmin is at most cut, the origin always among them,
    and low at the others.  The points n_a = 0 for a < j, n_j > 0 are one block
    per j, and their |k|^2 an outer sum of per-axis squares, so k is built only
    for the kept points."""
    m = len(scale)
    r = np.arange(-N, N + 1)
    ks, lows = [np.zeros((1, m))], []
    for j in range(m):
        axes = [np.arange(1, N + 1)] + [r] * (m - j - 1)
        low = mu_min * reduce(np.add.outer, [(n * s) ** 2 for n, s in zip(axes, scale[j:])]) + qmin
        keep = low <= cut
        lows.append(low[~keep])
        k = np.zeros((np.count_nonzero(keep), m))
        for a, (n, i) in enumerate(zip(axes, np.unravel_index(np.flatnonzero(keep), low.shape))):
            k[:, j + a] = n[i] * scale[j + a]
        ks.append(k)
    return np.concatenate(ks), np.concatenate(lows)


def torus_oracle(sym, Q=None, t=1e-3, cutoff=8, periods=None):
    """Exact heat trace of a constant-coefficient operator on a flat torus, at a
    scalar t or a 1-D t-array: tr exp(-t(A(k) + Q)) summed over the dual lattice
    k = 2 pi n / periods, |n|_inf <= N.  cutoff is the first N; N doubles, through
    quadrature.converge, until the tail is below 1e-15 of the sum at every t.
    A(k) is quadratic, so k and -k have the same eigenvalues: eigvalsh runs on
    the origin and half the box, and the half is counted twice, on real
    symmetric matrices when a and Q are real (A(k) + Q is then built real).
    By Weyl's inequality every eigenvalue at k is at least
    low(k) = mu_min |k|^2 + qmin, and the sum is at least e^{-t qmin}, so a box
    point with low(k) past qmin + ln(2dM/eps)/tmin (M half-box points, eps 1e-3
    of the floor) adds under eps of the sum at each t of the call: such points
    are bounded, not summed, and their bound 2d e^{-t low(k)} is in the tail.
    _kept_half_box forms low from per-axis squares and builds k only for the
    points kept.  The cap and its refusal count the whole box.  mu_min is read
    from sym.spectrum, so the slopes are detected once per symbol, not once per
    call.
    """
    m, d = sym.m, sym.d
    periods = (1.0,) * m if periods is None else _periods(periods, m)
    (cutoff,) = _sizes((cutoff,), "lattice cutoff")
    Q = _array(np.zeros((d, d)) if Q is None else Q, (d, d), "Q")
    _require(Q, Q.conj().T, "Q must be Hermitian")

    mu_min = min(sym.spectrum.mu)
    qmin = float(np.min(np.linalg.eigvalsh(Q)))
    Q = Q if Q.imag.any() else Q.real
    scale = 2.0 * math.pi / np.array(periods)
    pruned = {}                  # N -> the bound on its box points left unsummed

    def partial(ts, N):
        half = ((2 * N + 1) ** m + 1) // 2
        cut = qmin + math.log(2 * d * half / (1e-3 * _LATTICE_FLOOR)) / ts.min()
        k, low = _kept_half_box(N, scale, mu_min, qmin, cut)
        pruned[N] = _exp_sum(ts, low, 2.0 * d)
        lam = np.concatenate([np.linalg.eigvalsh(sym.symbol_matrix(k[lo:lo + _EIG_CHUNK]) + Q)
                              for lo in range(0, len(k), _EIG_CHUNK)])
        mult = np.full(lam.shape, 2.0)
        mult[0] = 1.0
        return _exp_sum(ts, lam.ravel(), mult.ravel())

    # the lattice past N, plus the box points partial(ts, N) left out
    tail = lambda ts, N: d * _lattice_tail(ts * mu_min, N, periods, qmin / mu_min) + pruned[N]
    return _certified_trace(t, "lattice", lambda tmin: cutoff, _LATTICE_CAP, partial, tail,
                            lambda total: _LATTICE_FLOOR * total,
                            lambda N: d * (2 * min(N, _LATTICE_CAP) + 1) ** m)[0]
