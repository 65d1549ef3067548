"""Algebraic heat traces for covariantly constant backgrounds.

Two regimes where the diagonal heat kernel closes algebraically:

* nilpotent: flat space with a constant field strength R-hat; the density is
  a pure determinant factor det^{1/2}(t R / sinh(t R)) times tr e^{-tQ};
* symmetric spaces: the diagonal is a Gaussian average over the holonomy
  algebra of a ratio of sinh determinants, evaluated either as an asymptotic
  series in t (exact Gaussian moments of the expanded integrand, on the dense
  monomial basis shared with hmds, each homogeneous grade held as its one
  degree block) or by direct quadrature inside the pole-free window, over a
  Cartan subalgebra of the holonomy algebra (quadrature.cartan_rule), since
  the integrand is Ad-invariant.

The omega-integral is treated primarily as an asymptotic series: the 1/sinh
factor has poles on the real axis, so the literal integral only makes sense
while the Gaussian support stays clear of the first zero; theta_quadrature
enforces that window and exists as a cross-check of theta_series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, NumericError, ResourceError, ValidationError
from .quadrature import average, cartan_rule
from .spectra import (MIN_LENGTH, _array, _as_t, _gauss_power, _like_t, _number, _read_only,
                      _require, _scalar_t, _sizes)


def _endomorphism(Q):
    """Q as a finite Hermitian square matrix, a scalar being 1 x 1; None is the
    1 x 1 zero.  A flat array is not reshaped."""
    q = _array(0.0 if Q is None else Q, None, "endomorphism")
    _require(q, q.conj().T, "endomorphism must be Hermitian")
    return q


# ---------------------------------------------------------------------------
# nilpotent algebra: flat space, constant field strength
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstantFieldStrength:
    """Constant curvature 2-form (fiber-scalar) plus a constant endomorphism."""

    m: int
    rhat: np.ndarray
    Q: np.ndarray = None

    def __post_init__(self):
        r = _array(self.rhat, (self.m, self.m), "field strength", float)
        _require(r, -r.T, "field strength must be antisymmetric")
        object.__setattr__(self, "rhat", _read_only(r))
        object.__setattr__(self, "Q", _read_only(_endomorphism(self.Q)))

    def rotation_frequencies(self):
        """Positive frequencies B_j, one per +iB_j eigenvalue of rhat; an imaginary
        part up to 1e-12 times the largest is a zero eigenvalue's rounding."""
        b = np.linalg.eigvals(self.rhat).imag
        return sorted(float(x) for x in b if x > 1e-12 * np.max(np.abs(b)))


def _x_over_sinh(x):
    """x / sinh x as 2x e^{-x} / (1 - e^{-2x}), so that large x underflows toward 0
    instead of overflowing sinh; at x = 0, where t B may underflow, its limit 1."""
    with np.errstate(invalid="ignore"):
        return np.where(x == 0, 1.0, 2.0 * x * np.exp(-x) / -np.expm1(-2.0 * x))


def nilpotent_trace_density(fs, t):
    """Diagonal density (4 pi t)^{-m/2} tr e^{-tQ} prod_j t B_j / sinh(t B_j),
    each factor from _x_over_sinh; spectra.landau_trace_density sums m = 2 by levels.
    A density past the float range is a NumericError naming its first t."""
    ts = _as_t(t)
    with np.errstate(over="ignore", invalid="ignore"):
        qtr = np.sum(np.exp(np.multiply.outer(-ts, np.linalg.eigvalsh(fs.Q))), axis=-1)
        det = np.prod([_x_over_sinh(ts * b) for b in fs.rotation_frequencies()], axis=0)
        return _like_t(ts, (4.0 * math.pi * ts) ** (-fs.m / 2.0) * qtr * det,
                       "heat-trace expansion")


# ---------------------------------------------------------------------------
# symmetric spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymmetricSpaceData:
    """Holonomy data of a symmetric space in an orthonormal frame.

    From the primary inputs (E^i, beta) everything else is derived: the
    curvature R_{abcd} = beta_{ik} E^i_{ab} E^k_{cd}, the translation
    generators D_i = -beta_{ik} E^k, the holonomy structure constants F
    solving [D_i, D_k] = F^j_{ik} D_j, the adjoint matrices C_A of the full
    isometry algebra, and the curvature scalars R, R_H, R_G.

    Each is derived once, on the unit problem beta 4^e (4^e puts the largest
    |beta| in [1, 4)), and stored times 4^-e by exact ldexp, the E blocks of C
    as they are; data whose D_i D_k or stored fields overflow is refused.  Kept
    for the theta routes: e, the unit problem's Cartan frame L^{-1} (L L^T =
    beta 4^e, omega = 2 v L^{-1}) and `ad`, the L^T ad(omega(e_c)) L^{-T}.
    """

    m: int
    p: int
    E: np.ndarray
    beta: np.ndarray
    D: np.ndarray = field(init=False)
    F: np.ndarray = field(init=False)
    C: np.ndarray = field(init=False)
    R: float = field(init=False)
    R_H: float = field(init=False)
    R_G: float = field(init=False)
    e: int = field(init=False)
    frame: np.ndarray = field(init=False)
    ad: np.ndarray = field(init=False)

    @np.errstate(over="ignore", invalid="ignore")    # what overflows is refused below
    def __post_init__(self):
        m, p = _sizes((self.m, self.p), "SymmetricSpaceData (m, p)")
        E = _array(self.E, (p, m, m), "holonomy generators", float)
        beta = _array(self.beta, (p, p), "beta", float)
        _require(E, -E.transpose(0, 2, 1), "holonomy generators must be antisymmetric")
        _require(beta, beta.T, "beta must be symmetric positive definite")
        if np.any(np.linalg.eigvalsh(beta) <= 0):
            raise ValidationError("beta must be symmetric positive definite")
        object.__setattr__(self, "E", _read_only(E))
        object.__setattr__(self, "beta", _read_only(beta))
        e = (2 - math.frexp(float(np.max(np.abs(beta))))[1]) // 2
        beta = np.ldexp(beta, 2 * e)
        too_large = "holonomy data too large: its products overflow"
        D = -np.einsum("ik,kab->iab", beta, E)
        DD = np.einsum("iab,kbc->ikac", D, D)
        if not np.isfinite(DD).all():                      # F is solved from them
            raise ValidationError(too_large)
        # structure constants from [D_i, D_k] = F^j_{ik} D_j, least squares
        # over the span of the D_j, exact to rounding at the scale of D_i D_k
        basis = D.reshape(p, -1).T
        br = (DD - DD.transpose(1, 0, 2, 3)).reshape(p * p, -1).T
        sol, *_ = np.linalg.lstsq(basis, br, rcond=None)
        if np.max(np.abs(basis @ sol - br)) > 1e-12 * np.max(np.abs(D)) ** 2:
            raise ValidationError("holonomy brackets do not close on the D_i")
        F = sol.reshape(p, p, p)

        # beta is Ad-invariant, which theta_quadrature's Cartan reduction needs
        L = np.linalg.cholesky(beta)
        frame = np.linalg.inv(L)
        ad = 2.0 * np.tensordot(frame, L.T @ F.transpose(1, 0, 2) @ frame.T, 1)
        if np.max(np.abs(ad + ad.transpose(0, 2, 1))) > 1e-12 * np.max(np.abs(ad)):
            raise ValidationError("holonomy structure constants must be beta-antisymmetric")

        # adjoint matrices of the isometry algebra, basis (P_a, Q_i)
        n = m + p
        C = np.zeros((n, n, n))
        C[:m, m:, :m], C[:m, :m, m:] = E.transpose(1, 0, 2), -D.transpose(2, 1, 0)
        C[m:, :m, :m], C[m:, m:, m:] = D, F.transpose(1, 0, 2)

        # [C_A, C_B] = C^X_{AB} C_X with C^X_{AB} = C[A, X, B]: Jacobi identity
        jac = np.einsum("aij,bjk->abik", C, C) - np.einsum("bij,ajk->abik", C, C) \
            - np.einsum("axb,xik->abik", C, C)
        if np.max(np.abs(jac)) > 1e-12 * np.max(np.abs(C)) ** 2:
            raise ValidationError("Jacobi identities fail for the derived algebra")

        gamma = np.eye(n)
        gamma[m:, m:] = beta
        R = np.einsum("ik,iab,kab->", beta, E, E)
        R_H = -0.25 * np.einsum("ik,mil,lkm->", np.linalg.inv(beta), F, F)
        R_G = -0.25 * np.einsum("ab,acd,bdc->", np.linalg.inv(gamma), C, C)
        shift = np.full(C.shape, -2 * e)
        shift[:m, m:, :m] = 0                              # the E blocks of C
        arrays = np.ldexp(D, -2 * e), np.ldexp(F, -2 * e), np.ldexp(C, shift)
        scalars = np.ldexp([R, R_H, R_G], -2 * e)
        if not (np.isfinite(scalars).all() and all(np.isfinite(a).all() for a in arrays)):
            raise ValidationError(too_large)
        for name, value in zip(("D", "F", "C", "frame", "ad"), arrays + (frame, ad)):
            object.__setattr__(self, name, _read_only(value))
        for name, value in zip(("R", "R_H", "R_G", "e"), scalars.tolist() + [e]):
            object.__setattr__(self, name, value)


def build_symmetric_space(fixture, radius=1.0):
    """Holonomy data for the supported fixtures S2 and S3."""
    radius = _number(radius, "sphere radius", MIN_LENGTH)
    kappa = 1.0 / radius / radius     # 0 at a large enough radius: beta rejects it
    if fixture == "S2":
        eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return SymmetricSpaceData(m=2, p=1, E=eps[None], beta=[[kappa]])
    if fixture == "S3":
        i, a, b = np.indices((3, 3, 3))
        E = (i - a) * (a - b) * (b - i) / 2.0        # Levi-Civita epsilon_{iab}
        return SymmetricSpaceData(m=3, p=3, E=E, beta=np.diag([kappa] * 3))
    raise ValidationError(f"unsupported fixture {fixture!r}; use 'S2' or 'S3'")


# tensorcalc and fractions are imported where used: a Landau CLI run reads neither
@lru_cache(maxsize=None)
def _log_sinh_coeffs(kmax):
    """Exact b_j with log(sinh x / x) = sum_j b_j x^{2j}, as Fractions (b_0 = 0)."""
    from fractions import Fraction
    from .tensorcalc import _series_log
    return tuple(_series_log([Fraction(1, math.factorial(2 * n + 1))
                              for n in range(kmax + 1)], kmax + 1))


def _traced_powers(B, mats, jmax):
    """tr((x . M)^{2j}) for j = 0..jmax, each as its block of degree 2j on B.

    (x . M)^n is homogeneous of degree n, so only its degree block, rows
    B.offsets[n] to B.offsets[n + 1], is built, from the block of degree n - 1:
    one gather through `B.down` for every axis at once, one matmul by the stack
    of M_i and one sum over the axes from 0, in order, as Python's `sum`."""
    from .tensorcalc import _pad, _take
    off = B.offsets
    P = np.eye(mats.shape[1])[None]                               # (x . M)^0
    traces = [np.trace(P, axis1=1, axis2=2)]
    for n in range(1, 2 * jmax + 1):
        below = _take(_pad(P), B.down[:, off[n]:off[n + 1]] - off[n - 1])
        P = np.add.reduce(below @ mats[:, None], axis=0, initial=0)
        if n % 2 == 0:
            traces.append(np.trace(P, axis1=1, axis2=2))
    return traces


def _block_times(B, C, P, i, j):
    """C P for scalar polynomials held as degree blocks of B: C the block of
    degree 2i, P that of degree 2j, the product that of degree 2(i + j).

    One gather through the `B.quot` rows of C's support reads P at
    y^alpha / y^{alpha_a} for each support monomial a and each alpha of the
    product's block; a position off the basis reads P's zero row.  The terms
    are summed from 0 in basis order, as `tensorcalc._times` sums them on the
    full basis, so each coefficient has the same bits."""
    off = B.offsets
    (a,) = C.nonzero()
    at = B.quot[off[2 * i] + a, off[2 * (i + j)]:off[2 * (i + j) + 1]] - off[2 * j]
    shifted = np.concatenate((P, np.zeros(1))).take(at, mode="clip")
    return np.add.reduce(C[a, None] * shifted, axis=0, initial=0)


def _normal_moments(B, cov):
    """E[x^alpha] = alpha! [x^alpha] exp(x^T cov x / 2) for x ~ N(0, cov), as the
    blocks of degree 2k, k = 0..B.deg // 2, of B; every odd moment is 0.

    The quadratic is the block of degree 2, where y_mu y_nu sits at
    up[nu, up[mu, 0]]; G_k is its graded exponential on block 2k."""
    from .tensorcalc import _graded_exp
    off, K = B.offsets, B.deg // 2
    quad = np.zeros(B.m * (B.m + 1) // 2)
    if K:
        np.add.at(quad, B.up[:, B.up[:, 0]] - off[2], cov / 2.0)
    G = _graded_exp([quad], K, np.ones(1), partial(_block_times, B))
    return [B.fact[off[2 * k]:off[2 * k + 1]] * g for k, g in enumerate(G)]


def _fiber_matrix(space, Q):
    q = _endomorphism(Q)
    return q - (space.R / 8.0 + space.R_H / 6.0) * np.eye(q.shape[0])


@np.errstate(over="ignore", invalid="ignore")     # a c_k that overflows is refused
def theta_series(space, Q=None, order=4):
    """Small-t coefficients c_0..c_order of the diagonal heat kernel.

    U^diag(t) = (4 pi t)^{-m/2} sum_k c_k t^k + O(t^{order+1-m/2}), fiber
    trace normalized so c_0 = 1.  The Gaussian omega-average is evaluated
    exactly, with polynomials in the p holonomy variables on tensorcalc's
    monomial basis of degree <= 2 order: both determinant factors are expanded
    through t^order via log(sinh x / x) and exponentiated as a graded series
    G_k; the moments of the Gaussian with covariance 2 beta^{-1} are the graded
    exponential of its quadratic form, and c_k pairs the two.  Every grade is
    homogeneous (s_j, G_k and the k-th moment grade of degree 2j, 2k and 2k),
    so each is held as its degree block and multiplied by `_block_times`; the
    sums keep the order of the full-basis products, bit for bit.
    The average runs on the space's unit problem (beta, D, F) 4^e and the fiber
    factor in units of its largest eigenvalue, both powers of 2, so the rescaling
    is exact.  An order whose basis passes BASIS_BUDGET or has an alpha! past
    the float range is a ResourceError, and a c_k with a term past the float
    range a NumericError.
    """
    from .tensorcalc import _basis, _graded_exp
    (K,) = _sizes((order,), "theta_series order", least=0)
    B = _basis(space.p, 2 * K)
    if not np.isfinite(B.fact).all():
        raise ResourceError(f"theta_series order {K} needs alpha! past the float range")
    bcoef, e = _log_sinh_coeffs(K), space.e
    trF = _traced_powers(B, np.ldexp(space.F.transpose(1, 0, 2), 2 * e), K)
    trD = _traced_powers(B, np.ldexp(space.D, 2 * e), K)
    # log integrand = sum_j t^j s_j(x), x = omega 2^-e, s_j the block of degree 2j
    G = _graded_exp([float(bcoef[j]) / 2.0 / 4 ** j * (trF[j] - trD[j]) for j in range(1, K + 1)],
                    K, np.ones(1), partial(_block_times, B))
    moments = _normal_moments(B, 2.0 * np.linalg.inv(np.ldexp(space.beta, 2 * e)))
    # G_k pairs with the moments on block 2k only, all pairs in one product over
    # the full basis: its BLAS sum groups the terms as the unblocked series did
    rows, mom = np.zeros((K + 1, B.N)), np.zeros(B.N)
    for k, (g, m_k) in enumerate(zip(G, moments)):
        block = slice(B.offsets[2 * k], B.offsets[2 * k + 1])
        rows[k, block], mom[block] = g, m_k
    gamma = (rows @ mom).tolist()

    # fiber factor tr e^{-tM} / d = sum_a t^a tr (-M)^a / (a! d), in units r = 2^q of
    # its largest eigenvalue; the term fib_a gamma_{k-a} of c_k is r^a s^(k-a) times
    # its unit value, applied by ldexp, so c_k overflows only where a term does
    lam = np.linalg.eigvalsh(_fiber_matrix(space, Q))
    q = math.frexp(np.max(np.abs(lam)))[1]
    fib = [float(np.mean(np.ldexp(-lam, -q) ** a)) / math.factorial(a) for a in range(K + 1)]
    c = [float(sum(np.ldexp(fib[a] * gamma[k - a], q * a - 2 * e * (k - a))
                   for a in range(k + 1))) for k in range(K + 1)]
    bad = next((k for k in range(K + 1) if not math.isfinite(c[k])), None)
    if bad is not None:
        raise NumericError(f"theta_series overflows at c_{bad}")
    return c


def _sinhc_det(X):
    """det(sinh X / X) for a batch of matrices, via eigenvalues."""
    lam = np.linalg.eigvals(X)
    small = np.abs(lam) < 1e-6
    ratio = np.where(small, 1.0 + lam * lam / 6.0,
                     np.sinh(np.where(small, 1.0, lam)) / np.where(small, 1.0, lam))
    return np.prod(ratio, axis=-1).real


def theta_quadrature(space, Q=None, t=0.01):
    """Direct Gaussian quadrature of the holonomy-average representation.

    Valid only while the Gaussian support stays clear of the first zero of
    the sinh determinant in the denominator; the guard requires
    sqrt(t) * ||D|| * 6 sigma < pi with sigma^2 = 2 lambda_max(beta^{-1}).
    The average runs on the space's unit problem, at t 4^-e in its Cartan frame:
    the integrand is Ad-invariant and F is beta-antisymmetric, so it is
    quadrature.average on quadrature.cartan_rule(space.ad) from 16 nodes per
    axis of the rank-r Cartan subalgebra, doubling to at most 64, to 1e-10
    relative.  A diagonal past the float range is a NumericError naming t.
    """
    t = _scalar_t(t)
    root = math.sqrt(t) * 2.0 ** -space.e                  # sqrt(t 4^-e), exactly
    D = np.ldexp(space.D, 2 * space.e)
    Fmats = np.ldexp(space.F.transpose(1, 0, 2), 2 * space.e)
    dnorm = math.sqrt(sum(np.linalg.norm(D[i], 2) ** 2 for i in range(space.p)))
    sigma = math.sqrt(2.0) * np.linalg.norm(space.frame, 2)
    if root * dnorm * 6.0 * sigma >= math.pi:
        raise DomainError(
            "t beyond the safe window: sqrt(t)*||D||*6*sigma must stay below pi "
            "so the sinh-determinant pole lies outside the Gaussian support "
            f"(got {root * dnorm * 6.0 * sigma:.3f})")

    def integrand(v):
        omega = 2.0 * v @ space.frame
        Xd = 0.5 * root * np.einsum("ni,iab->nab", omega, D)
        Xf = 0.5 * root * np.einsum("ni,iab->nab", omega, Fmats)
        return 1.0 / np.sqrt(_sinhc_det(Xd)) * np.sqrt(_sinhc_det(Xf))

    avg = float(average(lambda n: cartan_rule(space.ad, n), 16, 64, integrand, 1e-10, True,
                        "Cartan", "{last} nodes per axis"))

    M = _fiber_matrix(space, Q)
    with np.errstate(over="ignore"):
        qtr = float(np.sum(np.exp(-t * np.linalg.eigvalsh(M)))) / M.shape[0]
    return _like_t(np.asarray(t), _gauss_power(4.0 * math.pi * t, space.m, t) * qtr * avg,
                   "theta_quadrature")
