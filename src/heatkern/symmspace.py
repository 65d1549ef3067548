"""Algebraic heat traces for covariantly constant backgrounds.

Two regimes where the diagonal heat kernel closes algebraically:

* nilpotent: flat space with a constant field strength R-hat; the density is
  a pure determinant factor det^{1/2}(t R / sinh(t R)) times tr e^{-tQ};
* symmetric spaces: the diagonal is a Gaussian average over the holonomy
  algebra of a ratio of sinh determinants, evaluated either as an asymptotic
  series in t (exact Gaussian moments of the expanded integrand, on the dense
  monomial basis shared with hmds) or by direct quadrature inside the
  pole-free window, over a Cartan subalgebra of the holonomy algebra
  (quadrature.cartan_rule), since the integrand is Ad-invariant.

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

from .errors import DomainError, ValidationError
from .quadrature import average, cartan_rule
from .spectra import _array, _as_t, _length, _like_t, _require, _scalar_t, _sizes

_K_MAX = 6


def _endomorphism(Q):
    """Q as a finite Hermitian square matrix, a scalar being 1 x 1; None is the
    1 x 1 zero.  A flat array is not reshaped."""
    q = _array(0.0 if Q is None else Q, None, "endomorphism")
    _require(q, q.conj().T, "endomorphism must be Hermitian")
    return q


# ---------------------------------------------------------------------------
# nilpotent algebra: flat space, constant field strength
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantFieldStrength:
    """Constant curvature 2-form (fiber-scalar) plus a constant endomorphism."""

    m: int
    rhat: np.ndarray
    Q: np.ndarray = None

    def __post_init__(self):
        r = _array(self.rhat, (self.m, self.m), "field strength", float)
        _require(r, -r.T, "field strength must be antisymmetric")
        object.__setattr__(self, "rhat", r)
        object.__setattr__(self, "Q", _endomorphism(self.Q))

    def rotation_frequencies(self):
        """Positive frequencies B_j, one per +iB_j eigenvalue of rhat."""
        ev = np.linalg.eigvals(self.rhat)
        return sorted(float(b) for b in ev.imag if b > 1e-12)


def _x_over_sinh(x):
    """x / sinh x as 2x e^{-x} / (1 - e^{-2x}), so that large x underflows toward 0
    instead of overflowing sinh; at x = 0, where t B may underflow, its limit 1."""
    with np.errstate(invalid="ignore"):
        return np.where(x == 0, 1.0, 2.0 * x * np.exp(-x) / -np.expm1(-2.0 * x))


def nilpotent_trace_density(fs, t):
    """Diagonal density (4 pi t)^{-m/2} tr e^{-tQ} prod_j t B_j / sinh(t B_j),
    each factor from _x_over_sinh; spectra.landau_trace_density sums m = 2 by levels."""
    ts = _as_t(t)
    with np.errstate(over="ignore"):
        qtr = np.sum(np.exp(np.multiply.outer(-ts, np.linalg.eigvalsh(fs.Q))), axis=-1)
        det = np.prod([_x_over_sinh(ts * b) for b in fs.rotation_frequencies()], axis=0)
        return _like_t(ts, (4.0 * math.pi * ts) ** (-fs.m / 2.0) * qtr * det)


# ---------------------------------------------------------------------------
# symmetric spaces
# ---------------------------------------------------------------------------

def _holonomy_ad(beta, F):
    """L^T ad(omega(e_c)) L^{-T}, ad(omega)_{jk} = omega^i F^j_{ik}: ad in the
    coordinates v of theta_quadrature, omega(v) = 2 L^{-T} v, L = chol(beta)."""
    L = np.linalg.cholesky(beta)
    Linv_T = np.linalg.inv(L).T
    return 2.0 * np.tensordot(Linv_T.T, L.T @ F.transpose(1, 0, 2) @ Linv_T, 1)


@dataclass(frozen=True)
class SymmetricSpaceData:
    """Holonomy data of a symmetric space in an orthonormal frame.

    From the primary inputs (E^i, beta) everything else is derived: the
    curvature R_{abcd} = beta_{ik} E^i_{ab} E^k_{cd}, the translation
    generators D_i = -beta_{ik} E^k, the holonomy structure constants F
    solving [D_i, D_k] = F^j_{ik} D_j, the adjoint matrices C_A of the full
    isometry algebra, and the curvature scalars R, R_H, R_G.
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

    def __post_init__(self):
        E = _array(self.E, (self.p, self.m, self.m), "holonomy generators", float)
        beta = _array(self.beta, (self.p, self.p), "beta", float)
        _require(E, -E.transpose(0, 2, 1), "holonomy generators must be antisymmetric")
        _require(beta, beta.T, "beta must be symmetric positive definite")
        if np.any(np.linalg.eigvalsh(beta) <= 0):
            raise ValidationError("beta must be symmetric positive definite")
        # theta_series and theta_quadrature average over a Gaussian of covariance
        # 2 beta^{-1}; as a Python float it overflows to inf without a warning
        beta_inv = np.linalg.inv(beta)
        if not math.isfinite(2.0 * float(np.max(np.abs(beta_inv)))):
            raise ValidationError("beta too small: the covariance 2 beta^{-1} overflows")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "beta", beta)

        # |D| <= p max|beta| max|E| entrywise and D_i D_k sums m such squares;
        # these Python floats overflow to inf without a warning
        dmax = self.p * float(np.max(np.abs(beta))) * float(np.max(np.abs(E), initial=0.0))
        if not self.m * dmax * dmax <= 1e300:
            raise ValidationError(f"holonomy data too large: D_i up to {dmax:.3g} overflow")
        D = -np.einsum("ik,kab->iab", beta, E)
        object.__setattr__(self, "D", D)

        # structure constants from [D_i, D_k] = F^j_{ik} D_j, least squares
        # over the span of the D_j, exact to rounding at the scale of D_i D_k
        basis = D.reshape(self.p, -1).T
        DD = np.einsum("iab,kbc->ikac", D, D)
        br = (DD - DD.transpose(1, 0, 2, 3)).reshape(self.p * self.p, -1).T
        sol, *_ = np.linalg.lstsq(basis, br, rcond=None)
        if np.max(np.abs(basis @ sol - br)) > 1e-12 * np.max(np.abs(D)) ** 2:
            raise ValidationError("holonomy brackets do not close on the D_i")
        F = sol.reshape(self.p, self.p, self.p)
        object.__setattr__(self, "F", F)

        # beta is Ad-invariant, which theta_quadrature's Cartan reduction needs
        ad = _holonomy_ad(beta, F)
        if np.max(np.abs(ad + ad.transpose(0, 2, 1))) > 1e-12 * np.max(np.abs(ad)):
            raise ValidationError("holonomy structure constants must be beta-antisymmetric")

        # adjoint matrices of the isometry algebra, basis (P_a, Q_i)
        n = self.m + self.p
        C = np.zeros((n, n, n))
        for a in range(self.m):
            C[a, self.m:, :self.m] = E[:, a, :]
            C[a, :self.m, self.m:] = -D[:, :, a].T
        for i in range(self.p):
            C[self.m + i, :self.m, :self.m] = D[i]
            C[self.m + i, self.m:, self.m:] = F[:, i, :]
        object.__setattr__(self, "C", C)

        # [C_A, C_B] = C^X_{AB} C_X with C^X_{AB} = C[A, X, B]: Jacobi identity
        jac = np.einsum("aij,bjk->abik", C, C) - np.einsum("bij,ajk->abik", C, C) \
            - np.einsum("axb,xik->abik", C, C)
        if np.max(np.abs(jac)) > 1e-12 * float(np.max(np.abs(C))) ** 2:
            raise ValidationError("Jacobi identities fail for the derived algebra")

        gamma = np.zeros((n, n))
        gamma[:self.m, :self.m] = np.eye(self.m)
        gamma[self.m:, self.m:] = beta

        R = float(np.einsum("ik,iab,kab->", beta, E, E))
        R_H = -0.25 * float(np.einsum("ik,mil,lkm->", beta_inv, F, F))
        gamma_inv = np.linalg.inv(gamma)
        R_G = -0.25 * float(np.einsum("ab,acd,bdc->", gamma_inv, C, C))
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "R_H", R_H)
        object.__setattr__(self, "R_G", R_G)


def build_symmetric_space(fixture, radius=1.0):
    """Holonomy data for the supported fixtures S2 and S3."""
    radius = _length(radius, "sphere radius")
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
    """tr((x . M)^{2j}) for j = 0..jmax as scalar (N,) polynomials on B."""
    from .tensorcalc import _pad, _take
    P = np.eye(B.N, 1)[:, :, None] * np.eye(mats.shape[1])       # (x . M)^0
    traces = [np.trace(P, axis1=1, axis2=2)]
    for n in range(1, 2 * jmax + 1):
        pad = _pad(P)
        P = sum(_take(pad, B.down[i, :B.N]) @ mats[i] for i in range(len(mats)))
        if n % 2 == 0:
            traces.append(np.trace(P, axis1=1, axis2=2))
    return np.array(traces)


def _normal_moments(B, cov):
    """E[x^alpha] = alpha! [x^alpha] exp(x^T cov x / 2) for x ~ N(0, cov), on B.

    At degree 0 the quadratic lies off the basis, where B.up points at N, so
    it is built with one extra slot.
    """
    from .tensorcalc import _graded_exp, _times
    quad = np.zeros(B.N + 1)
    np.add.at(quad, B.up[:, B.up[:, 0]], cov / 2.0)
    G = _graded_exp([quad[:B.N]], B.deg // 2, np.eye(B.N, 1)[:, :, None], partial(_times, B))
    return B.fact * sum(G)[:, 0, 0]


def _fiber_matrix(space, Q):
    q = _endomorphism(Q)
    return q - (space.R / 8.0 + space.R_H / 6.0) * np.eye(q.shape[0])


def theta_series(space, Q=None, order=4):
    """Small-t coefficients c_0..c_order of the diagonal heat kernel.

    U^diag(t) = (4 pi t)^{-m/2} sum_k c_k t^k + O(t^{order+1-m/2}), fiber
    trace normalized so c_0 = 1.  The Gaussian omega-average is evaluated
    exactly, with polynomials in the p holonomy variables as dense arrays on
    tensorcalc's monomial basis of degree <= 2 order: both determinant factors
    are expanded through t^order via log(sinh x / x) and exponentiated as a
    graded series G_k; the moments of the Gaussian with covariance 2 beta^{-1}
    are the graded exponential of its quadratic form, and c_k pairs the two.
    """
    from .tensorcalc import _basis, _graded_exp, _times
    _sizes((order,), "theta_series order", least=0)
    if order > _K_MAX:
        raise ValidationError(f"order must be <= {_K_MAX}")
    K = int(order)
    B = _basis(space.p, 2 * K)
    # polynomials in x = omega / sigma, sigma a power of 2 near the Gaussian
    # width, so that rescaling is exact and nothing overflows at extreme radii
    cov = 2.0 * np.linalg.inv(space.beta)
    sigma = 2.0 ** (math.frexp(np.max(np.abs(cov)))[1] // 2)
    bcoef = _log_sinh_coeffs(K)
    tr = _traced_powers(B, sigma * space.F.transpose(1, 0, 2), K) \
        - _traced_powers(B, sigma * space.D, K)
    # log integrand = sum_j t^j s_j(x)
    G = _graded_exp([float(bcoef[j]) / 2.0 / 4 ** j * tr[j] for j in range(1, K + 1)], K,
                    np.eye(B.N, 1)[:, :, None], partial(_times, B))
    gamma = (np.array(G)[:, :, 0, 0] @ _normal_moments(B, cov / (sigma * sigma))).tolist()

    # fiber factor tr e^{-tM} / d = sum_a t^a tr (-M)^a / (a! d)
    lam = np.linalg.eigvalsh(_fiber_matrix(space, Q))
    fib = [float(np.mean((-lam) ** a)) / math.factorial(a) for a in range(K + 1)]
    return [sum(fib[a] * gamma[k - a] for a in range(k + 1)) for k in range(K + 1)]


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
    The integrand is Ad-invariant and F is beta-antisymmetric, so the average
    is quadrature.average on quadrature.cartan_rule from 16 nodes per axis of
    the rank-r Cartan subalgebra, doubling to at most 64, to 1e-10 relative.
    """
    t = _scalar_t(t)
    dnorm = math.sqrt(sum(np.linalg.norm(space.D[i], 2) ** 2 for i in range(space.p)))
    sigma = math.sqrt(2.0 * np.max(np.linalg.eigvalsh(np.linalg.inv(space.beta))))
    if math.sqrt(t) * dnorm * 6.0 * sigma >= math.pi:
        raise DomainError(
            "t beyond the safe window: sqrt(t)*||D||*6*sigma must stay below pi "
            "so the sinh-determinant pole lies outside the Gaussian support "
            f"(got {math.sqrt(t) * dnorm * 6.0 * sigma:.3f})")

    L = np.linalg.cholesky(space.beta)
    Linv_T = np.linalg.inv(L).T
    has_F = bool(np.any(space.F))
    Fmats = space.F.transpose(1, 0, 2)

    def integrand(v):
        omega = 2.0 * v @ Linv_T.T
        Xd = 0.5 * math.sqrt(t) * np.einsum("ni,iab->nab", omega, space.D)
        vals = 1.0 / np.sqrt(_sinhc_det(Xd))
        if has_F:
            Xf = 0.5 * math.sqrt(t) * np.einsum("ni,iab->nab", omega, Fmats)
            vals = vals * np.sqrt(_sinhc_det(Xf))
        return vals

    ad = _holonomy_ad(space.beta, space.F)
    avg = float(average(lambda n: cartan_rule(ad, n), 16, 64, integrand, 1e-10, True,
                        "Cartan", "{last} nodes per axis"))

    M = _fiber_matrix(space, Q)
    qtr = float(np.sum(np.exp(-t * np.linalg.eigvalsh(M)))) / M.shape[0]
    return (4.0 * math.pi * t) ** (-space.m / 2.0) * qtr * avg
