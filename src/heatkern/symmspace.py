"""Algebraic heat traces for covariantly constant backgrounds.

Two regimes where the diagonal heat kernel closes algebraically:

* nilpotent: flat space with a constant field strength R-hat; the density is
  a pure determinant factor det^{1/2}(t R / sinh(t R)) times tr e^{-tQ};
* symmetric spaces: the diagonal is a Gaussian average over the holonomy
  algebra of a ratio of sinh determinants, evaluated either as an asymptotic
  series in t (exact Gaussian moments of the expanded integrand) or by direct
  quadrature inside the pole-free window.

The omega-integral is treated primarily as an asymptotic series: the 1/sinh
factor has poles on the real axis, so the literal integral only makes sense
while the Gaussian support stays clear of the first zero; theta_quadrature
enforces that window and exists as a cross-check of theta_series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, ValidationError
from .quadrature import gauss_hermite_average

_K_MAX = 6


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
        r = np.asarray(self.rhat, dtype=float).reshape(self.m, self.m)
        if np.max(np.abs(r + r.T)) > 1e-12:
            raise ValidationError("field strength must be antisymmetric")
        object.__setattr__(self, "rhat", r)
        q = np.zeros((1, 1)) if self.Q is None else np.asarray(self.Q, dtype=complex)
        if q.ndim == 0:
            q = q.reshape(1, 1)
        if np.max(np.abs(q - q.conj().T)) > 1e-12:
            raise ValidationError("endomorphism must be Hermitian")
        object.__setattr__(self, "Q", q)

    def rotation_frequencies(self):
        """Positive frequencies B_j, one per +iB_j eigenvalue of rhat."""
        ev = np.linalg.eigvals(self.rhat)
        return sorted(float(b) for b in ev.imag if b > 1e-12)


def nilpotent_trace_density(fs, t):
    """Diagonal density (4 pi t)^{-m/2} tr e^{-tQ} prod_j t B_j / sinh(t B_j).

    Each factor is written with x = e^{-t B_j} as 2 t B_j x / (1 - x^2), so
    large t B_j underflows toward 0 instead of overflowing sinh.
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    qtr = float(np.sum(np.exp(-t * np.linalg.eigvalsh(fs.Q))))
    det = 1.0
    for b in fs.rotation_frequencies():
        det *= 2.0 * t * b * math.exp(-t * b) / -math.expm1(-2.0 * t * b)
    return (4.0 * math.pi * t) ** (-fs.m / 2.0) * qtr * det


# ---------------------------------------------------------------------------
# symmetric spaces
# ---------------------------------------------------------------------------

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
    gamma_metric: np.ndarray = field(init=False)
    R: float = field(init=False)
    R_H: float = field(init=False)
    R_G: float = field(init=False)

    def __post_init__(self):
        E = np.asarray(self.E, dtype=float).reshape(self.p, self.m, self.m)
        beta = np.asarray(self.beta, dtype=float).reshape(self.p, self.p)
        if np.max(np.abs(E + E.transpose(0, 2, 1))) > 1e-12:
            raise ValidationError("holonomy generators must be antisymmetric")
        if np.max(np.abs(beta - beta.T)) > 1e-12 or np.any(np.linalg.eigvalsh(beta) <= 0):
            raise ValidationError("beta must be symmetric positive definite")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "beta", beta)

        D = -np.einsum("ik,kab->iab", beta, E)
        object.__setattr__(self, "D", D)

        # structure constants from [D_i, D_k] = F^j_{ik} D_j, least squares
        # over the span of the D_j with an exactness check
        basis = D.reshape(self.p, -1).T
        F = np.zeros((self.p, self.p, self.p))
        for i in range(self.p):
            for k in range(self.p):
                br = (D[i] @ D[k] - D[k] @ D[i]).reshape(-1)
                sol, *_ = np.linalg.lstsq(basis, br, rcond=None)
                if np.max(np.abs(basis @ sol - br)) > 1e-12:
                    raise ValidationError("holonomy brackets do not close on the D_i")
                F[:, i, k] = sol
        object.__setattr__(self, "F", F)

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
        if np.max(np.abs(jac)) > 1e-12:
            raise ValidationError("Jacobi identities fail for the derived algebra")

        gamma = np.zeros((n, n))
        gamma[:self.m, :self.m] = np.eye(self.m)
        gamma[self.m:, self.m:] = beta
        object.__setattr__(self, "gamma_metric", gamma)

        R = float(np.einsum("ik,iab,kab->", beta, E, E))
        beta_inv = np.linalg.inv(beta)
        R_H = -0.25 * float(np.einsum("ik,mil,lkm->", beta_inv, F, F))
        gamma_inv = np.linalg.inv(gamma)
        R_G = -0.25 * float(np.einsum("ab,acd,bdc->", gamma_inv, C, C))
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "R_H", R_H)
        object.__setattr__(self, "R_G", R_G)

    def riemann(self):
        return np.einsum("ik,iab,kcd->abcd", self.beta, self.E, self.E)


def build_symmetric_space(fixture, radius=1.0):
    """Holonomy data for the supported fixtures S2 and S3."""
    if radius <= 0:
        raise ValidationError("radius must be positive")
    kappa = 1.0 / radius ** 2
    if fixture == "S2":
        eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return SymmetricSpaceData(m=2, p=1, E=eps[None], beta=[[kappa]])
    if fixture == "S3":
        E = np.zeros((3, 3, 3))
        for i in range(3):
            for a in range(3):
                for b in range(3):
                    E[i, a, b] = _levi_civita(i, a, b)
        return SymmetricSpaceData(m=3, p=3, E=E, beta=kappa * np.eye(3))
    raise ValidationError(f"unsupported fixture {fixture!r}; use 'S2' or 'S3'")


def _levi_civita(i, j, k):
    return (i - j) * (j - k) * (k - i) / 2


@lru_cache(maxsize=None)
def _log_sinh_coeffs(kmax):
    """Exact b_j with log(sinh x / x) = sum_j b_j x^{2j}, as Fractions."""
    s = [Fraction(1, math.factorial(2 * n + 1)) for n in range(kmax + 1)]
    b = [Fraction(0)] * (kmax + 1)
    for n in range(1, kmax + 1):
        acc = s[n]
        for k in range(1, n):
            acc -= Fraction(k, n) * b[k] * s[n - k]
        b[n] = acc
    return tuple(b)


# scalar polynomials in omega: dict exponent-tuple -> float
def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _poly_axpy(acc, poly, scale):
    for e, c in poly.items():
        acc[e] = acc.get(e, 0.0) + scale * c


def _traced_powers(mats, p, jmax):
    """tr((omega . M)^{2j}) for j = 1..jmax as omega-polynomials."""
    if jmax == 0 or not np.any(mats):
        return {j: {} for j in range(1, jmax + 1)}
    n = mats.shape[1]
    lin = {}
    for i in range(p):
        e = tuple(1 if k == i else 0 for k in range(p))
        lin[e] = mats[i]
    power = {tuple([0] * p): np.eye(n)}
    traces = {}
    for step in range(1, 2 * jmax + 1):
        nxt = {}
        for ea, Ma in power.items():
            for eb, Mb in lin.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc = nxt.get(e)
                nxt[e] = Ma @ Mb if acc is None else acc + Ma @ Mb
        power = nxt
        if step % 2 == 0:
            traces[step // 2] = {e: float(np.trace(M)) for e, M in power.items()
                                 if abs(np.trace(M)) > 0}
    return traces


def _gauss_moment(expo, cov, memo):
    """E[prod omega_i^{expo_i}] for centered Gaussian with covariance cov."""
    if sum(expo) == 0:
        return 1.0
    if sum(expo) % 2 == 1:
        return 0.0
    cached = memo.get(expo)
    if cached is not None:
        return cached
    i = next(k for k, e in enumerate(expo) if e > 0)
    rest = list(expo)
    rest[i] -= 1
    total = 0.0
    for k in range(len(expo)):
        if rest[k] == 0:
            continue
        sub = list(rest)
        sub[k] -= 1
        total += cov[i, k] * rest[k] * _gauss_moment(tuple(sub), cov, memo)
    memo[expo] = total
    return total


def _fiber_matrix(space, Q):
    if Q is None:
        q = np.zeros((1, 1), dtype=complex)
    else:
        q = np.asarray(Q, dtype=complex)
        if q.ndim == 0:
            q = q.reshape(1, 1)
    if np.max(np.abs(q - q.conj().T)) > 1e-12:
        raise ValidationError("endomorphism must be Hermitian")
    shift = space.R / 8.0 + space.R_H / 6.0
    return q - shift * np.eye(q.shape[0])


def theta_series(space, Q=None, order=4):
    """Small-t coefficients c_0..c_order of the diagonal heat kernel.

    U^diag(t) = (4 pi t)^{-m/2} sum_k c_k t^k + O(t^{order+1-m/2}), fiber
    trace normalized so c_0 = 1.  The Gaussian omega-average is evaluated
    exactly: both determinant factors are expanded through t^order via
    log(sinh x / x), exponentiated as a graded series, and the resulting
    even polynomial moments are taken with covariance 2 beta^{-1}.
    """
    if not isinstance(order, int) or order < 0:
        raise ValidationError("order must be a nonnegative integer")
    if order > _K_MAX:
        raise ValidationError(f"order must be <= {_K_MAX}")
    K = order
    bcoef = _log_sinh_coeffs(K)
    trF = _traced_powers(space.F.transpose(1, 0, 2), space.p, K)
    trD = _traced_powers(space.D, space.p, K)

    # log integrand = sum_j t^j s_j(omega)
    s = {j: {} for j in range(1, K + 1)}
    for j in range(1, K + 1):
        w = float(bcoef[j]) / 2.0 / 4 ** j
        _poly_axpy(s[j], trF[j], w)
        _poly_axpy(s[j], trD[j], -w)

    # graded exponential: k G_k = sum_j j s_j G_{k-j}
    zero = tuple([0] * space.p)
    G = [{zero: 1.0}]
    for k in range(1, K + 1):
        acc = {}
        for j in range(1, k + 1):
            for e, c in _poly_mul(s[j], G[k - j]).items():
                acc[e] = acc.get(e, 0.0) + j * c
        G.append({e: c / k for e, c in acc.items()})

    cov = 2.0 * np.linalg.inv(space.beta)
    memo = {}
    gamma = [sum(c * _gauss_moment(e, cov, memo) for e, c in g.items()) for g in G]

    M = _fiber_matrix(space, Q)
    d = M.shape[0]
    Mpow = np.eye(d, dtype=complex)
    fib = []
    for a in range(K + 1):
        fib.append((-1.0) ** a / math.factorial(a) * float(np.trace(Mpow).real) / d)
        Mpow = Mpow @ M
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
    The average is quadrature.gauss_hermite_average over (64, 128, 256)
    nodes per axis for p = 1, (32, 64, 128) for p = 2 and (16, 32, 64)
    otherwise, to 1e-10 relative.
    """
    if t <= 0:
        raise ValidationError("t must be positive")
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

    schedule = {1: (64, 128, 256), 2: (32, 64, 128)}.get(space.p, (16, 32, 64))
    avg = float(gauss_hermite_average(space.p, schedule, integrand, 1e-10, relative=True))

    M = _fiber_matrix(space, Q)
    qtr = float(np.sum(np.exp(-t * np.linalg.eigvalsh(M)))) / M.shape[0]
    return (4.0 * math.pi * t) ** (-space.m / 2.0) * qtr * avg
