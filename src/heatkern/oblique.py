"""Oblique boundary conditions: ellipticity verdicts and the first
boundary trace coefficient.

The boundary operator mixes the normal derivative with tangential
derivatives through anti-Hermitian matrices Gamma^i and projects a
Dirichlet sector with Pi.  Everything here works in boundary normal
coordinates where the induced metric at the frozen point is the identity.

a1 is computed three ways: a sphere average of the xi-integrated
representation (general case), and two closed forms (commuting family,
Clifford family) used as cross-checks and exact limits.  The integral
genuinely diverges outside the strong-ellipticity cone, so that case is a
domain error, distinct from the conditioning error raised when the
integrand is merely near-singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, ValidationError
from .quadrature import sphere_average, unit_directions
from .spectra import _array, _require

_ASCENT_STEPS = 20
_DIRECTIONS = (50, 20260417)    # count and seed of strong_ellipticity's default sample


@dataclass(frozen=True)
class ObliqueBoundaryData:
    """Boundary condition data (Pi, Gamma^i, S) with the block constraints.

    Pi and S are d x d; Gamma holds the m - 1 matrices Gamma^i, d x d each,
    and is stored as a tuple of them.
    """

    m: int
    d: int
    Pi: np.ndarray
    Gamma: tuple
    S: np.ndarray = None

    def __post_init__(self):
        m, d = self.m, self.d
        if m < 2:
            raise ValidationError("need m >= 2 for a boundary problem")
        Pi = _array(self.Pi, (d, d), "Pi")
        _require(Pi, Pi.conj().T, "Pi must be Hermitian")
        _require(Pi @ Pi, Pi, "Pi must be idempotent")
        object.__setattr__(self, "Pi", Pi)

        G = _array(self.Gamma, (m - 1, d, d), "Gamma")
        _require(G, -G.conj().transpose(0, 2, 1), "Gamma^i must be anti-Hermitian")
        _require(Pi @ G, 0.0, "Gamma^i must annihilate the Pi sector")
        _require(G @ Pi, 0.0, "Gamma^i must annihilate the Pi sector")
        object.__setattr__(self, "Gamma", tuple(G))

        S = _array(np.zeros((d, d)) if self.S is None else self.S, (d, d), "S")
        _require(S, S.conj().T, "S must be Hermitian")
        _require(Pi @ S, 0.0, "S must annihilate the Pi sector")
        _require(S @ Pi, 0.0, "S must annihilate the Pi sector")
        object.__setattr__(self, "S", S)

    def gamma_dot(self, zeta):
        """Gamma . zeta, contracted over the last axis of zeta."""
        return np.einsum("...i,iab->...ab", np.asarray(zeta, dtype=float), np.stack(self.Gamma))

    def gamma_squared(self):
        """Gamma^2 = sum_i Gamma^i Gamma^i (identity boundary metric)."""
        g2 = np.zeros((self.d, self.d), dtype=complex)
        for g in self.Gamma:
            g2 += g @ g
        return g2


@dataclass(frozen=True)
class EllipticityVerdict:
    elliptic: bool
    min_eigenvalue: float
    violating_direction: np.ndarray = None


def strong_ellipticity(data, directions=None):
    """Minimum-eigenvalue test of |zeta| I - i Gamma . zeta over the sphere.

    That eigenvalue is 1 - lambda_max(i Gamma . omega).  Each sample and its
    negative climb lambda_max as one batch for _ASCENT_STEPS steps of omega <-
    a / |a|, a_i = v* (i Gamma^i) v with v the top eigenvector: lambda_max at
    a / |a| is at least |a| >= a . omega, the old value, so no step lowers it
    and a reported violation is always real.  The verdict reports the least
    eigenvalue reached and its direction.
    """
    p = data.m - 1
    if directions is None:
        directions = unit_directions(p, *_DIRECTIONS)
    dirs = np.asarray(directions, dtype=float).reshape(-1, p)
    if dirs.shape[0] < 50:
        raise ValidationError("need at least 50 boundary covectors")
    if np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) > 1e-12:
        raise ValidationError("covectors must be unit length")
    iG = 1j * np.stack(data.Gamma)
    omega = np.concatenate([dirs, -dirs])
    for _ in range(_ASCENT_STEPS):
        v = np.linalg.eigh(np.einsum("ni,iab->nab", omega, iG))[1][:, :, -1]
        a = np.einsum("na,iab,nb->ni", v.conj(), iG, v).real
        norm = np.linalg.norm(a, axis=1, keepdims=True)
        omega = np.divide(a, norm, out=omega, where=norm > 0)
    lam = np.linalg.eigvalsh(np.eye(data.d) - 1j * data.gamma_dot(omega))[:, 0]
    k = int(np.argmin(lam))
    return EllipticityVerdict(bool(lam[k] > 1e-12), float(lam[k]), omega[k])


def _prefactor(m):
    return (4.0 * math.pi) ** (-(m - 1) / 2.0)


def _assemble(data, J):
    d = data.d
    val = _prefactor(data.m) * 0.25 * (-np.eye(d) - 2.0 * data.Pi + 2.0 * J)
    return 0.5 * (val + val.conj().T)


def a1_quadrature(data):
    """First boundary coefficient from the Gaussian covector integral.

    (4 pi)^{-(m-1)/2} / 4 * { -I - 2 Pi
        + 2 pi^{-(m-1)/2} int dzeta exp[-|zeta|^2 I - (Gamma . zeta)^2] }.
    With zeta = r omega the radial integral is closed, and the covector
    integral is the average of (I + (Gamma . omega)^2)^{-p/2}, p = m - 1, over
    the unit sphere S^{p-1}, taken by quadrature.sphere_average from order 4,
    doubling to at most 32, to 1e-9 absolute.  I + (Gamma . omega)^2 is positive
    definite only inside the ellipticity cone, and the integral diverges
    outside it; a rule node where its least eigenvalue is <= 1e-12 is a
    DomainError.
    """
    p = data.m - 1
    verdict = strong_ellipticity(data)
    if not verdict.elliptic:
        raise DomainError(
            "integral divergent: strong ellipticity violated at direction "
            f"{verdict.violating_direction} (min eigenvalue {verdict.min_eigenvalue:.3e})")
    if not any(np.any(np.abs(g) > 0) for g in data.Gamma):
        return _assemble(data, np.eye(data.d))   # exact Dirichlet/Neumann limit

    # near-violation conditioning: |zeta|^2 I + (Gamma.zeta)^2 = I - (i Gamma.zeta)^2 at
    # |zeta| = 1, and the spectrum of i Gamma.zeta is odd in zeta, so its least
    # eigenvalue is 1 - (1 - lam)^2 with lam the verdict's least eigenvalue
    lam = verdict.min_eigenvalue
    cond_min = lam * (2.0 - lam)
    if cond_min < 1e-3:
        raise ConditioningError(
            f"quadrature ill-conditioned: min eig(|zeta|^2 I + (Gamma.zeta)^2) "
            f"= {cond_min:.3e} < 1e-3 on the unit sphere")

    def integrand(omega):
        gz = data.gamma_dot(omega)
        lam, V = np.linalg.eigh(np.eye(data.d) + gz @ gz)
        if np.min(lam) <= 1e-12:
            k = int(np.argmin(np.min(lam, axis=1)))
            raise DomainError(
                f"integral divergent: min eig(I + (Gamma.omega)^2) = {np.min(lam):.3e} "
                f"at direction {omega[k]}")
        return np.einsum("nab,nb,ncb->nac", V, lam ** (-p / 2.0), V.conj())

    return _assemble(data, sphere_average(p, 4, 32, integrand, 1e-9))


def a1_abelian(data):
    """Closed form for a commuting family: 2(I + Gamma^2)^{-1/2} branch."""
    for i, gi in enumerate(data.Gamma):
        for gj in data.Gamma[i + 1:]:
            _require(gi @ gj, gj @ gi, "Gamma family does not commute")
    g2 = data.gamma_squared()
    lam, V = np.linalg.eigh(np.eye(data.d) + g2)
    if np.min(lam) <= 1e-12:
        raise DomainError(
            f"I + Gamma^2 singular (min eigenvalue {np.min(lam):.3e}); "
            "a1 diverges at the ellipticity boundary")
    J = (V * lam ** -0.5) @ V.conj().T
    return _assemble(data, J)


def a1_clifford(data):
    """Closed form for a Clifford-like family.

    Requires Gamma^i Gamma^j + Gamma^j Gamma^i = 2 delta^{ij} Gamma^2/(m-1);
    then the covector integral collapses to a single radial one with value
    (I + Gamma^2/(m-1))^{-(m-1)/2}.
    """
    p = data.m - 1
    g2 = data.gamma_squared()
    for i, gi in enumerate(data.Gamma):
        for j, gj in enumerate(data.Gamma):
            anti = gi @ gj + gj @ gi
            target = 2.0 * g2 / p if i == j else np.zeros_like(g2)
            if np.max(np.abs(anti - target)) > 1e-10:
                raise ValidationError("Gamma family is not Clifford-like")
    lam, V = np.linalg.eigh(np.eye(data.d) + g2 / p)
    if np.min(lam) <= 1e-12:
        raise DomainError(
            f"I + Gamma^2/(m-1) singular (min eigenvalue {np.min(lam):.3e})")
    J = (V * lam ** (-p / 2.0)) @ V.conj().T
    return _assemble(data, J)


def smooth_boundary_constants(bc, m, dimV, K=0.0):
    """(b0, b1, b2) of the smooth-boundary trace expansion.

    b1 carries the sign of the boundary condition (- Dirichlet, + Neumann);
    b2 is the extrinsic-curvature term with trace K.
    """
    if bc not in ("dirichlet", "neumann"):
        raise ValidationError("bc must be 'dirichlet' or 'neumann'")
    sign = -1.0 if bc == "dirichlet" else 1.0
    b0 = 0.0
    b1 = sign * (4.0 * math.pi) ** (-(m - 1) / 2.0) * dimV / 4.0
    b2 = (4.0 * math.pi) ** (-m / 2.0) * dimV * K / 3.0
    return b0, b1, b2
