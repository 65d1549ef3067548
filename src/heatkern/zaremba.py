"""Zaremba problem on a flat wedge: Dirichlet on one face, Neumann on the
other, and the corner where they meet.

Coordinates: rho >= 0 radial, theta in [-pi/2, pi/2] angular, with the
Dirichlet face at theta = +pi/2 and the Neumann face at theta = -pi/2;
m - 2 flat tangential directions ride along.  The kernel is a two-term
closed form (direct + reflected, each carrying an erf factor); the
independent oracle expands in half-integer angular modes, exactly the
most-regular branch at the corner, summed through quadrature.converge.

S = 0 throughout.  The model's trace expansion carries no logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hmds import HeatTraceExpansion
from .oblique import smooth_boundary_constants
from .spectra import _certified_trace, _scalar_t

_HALF_PI = math.pi / 2.0
_MODE_CAP = 100_000              # angular modes in one Bessel partial sum


@dataclass(frozen=True)
class WedgePoint:
    rho: float
    theta: float
    xhat: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.rho) or self.rho < 0:
            raise ValidationError("rho must be finite and nonnegative")
        if not -_HALF_PI <= self.theta <= _HALF_PI:
            raise ValidationError("theta must lie in [-pi/2, pi/2]")
        object.__setattr__(self, "xhat", tuple(float(x) for x in self.xhat))

    @property
    def r(self):
        return self.rho * math.cos(self.theta)

    @property
    def y(self):
        return self.rho * math.sin(self.theta)


def _gauss_term(t, m, xdist2, rho, rhop, dtheta):
    expo = (xdist2 + rho * rho + rhop * rhop
            - 2.0 * rho * rhop * math.cos(dtheta)) / (4.0 * t)
    amp = math.sqrt(rho * rhop / t) * math.cos(0.5 * dtheta)
    return (4.0 * math.pi * t) ** (-m / 2.0) * math.exp(-expo) * math.erf(amp)


def _kernel_pair(t, m, xdist2, rho, theta, rhop, thetap):
    """Direct plus reflected term at (rho, theta) from the source (rhop, thetap).

    Raw floats, not WedgePoints: the Neumann stencil steps past theta = -pi/2.
    """
    return (_gauss_term(t, m, xdist2, rho, rhop, theta - thetap)
            + _gauss_term(t, m, xdist2, rho, rhop, -theta - thetap - math.pi))


def wedge_kernel(t, p, pp):
    """Closed-form Zaremba kernel: direct term plus one reflected term."""
    t = _scalar_t(t)
    if len(p.xhat) != len(pp.xhat):
        raise ValidationError("tangential offsets must have equal dimension")
    m = 2 + len(p.xhat)
    xdist2 = sum((a - b) ** 2 for a, b in zip(p.xhat, pp.xhat))
    return _kernel_pair(t, m, xdist2, p.rho, p.theta, pp.rho, pp.theta)


def wedge_diagonal(t, rho, theta, m=2):
    """Kernel diagonal; sign(theta) at theta = 0 is the theta -> 0+ limit."""
    t = _scalar_t(t)
    if rho < 0:
        raise ValidationError("rho must be nonnegative")
    sgn = -1.0 if theta < 0 else 1.0
    ct = math.cos(theta)
    gauss = math.exp(-rho * rho * ct * ct / t)
    val = (1.0 - sgn * gauss - math.erfc(rho / math.sqrt(t))
           + sgn * gauss * math.erfc(rho * abs(math.sin(theta)) / math.sqrt(t)))
    return (4.0 * math.pi * t) ** (-m / 2.0) * val


def corner_coefficient(m, dimV=1):
    """Corner contribution b2^(2) = -(4 pi)^{-(m-2)/2} dimV / 16.

    The corner remainder of the wedge diagonal integrates to -pi/4 times the
    bulk prefactor, from int_0^infty rho erfc(rho) drho = 1/4 (Avramidi, Math.
    Phys. Anal. Geom. 7 (2004) 9); the tests confirm it by quadrature.
    """
    return -(4.0 * math.pi) ** (-(m - 2) / 2.0) * dimV / 16.0


@dataclass(frozen=True)
class BesselResult:
    value: float
    tail_bound: float
    terms: int
    warning: str = None          # always None: a tail above tol raises instead


def bessel_oracle(t, p, pp, terms=40, tol=1e-10):
    """Half-integer Bessel mode sum for the m = 2 wedge kernel.

    Psi = (1/(pi t)) e^{-(rho^2+rho'^2)/4t}
          sum_n sin(nu_n (pi/2 - theta)) sin(nu_n (pi/2 - theta')) I_{nu_n}(z),
    nu_n = n + 1/2, z = rho rho' / 2t.  Evaluated through the scaled Bessel
    function ive to keep the Gaussian prefactor finite.  Past n modes the tail is
    geometric in q = I_{n+1/2}/I_{n-1/2}, as I_{nu+1}/I_nu decreases in nu (Amos,
    Math. Comp. 28 (1974) 239); n starts at terms and doubles, through
    quadrature.converge, until that bound, returned as tail_bound, is at most tol.
    """
    from scipy.special import ive

    t = _scalar_t(t)
    if not tol > 0:
        raise ValidationError(f"tolerance {tol!r} must be positive")
    if p.xhat or pp.xhat:
        raise ValidationError("mode oracle is the m = 2 slice")
    z = p.rho * pp.rho / (2.0 * t)
    # e^{-(rho^2+rho'^2)/4t} I_nu(z) = e^{-(rho-rho')^2/4t} * [e^{-z} I_nu(z)]
    pref = math.exp(-(p.rho - pp.rho) ** 2 / (4.0 * t)) / (math.pi * t)
    a, b = _HALF_PI - p.theta, _HALF_PI - pp.theta

    def partial(ts, n):
        nu = np.arange(n) + 0.5
        angular = np.array([math.sin(v * a) * math.sin(v * b) for v in nu.tolist()])
        return pref * float(np.cumsum(angular * ive(nu, z))[-1])   # in mode order

    def tail(ts, n):
        last = float(ive(n - 0.5, z))
        q = float(ive(n + 0.5, z)) / last if last > 0 else 0.0
        return pref * last * (q / (1.0 - q)) if 0.0 < q < 1.0 else 0.0

    value, n, bound = _certified_trace(t, "Bessel mode", lambda tmin: terms, _MODE_CAP,
                                       partial, tail, lambda total: tol)
    return BesselResult(value=value, tail_bound=bound, terms=n)


def default_boundary_samples():
    rng = np.random.default_rng(20260418)
    samples = []
    for _ in range(12):
        rho_b = float(rng.uniform(0.3, 2.5))
        src = WedgePoint(float(rng.uniform(0.3, 2.5)),
                         float(rng.uniform(-_HALF_PI * 0.95, _HALF_PI * 0.95)))
        samples.append((rho_b, src))
    return samples


def bc_residuals(t, samples=None):
    """Max boundary-condition residuals (dirichlet, neumann) of the kernel.

    Dirichlet: |Psi| on the theta = +pi/2 face.  Neumann: central
    difference of d/dtheta across theta = -pi/2 with step 1e-5 (the closed
    form continues analytically past the face).
    """
    if samples is None:
        samples = default_boundary_samples()
    h = 1e-5
    residuals = [(0.0, 0.0)]
    for rho_b, src in samples:
        if rho_b <= 0 or src.rho <= 0:
            raise ValidationError("samples must be interior in rho")
        m = 2 + len(src.xhat)
        xd2 = sum(x * x for x in src.xhat)
        at = lambda theta: _kernel_pair(t, m, xd2, rho_b, theta, src.rho, src.theta)
        neumann = abs(at(-_HALF_PI + h) - at(-_HALF_PI - h)) / (2.0 * h)
        residuals.append((abs(at(_HALF_PI)), neumann))
    return tuple(map(max, zip(*residuals)))


def wedge_trace_expansion(m, dimV, interior_volume, dirichlet_area,
                          neumann_area, corner_volume=1.0):
    """Heat trace expansion through k = 2 for a flat Zaremba wedge domain.

    Interior Weyl term, the two smooth-face terms (flat faces, K = 0), and
    the corner term; this model produces no logarithmic terms.
    """
    b1_d = smooth_boundary_constants("dirichlet", m, dimV)[1]
    b1_n = smooth_boundary_constants("neumann", m, dimV)[1]
    terms = (
        (-m / 2.0, (4.0 * math.pi) ** (-m / 2.0) * dimV * interior_volume),
        ((1.0 - m) / 2.0, b1_d * dirichlet_area + b1_n * neumann_area),
        ((2.0 - m) / 2.0, corner_coefficient(m, dimV) * corner_volume),
    )
    return HeatTraceExpansion(m=m, terms=terms)
