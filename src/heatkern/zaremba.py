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
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, ValidationError
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


@lru_cache(maxsize=None)
def _corner_integral_check():
    """Numerically confirm the corner integral against its closed value.

    The corner remainder is the diagonal minus the half-plane value the
    point would see from its own face alone (Dirichlet depletion above the
    axis, Neumann doubling below).  The sign(theta)-odd part cancels
    between the two half-ranges; the even part reduces to
    -pi * int_0^infty rho erfc(rho) drho = -pi/4 times the bulk prefactor.
    """
    from scipy.integrate import dblquad

    t = 1.0

    def integrand(rho, theta):
        sgn = -1.0 if theta < 0 else 1.0
        ct = math.cos(theta)
        face = (4.0 * math.pi * t) ** -1.0 * (
            1.0 - sgn * math.exp(-rho * rho * ct * ct / t))
        return rho * (wedge_diagonal(t, rho, theta) - face)

    lower, el = dblquad(integrand, -_HALF_PI, 0.0, 0.0, 12.0,
                        epsabs=1e-12, epsrel=1e-12)
    upper, eu = dblquad(integrand, 0.0, _HALF_PI, 0.0, 12.0,
                        epsabs=1e-12, epsrel=1e-12)
    got = lower + upper
    expected = -(4.0 * math.pi * t) ** -1.0 * math.pi / 4.0
    rel = abs(got - expected) / abs(expected)
    return got, expected, rel, el + eu


def corner_coefficient(m, dimV=1):
    """Corner contribution b2^(2) = -(4 pi)^{-(m-2)/2} dimV / 16.

    The closed form is returned only after the wedge-diagonal integral has
    been verified numerically against it (relative 1e-6); a mismatch is a
    consistency error, never a silent value.
    """
    got, expected, rel, _ = _corner_integral_check()
    if rel > 1e-6:
        raise ConsistencyError(
            f"corner integral {got:.12e} differs from closed value "
            f"{expected:.12e} (rel {rel:.2e})")
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


def heat_residual(t, p, src, h_space=1e-2, h_time=None):
    """(d/dt + F_0) applied to the kernel by 5-point stencils.

    F_0 = -d^2/drho^2 - (1/rho) d/drho - (1/rho^2) d^2/dtheta^2 in the
    wedge polar coordinates; the kernel solves the heat equation away from
    the boundary, so this residual is a pure discretization check.
    """
    h_time = h_time or 1e-2 * t

    def at(tt, rho, theta):
        return _kernel_pair(tt, 2, 0.0, rho, theta, src.rho, src.theta)

    def d1(f, x, h):
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)

    def d2(f, x, h):
        return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
                + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)

    rho, theta = p.rho, p.theta
    dt_ = d1(lambda tt: at(tt, rho, theta), t, h_time)
    drr = d2(lambda r: at(t, r, theta), rho, h_space)
    dr = d1(lambda r: at(t, r, theta), rho, h_space)
    dqq = d2(lambda q: at(t, rho, q), theta, h_space)
    return dt_ - drr - dr / rho - dqq / (rho * rho)


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
