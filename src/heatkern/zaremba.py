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

from .errors import NumericError, ValidationError
from .hmds import HeatTraceExpansion
from .oblique import smooth_boundary_constants
from .spectra import _certified_trace, _gauss_power, _number, _scalar_t, _sizes

_HALF_PI = math.pi / 2.0
_MODE_CAP = 100_000              # Bessel orders summed, or run over, in one oracle call
_HALF_BESSEL_REL = 3e-12         # _scaled_half_bessel's relative error, pinned by the tests
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class WedgePoint:
    rho: float
    theta: float
    xhat: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rho", _number(self.rho, "rho", 0.0))
        object.__setattr__(self, "theta", _number(self.theta, "theta", -_HALF_PI, _HALF_PI))
        object.__setattr__(self, "xhat", tuple(_number(x, "xhat") for x in self.xhat))

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
    return _gauss_power(4.0 * math.pi * t, m, t) * math.exp(-expo) * math.erf(amp)


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
    t, (m,) = _scalar_t(t), _sizes((m,), "wedge_diagonal m")
    p = WedgePoint(rho, theta)              # the one check of a wedge point
    sgn = -1.0 if p.theta < 0 else 1.0
    ct = math.cos(p.theta)
    gauss = math.exp(-p.rho * p.rho * ct * ct / t)
    val = (1.0 - sgn * gauss - math.erfc(p.rho / math.sqrt(t))
           + sgn * gauss * math.erfc(p.rho * abs(math.sin(p.theta)) / math.sqrt(t)))
    return _gauss_power(4.0 * math.pi * t, m, t) * val


def corner_coefficient(m, dimV=1):
    """Corner contribution b2^(2) = -(4 pi)^{-(m-2)/2} dimV / 16.

    The corner remainder of the wedge diagonal integrates to -pi/4 times the
    bulk prefactor, from int_0^infty rho erfc(rho) drho = 1/4 (Avramidi, Math.
    Phys. Anal. Geom. 7 (2004) 9); the tests confirm it by quadrature.
    """
    m, dimV = _sizes((m, dimV), "corner_coefficient (m, dimV)")
    return -(4.0 * math.pi) ** (-(m - 2) / 2.0) * dimV / 16.0


def _half_bessel_top(n, z):
    """The highest order _scaled_half_bessel(n, z) returns: n, or else the order past
    which the normalising sum's terms, about (2k+1) e^{-k^2/2z}, are below eps of it."""
    return max(n, math.ceil(10.0 * math.sqrt(z)) + 20)


def _scaled_half_bessel(n, z):
    """e^{-z} I_{k+1/2}(z) for k = 0.._half_bessel_top(n, z), at a finite z >= 0.

    Miller's backward recurrence I_{nu-1} = I_{nu+1} + (2 nu / z) I_nu (Gautschi,
    SIAM Rev. 9 (1967) 24), run on the ratios h_k = I_{k+1/2}/I_{k-1/2} =
    z / (2k + 1 + z h_{k+1}) from h = 0 at sqrt(top^2 + 40 z) + 8, where the start's
    error has died out by order top.  Every h_k is below 1, so their running products
    I_{k+1/2}/I_{1/2} cannot overflow, and a tiny z gives zeros where they underflow.
    The products are normalised by sum_k (2k+1) e^{-z} I_{k+1/2}(z) = sqrt(2z/pi), the
    theta = 0 case of e^{z cos theta} = sum_k (2k+1) i_k(z) P_k(cos theta) (DLMF 10.60).
    """
    top = _half_bessel_top(n, z)
    r = 0.0
    for k in range(math.ceil(math.sqrt(top * top + 40.0 * z)) + 8, top, -1):
        r = z / (2 * k + 1 + z * r)
    h = np.empty(top + 1)
    for k in range(top, 0, -1):
        r = h[k] = z / (2 * k + 1 + z * r)
    h[0] = 1.0
    y = np.cumprod(h)
    norm = float(np.arange(1.0, 2 * top + 2, 2.0) @ y)
    return y * (math.sqrt(2.0 / math.pi) * math.sqrt(z) / norm)


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
    nu_n = n + 1/2, z = rho rho' / 2t, summed through the scaled e^{-z} I_nu(z) to keep
    the Gaussian prefactor finite.  Those come from _scaled_half_bessel, Miller's
    backward recurrence (Gautschi, SIAM Rev. 9 (1967) 24) normalised by the sum rule
    of DLMF 10.60, run once per call for every mode count up to its top order; the
    tests hold it within 3e-12 relative of Amos's scaled I_nu (ACM TOMS 12 (1986)
    265) for z in [1e-3, 1e6] and orders up to 3000.  Past n modes the truncation
    is geometric in q = I_{n+1/2}/I_{n-1/2}, as I_{nu+1}/I_nu decreases in nu (Amos,
    Math. Comp. 28 (1974) 239).  The rounding of the partial sum is at most
    pref (3e-12 + 9 n eps) sum_{k<n} e^{-z} I_{k+1/2}(z): the kernel's relative
    error, the n - 1 additions and the sines' argument error, each term's sine
    product being at most 1 in size.  n starts at terms and doubles, through
    quadrature.converge, until truncation plus rounding, returned as tail_bound, is
    at most tol.  The rounding part only grows with n, so once it alone is above tol
    the call raises NumericError; a z past the float range does too.
    """
    t = _scalar_t(t)
    (terms,) = _sizes((terms,), "Bessel terms")
    tol = _number(tol, "tolerance tol", math.ulp(0.0))
    if p.xhat or pp.xhat:
        raise ValidationError("mode oracle is the m = 2 slice")
    z = p.rho * pp.rho / (2.0 * t)
    if not z < math.inf:
        raise NumericError(f"Bessel mode argument rho rho'/2t overflows at t={t!r}")
    # e^{-(rho^2+rho'^2)/4t} I_nu(z) = e^{-(rho-rho')^2/4t} * [e^{-z} I_nu(z)]
    pref = math.exp(-(p.rho - pp.rho) ** 2 / (4.0 * t)) / (math.pi * t)
    a, b = _HALF_PI - p.theta, _HALF_PI - pp.theta
    scaled = sums = np.empty(0)

    def modes(n):
        """e^{-z} I_{k+1/2}(z) for k = 0..n at least, and the running sums, in mode
        order, of the terms angular_k e^{-z} I_{k+1/2}(z)."""
        nonlocal scaled, sums
        if scaled.size <= n:
            scaled = _scaled_half_bessel(n, z)
            nu = np.arange(0.5, scaled.size)
            sums = np.cumsum(np.sin(nu * a) * np.sin(nu * b) * scaled)
        return scaled, sums

    def partial(ts, n):
        return pref * float(modes(n)[1][n - 1])

    def tail(ts, n):
        scaled = modes(n)[0]
        last, after = scaled[n - 1:n + 1].tolist()
        q = after / last if last > 0 else 0.0
        truncation = pref * last * (q / (1.0 - q)) if 0.0 < q < 1.0 else 0.0
        rounding = pref * (_HALF_BESSEL_REL + 9 * n * _EPS) * float(scaled[:n].sum())
        if rounding > tol:
            raise NumericError(f"Bessel mode sum's rounding bound {rounding:.3e} at "
                               f"t={t!r} is above the tolerance {tol!r}")
        return truncation + rounding

    value, n, bound = _certified_trace(t, "Bessel mode", lambda tmin: terms, _MODE_CAP,
                                       partial, tail, lambda total: tol,
                                       lambda n: _half_bessel_top(n, z))
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
    form continues analytically past the face).  samples are (rho, WedgePoint)
    pairs, both radii positive; a residual that is not finite is a NumericError.
    """
    t = _scalar_t(t)
    if samples is None:
        samples = default_boundary_samples()
    h = 1e-5
    residuals = [(0.0, 0.0)]
    for sample in samples:
        rho_b, src = sample if isinstance(sample, tuple) and len(sample) == 2 else (0, None)
        if not isinstance(src, WedgePoint):
            raise ValidationError(f"sample {sample!r} is not a (rho, WedgePoint) pair")
        rho_b = _number(rho_b, "sample rho", math.ulp(0.0))
        _number(src.rho, "sample source rho", math.ulp(0.0))
        m = 2 + len(src.xhat)
        xd2 = sum(x * x for x in src.xhat)
        at = lambda theta: _kernel_pair(t, m, xd2, rho_b, theta, src.rho, src.theta)
        neumann = abs(at(-_HALF_PI + h) - at(-_HALF_PI - h)) / (2.0 * h)
        residuals.append((abs(at(_HALF_PI)), neumann))
        if not sum(residuals[-1]) < math.inf:           # max would drop a NaN
            raise NumericError(f"boundary residual at sample {sample!r} is not finite")
    return tuple(map(max, zip(*residuals)))


def wedge_trace_expansion(m, dimV, interior_volume, dirichlet_area,
                          neumann_area, corner_volume=1.0):
    """Heat trace expansion through k = 2 for a flat Zaremba wedge domain.

    Interior Weyl term, the two smooth-face terms (flat faces, K = 0), and
    the corner term; this model produces no logarithmic terms.
    """
    m, dimV = _sizes((m, dimV), "wedge_trace_expansion (m, dimV)")
    vol, d_area, n_area, c_vol = (_number(x, what, 0.0) for x, what in (
        (interior_volume, "interior_volume"), (dirichlet_area, "dirichlet_area"),
        (neumann_area, "neumann_area"), (corner_volume, "corner_volume")))
    b1_d = smooth_boundary_constants("dirichlet", m, dimV)[1]
    b1_n = smooth_boundary_constants("neumann", m, dimV)[1]
    terms = (
        (-m / 2.0, (4.0 * math.pi) ** (-m / 2.0) * dimV * vol),
        ((1.0 - m) / 2.0, b1_d * d_area + b1_n * n_area),
        ((2.0 - m) / 2.0, corner_coefficient(m, dimV) * c_vol),
    )
    return HeatTraceExpansion(m=m, terms=terms)
