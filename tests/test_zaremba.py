"""Mixed-face wedge kernel, corner coefficient, and the Bessel mode oracle."""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erfc

from heatkern import zaremba as za
from heatkern.errors import NumericError, ResourceError, ValidationError
from heatkern.zaremba import WedgePoint

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# points and kernel structure
# ---------------------------------------------------------------------------

def test_wedge_point_validation():
    with pytest.raises(ValidationError):
        WedgePoint(-0.1, 0.0)
    with pytest.raises(ValidationError):
        WedgePoint(1.0, 2.0)
    p = WedgePoint(2.0, math.pi / 6)
    assert abs(p.r - 2.0 * math.cos(math.pi / 6)) < 1e-15
    assert abs(p.y - 1.0) < 1e-15


def test_kernel_symmetry():
    pairs = [
        (WedgePoint(0.8, 0.3), WedgePoint(1.1, -0.7)),
        (WedgePoint(1.4, 1.2), WedgePoint(0.6, 0.9)),
        (WedgePoint(0.9, -1.1, (0.2,)), WedgePoint(1.0, 0.5, (-0.1,))),
    ]
    for p, pp in pairs:
        a = za.wedge_kernel(0.3, p, pp)
        b = za.wedge_kernel(0.3, pp, p)
        assert abs(a - b) < 1e-15 * max(abs(a), 1e-30)


def test_kernel_tangential_translation_invariance():
    p = WedgePoint(0.8, 0.3, (0.4, -0.2))
    pp = WedgePoint(1.1, -0.5, (0.1, 0.6))
    q = WedgePoint(0.8, 0.3, (1.4, 0.8))
    qq = WedgePoint(1.1, -0.5, (1.1, 1.6))
    a, b = za.wedge_kernel(0.2, p, pp), za.wedge_kernel(0.2, q, qq)
    assert abs(a - b) < 1e-14 * abs(a)


def test_kernel_vanishes_on_dirichlet_face():
    src = WedgePoint(0.9, -0.4)
    for rho in (0.3, 1.0, 2.2):
        val = za.wedge_kernel(0.4, WedgePoint(rho, HALF_PI), src)
        assert abs(val) < 1e-16


def test_kernel_validation():
    p, pp = WedgePoint(1.0, 0.0), WedgePoint(1.0, 0.1, (0.5,))
    with pytest.raises(ValidationError):
        za.wedge_kernel(0.0, p, p)
    with pytest.raises(ValidationError):
        za.wedge_kernel(0.1, p, pp)


@pytest.mark.parametrize("rho,theta,m", [
    (0.7, 0.4, 2), (1.3, -0.9, 2), (0.5, 0.0, 2), (0.9, 1.2, 3),
])
def test_diagonal_equals_kernel_on_diagonal(rho, theta, m):
    t = 0.3
    p = WedgePoint(rho, theta, (0.0,) * (m - 2))
    got = za.wedge_diagonal(t, rho, theta, m=m)
    assert abs(got - za.wedge_kernel(t, p, p)) < 1e-14 * abs(got)


def test_diagonal_sign_convention_at_zero():
    # theta = 0 takes the theta -> 0+ limit of the closed form
    t, rho = 0.5, 0.8
    above = za.wedge_diagonal(t, rho, 1e-12)
    assert abs(za.wedge_diagonal(t, rho, 0.0) - above) < 1e-12 * above


def test_diagonal_bulk_limit():
    t = 1.0
    for theta in (-0.6, 0.0, 0.6):
        val = za.wedge_diagonal(t, 12.0, theta)
        assert abs(val - (4 * math.pi * t) ** -1.0) < 1e-12 * val


def test_diagonal_face_values():
    t, rho = 0.4, 0.9
    # Dirichlet face: diagonal vanishes; Neumann face: free value doubled minus
    # the image depletion along the face
    assert abs(za.wedge_diagonal(t, rho, HALF_PI)) < 1e-16
    neu = za.wedge_diagonal(t, rho, -HALF_PI)
    want = (4 * math.pi * t) ** -1.0 * (2.0 - 2.0 * erfc(rho / math.sqrt(t)))
    assert abs(neu - want) < 1e-14


# ---------------------------------------------------------------------------
# corner coefficient
# ---------------------------------------------------------------------------

def test_erfc_moment_identity():
    # int_0^inf xi erfc(xi) dxi = 1/4 underlies the closed corner value
    val, err = quad(lambda x: x * erfc(x), 0.0, np.inf)
    assert abs(val - 0.25) < 1e-12


@lru_cache(maxsize=None)
def corner_integral_check():
    """Numerically confirm the corner integral against its closed value.

    The corner remainder is the diagonal minus the half-plane value the
    point would see from its own face alone (Dirichlet depletion above the
    axis, Neumann doubling below).  The sign(theta)-odd part cancels
    between the two half-ranges; the even part reduces to
    -pi * int_0^infty rho erfc(rho) drho = -pi/4 times the bulk prefactor.
    """
    t = 1.0

    def integrand(rho, theta):
        sgn = -1.0 if theta < 0 else 1.0
        ct = math.cos(theta)
        face = (4.0 * math.pi * t) ** -1.0 * (
            1.0 - sgn * math.exp(-rho * rho * ct * ct / t))
        return rho * (za.wedge_diagonal(t, rho, theta) - face)

    lower, el = dblquad(integrand, -HALF_PI, 0.0, 0.0, 12.0,
                        epsabs=1e-12, epsrel=1e-12)
    upper, eu = dblquad(integrand, 0.0, HALF_PI, 0.0, 12.0,
                        epsabs=1e-12, epsrel=1e-12)
    got = lower + upper
    expected = -(4.0 * math.pi * t) ** -1.0 * math.pi / 4.0
    rel = abs(got - expected) / abs(expected)
    return got, expected, rel, el + eu


def test_corner_integral_check():
    got, expected, rel, err = corner_integral_check()
    assert abs(expected + 1.0 / 16.0) < 1e-15
    assert rel < 1e-6
    assert abs(got - expected) < 1e-6


def test_corner_coefficient_values():
    assert abs(za.corner_coefficient(2) + 1.0 / 16.0) < 1e-15
    assert abs(za.corner_coefficient(3) + (4 * math.pi) ** -0.5 / 16.0) < 1e-16
    assert abs(za.corner_coefficient(4, dimV=2) + (4 * math.pi) ** -1.0 / 8.0) < 1e-16


# ---------------------------------------------------------------------------
# Bessel mode oracle
# ---------------------------------------------------------------------------

BESSEL_POINTS = [
    (0.05, WedgePoint(1.0, -0.9), WedgePoint(0.85, 0.4)),
    (0.10, WedgePoint(0.7, 0.2), WedgePoint(0.9, -0.3)),
    (0.20, WedgePoint(1.2, 1.0), WedgePoint(1.1, -1.2)),
    (0.08, WedgePoint(0.5, 0.0), WedgePoint(0.6, 0.7)),
    (0.15, WedgePoint(1.0, 1.4), WedgePoint(0.8, 1.3)),
]


def test_bessel_oracle_matches_kernel():
    for t, p, pp in BESSEL_POINTS:
        res = za.bessel_oracle(t, p, pp, terms=60)
        want = za.wedge_kernel(t, p, pp)
        assert res.warning is None
        assert res.tail_bound < 1e-10
        assert abs(res.value - want) < 1e-6 * abs(want)


def test_bessel_oracle_dirichlet_source():
    res = za.bessel_oracle(0.1, WedgePoint(0.8, HALF_PI), WedgePoint(0.9, 0.2))
    assert res.value == 0.0


def test_bessel_oracle_truncation_reporting():
    # terms is the first mode count: from 3 the count doubles until the tail is below tol
    t, p, pp = 0.02, WedgePoint(1.0, 0.1), WedgePoint(1.0, -0.2)
    short = za.bessel_oracle(t, p, pp, terms=3)
    full = za.bessel_oracle(t, p, pp, terms=60)
    assert short.terms > 3 and short.terms in (3 * 2 ** k for k in range(1, 10))
    assert short.tail_bound <= 1e-10 and full.tail_bound <= 1e-10
    assert short.warning is None and full.warning is None
    assert abs(short.value - full.value) < 1e-12 * abs(full.value)
    # at t = 1e-9, z = 5e8 needs about 2e5 modes, past the cap
    with pytest.raises(ResourceError, match="over the cap"):
        za.bessel_oracle(1e-9, p, pp, terms=3)
    with pytest.raises(ResourceError, match="over the cap"):
        za.bessel_oracle(t, p, pp, terms=10 ** 9)


def test_bessel_oracle_non_finite_sum_is_numeric_error():
    # rho = 1e200 puts z = rho rho' / 2t past the float range
    p = WedgePoint(1e200, 0.1)
    with pytest.raises(NumericError):
        za.bessel_oracle(0.1, p, p)


def test_bessel_oracle_validation():
    p = WedgePoint(1.0, 0.0)
    with pytest.raises(ValidationError):
        za.bessel_oracle(0.0, p, p)
    with pytest.raises(ValidationError):
        za.bessel_oracle(0.1, p, p, terms=0)
    with pytest.raises(ValidationError):
        za.bessel_oracle(0.1, WedgePoint(1.0, 0.0, (0.3,)), p)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def test_bc_residuals_default_samples():
    for t in (0.1, 0.5):
        max_d, max_n = za.bc_residuals(t)
        assert max_d < 1e-12
        assert max_n < 1e-6


def test_bc_residuals_interior_validation():
    with pytest.raises(ValidationError):
        za.bc_residuals(0.2, samples=[(0.0, WedgePoint(1.0, 0.0))])


def heat_residual(t, p, src, h_space=1e-2, h_time=None):
    """(d/dt + F_0) applied to the kernel by 5-point stencils.

    F_0 = -d^2/drho^2 - (1/rho) d/drho - (1/rho^2) d^2/dtheta^2 in the
    wedge polar coordinates; the kernel solves the heat equation away from
    the boundary, so this residual is a pure discretization check.
    """
    h_time = h_time or 1e-2 * t

    def at(tt, rho, theta):
        return za._kernel_pair(tt, 2, 0.0, rho, theta, src.rho, src.theta)

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


def test_heat_residual_small():
    cases = [
        (0.25, WedgePoint(0.9, 0.2), WedgePoint(1.1, -0.4)),
        (0.40, WedgePoint(1.3, -0.8), WedgePoint(0.7, 0.5)),
    ]
    for t, p, src in cases:
        assert abs(heat_residual(t, p, src)) < 1e-5


# ---------------------------------------------------------------------------
# trace expansion assembly
# ---------------------------------------------------------------------------

def test_wedge_trace_expansion_m2():
    exp = za.wedge_trace_expansion(2, 1, interior_volume=2.0,
                                   dirichlet_area=1.5, neumann_area=2.5)
    by_exp = dict(exp.terms)
    assert abs(by_exp[-1.0] - 2.0 / (4 * math.pi)) < 1e-16
    b1 = (4 * math.pi) ** -0.5 / 4.0
    assert abs(by_exp[-0.5] - (-b1 * 1.5 + b1 * 2.5)) < 1e-16
    assert abs(by_exp[0.0] + 1.0 / 16.0) < 1e-15
    t = 0.2
    want = sum(c * t ** e for e, c in exp.terms)
    assert abs(exp.evaluate(t) - want) < 1e-15 * abs(want)


def test_wedge_trace_expansion_m3():
    exp = za.wedge_trace_expansion(3, 2, interior_volume=1.0,
                                   dirichlet_area=1.0, neumann_area=1.0,
                                   corner_volume=3.0)
    by_exp = dict(exp.terms)
    assert abs(by_exp[-1.5] - 2.0 * (4 * math.pi) ** -1.5) < 1e-16
    assert abs(by_exp[-1.0]) < 1e-16          # equal areas cancel at dimV level
    assert abs(by_exp[-0.5] + 3.0 * 2.0 * (4 * math.pi) ** -0.5 / 16.0) < 1e-16
