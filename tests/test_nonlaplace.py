"""Leading-symbol detection, Gaussian projector averages, torus cross-checks."""

import math

import numpy as np
import pytest

from heatkern import nonlaplace as nl
from heatkern.errors import (EllipticityError, ResourceError, StructureError,
                             ValidationError)
from heatkern.quadrature import unit_directions


def striped_symbol():
    # A(xi) = |xi|^2 I + xi_1^2 e2 e2^T: eigenvalues depend on the direction
    a = np.zeros((2, 2, 2, 2), dtype=complex)
    a[0, 0] = np.eye(2) + np.diag([0.0, 1.0])
    a[1, 1] = np.eye(2)
    return nl.LeadingSymbol(m=2, d=2, a=a)


# ---------------------------------------------------------------------------
# symbols and structure detection
# ---------------------------------------------------------------------------

def test_symbol_constructor_validation():
    bad = np.zeros((2, 2, 1, 1), dtype=complex)
    bad[0, 1] = 1.0   # not symmetric in the base indices
    with pytest.raises(ValidationError):
        nl.LeadingSymbol(m=2, d=1, a=bad)
    bad = np.zeros((1, 1, 2, 2), dtype=complex)
    bad[0, 0] = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        nl.LeadingSymbol(m=1, d=2, a=bad)


def test_symbol_matrix_batch_agrees_with_single():
    rng = np.random.default_rng(7)
    # complex Hermitian blocks, symmetric in the base indices
    b = rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
    b = b + b.transpose(1, 0, 2, 3)
    hermitian = nl.LeadingSymbol(m=3, d=2, a=b + b.conj().transpose(0, 1, 3, 2))
    xs = rng.standard_normal((5, 3))
    for sym in (nl.one_form_symbol(3, 0.6), hermitian):
        batch = sym.symbol_matrix(xs)
        for n, x in enumerate(xs):
            assert np.allclose(batch[n], sym.symbol_matrix(x))
            assert np.allclose(batch[n], np.einsum("u,v,uvab->ab", x, x, sym.a))


def test_default_directions():
    dirs = unit_directions(3, *nl._DIRECTIONS)
    assert dirs.shape == (24, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert np.allclose(dirs[:6], np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]))
    assert np.array_equal(dirs, unit_directions(3, *nl._DIRECTIONS))


def test_eigenstructure_laplace():
    spec = nl.eigenstructure(nl.laplace_symbol(3, d=2))
    assert spec.mu == (1.0,)
    assert spec.mult == (2,)


@pytest.mark.parametrize("m,c", [(2, 1.0), (3, 0.6), (4, -0.4)])
def test_eigenstructure_one_form(m, c):
    spec = nl.eigenstructure(nl.one_form_symbol(m, c))
    pairs = sorted(zip(spec.mu, spec.mult))
    want = sorted([(1.0, m - 1), (1.0 + c, 1)])
    for (mu, d), (mu0, d0) in zip(pairs, want):
        assert abs(mu - mu0) < 1e-12 and d == d0


def test_eigenstructure_rejects_direction_dependence():
    with pytest.raises(StructureError):
        nl.eigenstructure(striped_symbol())


def test_eigenstructure_rejects_nonelliptic():
    with pytest.raises(EllipticityError):
        nl.eigenstructure(nl.one_form_symbol(2, -1.0))
    with pytest.raises(EllipticityError):
        nl.eigenstructure(nl.one_form_symbol(2, -1.5))


def test_eigenstructure_direction_validation():
    sym = nl.laplace_symbol(2)
    with pytest.raises(ValidationError):
        nl.eigenstructure(sym, directions=np.eye(2))      # too few
    bad = unit_directions(2, *nl._DIRECTIONS).copy()
    bad[5] *= 1.5
    with pytest.raises(ValidationError):
        nl.eigenstructure(sym, directions=bad)


def test_projectors_radial_channel():
    # the multiplicity-one eigenspace of |xi|^2 I + c xi (x) xi is radial
    sym = nl.one_form_symbol(3, 0.8)
    spec = nl.eigenstructure(sym)
    i_rad = spec.mult.index(1)
    rng = np.random.default_rng(11)
    for _ in range(4):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        P = spec.projectors_batch(v[None])[0]
        assert np.max(np.abs(P[i_rad] - np.outer(v, v))) < 1e-10


def test_projector_algebra_residuals():
    sym = nl.one_form_symbol(3, 0.5)
    spec = nl.eigenstructure(sym)
    dirs = unit_directions(3, *nl._DIRECTIONS)
    P = spec.projectors_batch(dirs)
    eye = np.eye(3)
    for n in range(dirs.shape[0]):
        assert np.max(np.abs(P[n].sum(axis=0) - eye)) < 1e-12
        A = sym.symbol_matrix(dirs[n])
        rebuilt = sum(spec.mu[i] * P[n, i] for i in range(spec.s))
        assert np.max(np.abs(rebuilt - A)) < 1e-10
        for i in range(spec.s):
            assert np.max(np.abs(P[n, i] @ P[n, i] - P[n, i])) < 1e-12
            for j in range(i + 1, spec.s):
                assert np.max(np.abs(P[n, i] @ P[n, j])) < 1e-12


def test_projectors_reject_foreign_spectrum():
    spec = nl.eigenstructure(nl.one_form_symbol(2, 0.5))
    alien = nl.SymbolSpectrum(symbol=striped_symbol(), s=spec.s,
                              mu=spec.mu, mult=spec.mult)
    with pytest.raises(StructureError):
        alien.projectors_batch(unit_directions(2, *nl._DIRECTIONS))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_a0_laplace_is_weighted_volume():
    spec = nl.eigenstructure(nl.laplace_symbol(2))
    vol = 4.0 * math.pi ** 2
    assert abs(nl.a0_coefficient(spec, 2, vol) - vol / (4 * math.pi)) < 1e-14


def test_a0_one_form_m2():
    spec = nl.eigenstructure(nl.one_form_symbol(2, 1.0))
    assert abs(nl.a0_coefficient(spec, 2, 1.0) - 3.0 / (8 * math.pi)) < 1e-14


def test_u0_homogeneity_and_consistency():
    spec = nl.eigenstructure(nl.one_form_symbol(3, 0.4))
    a0 = nl.a0_coefficient(spec, 3, vol=2.5)
    for t in (1e-3, 0.7):
        assert abs(nl.u0_trace(spec, 3, t) * 2.5 * t ** 1.5 - a0) < 1e-12 * abs(a0)
    with pytest.raises(ValidationError):
        nl.u0_trace(spec, 3, 0.0)


def test_h_endomorphism_laplace():
    sym = nl.laplace_symbol(3, d=2)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    want = -(4 * math.pi) ** -1.5 * np.eye(2)
    assert np.max(np.abs(H - want)) < 1e-12


def test_h_endomorphism_one_form_m2():
    sym = nl.one_form_symbol(2, 1.0)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    want = -(4 * math.pi) ** -1.0 * 0.75 * np.eye(2)
    assert np.max(np.abs(H - want)) < 1e-10


def test_h_endomorphism_one_form_m3():
    # radial average xi xi^T -> I/3, so H is a two-channel scalar
    c = 0.7
    sym = nl.one_form_symbol(3, c)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    scalar = -(4 * math.pi) ** -1.5 * (2.0 / 3.0 + (1 + c) ** -1.5 / 3.0)
    assert np.max(np.abs(H - scalar * np.eye(3))) < 1e-9 * abs(scalar)


def test_a2_potential_part_is_trace_pairing():
    H = np.array([[0.2, 0.1j], [-0.1j, -0.4]])
    Q = np.array([[1.0, 0.5], [0.5, 2.0]])
    want = (H @ Q).trace().real * 3.0
    assert abs(nl.a2_potential_part(H, Q, 3.0) - want) < 1e-15


# ---------------------------------------------------------------------------
# torus oracle
# ---------------------------------------------------------------------------

def circle_theta(t, L=1.0, nmax=80):
    k = 2 * math.pi * np.arange(-nmax, nmax + 1) / L
    return float(np.sum(np.exp(-t * k ** 2)))


def test_torus_oracle_m1_matches_theta():
    sym = nl.laplace_symbol(1)
    for t in (0.05, 0.5):
        want = circle_theta(t, L=2 * math.pi, nmax=200)
        got = nl.torus_oracle(sym, t=t, periods=(2 * math.pi,))
        assert abs(got - want) < 1e-12 * want


def test_torus_oracle_constant_q_factorizes():
    sym = nl.laplace_symbol(2, d=2)
    t = 0.05
    got = nl.torus_oracle(sym, Q=np.diag([0.3, -0.2]), t=t)
    theta2 = circle_theta(t) ** 2
    want = (math.exp(-0.3 * t) + math.exp(0.2 * t)) * theta2
    assert abs(got - want) < 1e-12 * want


def test_torus_oracle_long_time_limit():
    got = nl.torus_oracle(nl.laplace_symbol(2, d=3), t=50.0)
    assert abs(got - 3.0) < 1e-13


def test_torus_oracle_leading_term():
    # t -> 0: t^{m/2} Tr -> a0 with vol = product of periods
    sym = nl.one_form_symbol(2, 1.0)
    spec = nl.eigenstructure(sym)
    t = 1e-3
    got = nl.torus_oracle(sym, t=t)
    a0 = nl.a0_coefficient(spec, 2, vol=1.0)
    assert abs(t * got - a0) < 1e-8


def test_a2_potential_part_matches_torus_slope():
    # slope of t * Tr(t) at small t is vol tr(H Q)
    sym = nl.one_form_symbol(2, 1.0)
    spec = nl.eigenstructure(sym)
    H = nl.h_endomorphism(sym, spec)
    Q = np.diag([0.8, -0.3])
    want = nl.a2_potential_part(H, Q, vol=1.0)
    ts = np.array([4e-4, 8e-4, 1.2e-3])
    ys = np.array([t * nl.torus_oracle(sym, Q=Q, t=t) for t in ts])
    slope = np.polyfit(ts, ys, 1)[0]
    assert abs(slope - want) < 5e-3 * abs(want)


def test_torus_oracle_validation_and_budget():
    sym = nl.laplace_symbol(2)
    with pytest.raises(ValidationError):
        nl.torus_oracle(sym, t=-1.0)
    with pytest.raises(ValidationError):
        nl.torus_oracle(sym, t=0.1, periods=(1.0,))
    with pytest.raises(ValidationError):
        nl.torus_oracle(sym, t=0.1, Q=np.array([[1j]]))
    with pytest.raises(ResourceError):
        nl.torus_oracle(sym, t=0.1, cutoff=2000)
    with pytest.raises(ResourceError):
        nl.torus_oracle(sym, t=1e-9)


# ---------------------------------------------------------------------------
# curvature pairings
# ---------------------------------------------------------------------------

def constant_curvature_riemann(m, kappa):
    eye = np.eye(m)
    return kappa * (np.einsum("ac,bd->abcd", eye, eye)
                    - np.einsum("ad,bc->abcd", eye, eye))


def test_x_tensor_laplace_constant_curvature():
    m, kappa = 3, 0.9
    sym = nl.laplace_symbol(m)
    X = nl.x_tensor(sym, constant_curvature_riemann(m, kappa))
    eye = np.eye(m)
    want = -(kappa / 6.0) * (2 * np.einsum("uv,ab->uvab", eye, eye)
                             - np.einsum("vb,ua->uvab", eye, eye)
                             - np.einsum("va,ub->uvab", eye, eye))
    assert np.max(np.abs(X[..., 0, 0] - want)) < 1e-13
    assert np.max(np.abs(X - X.transpose(1, 0, 2, 3, 4, 5))) < 1e-14
    assert np.max(np.abs(X - X.transpose(0, 1, 3, 2, 4, 5))) < 1e-14


def test_x_tensor_zero_and_linearity():
    sym = nl.one_form_symbol(2, 0.5)
    R = constant_curvature_riemann(2, 1.3)
    assert np.max(np.abs(nl.x_tensor(sym, 0.0 * R))) == 0.0
    assert np.allclose(nl.x_tensor(sym, 2.0 * R), 2.0 * nl.x_tensor(sym, R))


def test_y_tensor_laplace_closed_form():
    m = 2
    sym = nl.laplace_symbol(m, d=1)
    ric = np.array([[0.7, 0.1], [0.1, -0.2]])
    Y = nl.y_tensor(sym, ric)
    assert np.max(np.abs(Y[..., 0, 0] - (2.0 / 3.0) * ric)) < 1e-14

    fc = np.zeros((m, m, 1, 1), dtype=complex)
    fc[0, 1], fc[1, 0] = 0.4j, -0.4j
    Yf = nl.y_tensor(sym, ric, fiber_curvature=fc)
    want = (2.0 / 3.0) * ric[..., None, None] - fc.transpose(1, 0, 2, 3)
    assert np.max(np.abs(Yf - want)) < 1e-14
