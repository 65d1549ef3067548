"""Oblique boundary data: ellipticity cone, three a1 routes, exact limits."""

import math

import numpy as np
import pytest

from heatkern import oblique as ob
from heatkern.errors import (ConditioningError, DomainError, ValidationError)
from heatkern.quadrature import unit_directions

SIG1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIG2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


def pauli_data(gamma):
    # m = 3 Clifford-like family on a two-dimensional fiber
    return ob.ObliqueBoundaryData(
        m=3, d=2, Pi=np.zeros((2, 2)),
        Gamma=(1j * gamma * SIG1, 1j * gamma * SIG2))


def diagonal_data():
    # commuting family, m = 3
    return ob.ObliqueBoundaryData(
        m=3, d=2, Pi=np.zeros((2, 2)),
        Gamma=(np.diag([0.5j, -0.2j]), np.diag([0.1j, 0.4j])))


def block_data():
    # Dirichlet sector on the first axis, oblique on the rest, m = 2
    return ob.ObliqueBoundaryData(
        m=2, d=3, Pi=np.diag([1.0, 0.0, 0.0]),
        Gamma=(np.diag([0.0, 0.6j, -0.3j]),))


# ---------------------------------------------------------------------------
# construction and ellipticity
# ---------------------------------------------------------------------------

def test_constructor_validation():
    z2 = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        ob.ObliqueBoundaryData(m=1, d=2, Pi=z2, Gamma=())
    with pytest.raises(ValidationError):   # Pi not Hermitian
        ob.ObliqueBoundaryData(m=2, d=2, Pi=[[0, 1], [0, 0]], Gamma=(z2,))
    with pytest.raises(ValidationError):   # Pi not idempotent
        ob.ObliqueBoundaryData(m=2, d=2, Pi=0.5 * np.eye(2), Gamma=(z2,))
    with pytest.raises(ValidationError):   # wrong family size
        ob.ObliqueBoundaryData(m=3, d=2, Pi=z2, Gamma=(z2,))
    with pytest.raises(ValidationError):   # Gamma not anti-Hermitian
        ob.ObliqueBoundaryData(m=2, d=2, Pi=z2, Gamma=(SIG1,))
    with pytest.raises(ValidationError):   # Gamma leaks into the Pi sector
        ob.ObliqueBoundaryData(m=2, d=2, Pi=np.diag([1.0, 0.0]),
                               Gamma=(1j * SIG1,))
    with pytest.raises(ValidationError):   # S not Hermitian
        ob.ObliqueBoundaryData(m=2, d=2, Pi=z2, Gamma=(z2,), S=[[0, 1], [0, 0]])
    with pytest.raises(ValidationError):   # S leaks into the Pi sector
        ob.ObliqueBoundaryData(m=2, d=2, Pi=np.diag([1.0, 0.0]),
                               Gamma=(z2,), S=SIG1)


def test_boundary_directions():
    d1 = unit_directions(1, *ob._DIRECTIONS)
    assert d1.shape == (50, 1)
    assert set(np.unique(d1)) == {-1.0, 1.0}
    d2 = unit_directions(2, *ob._DIRECTIONS)
    assert d2.shape == (50, 2)
    assert np.allclose(np.linalg.norm(d2, axis=1), 1.0)
    assert np.array_equal(d2, unit_directions(2, *ob._DIRECTIONS))


def test_strong_ellipticity_pauli():
    v = ob.strong_ellipticity(pauli_data(0.5))
    assert v.elliptic
    assert abs(v.min_eigenvalue - 0.5) < 1e-9

    v = ob.strong_ellipticity(pauli_data(1.5))
    assert not v.elliptic
    assert v.min_eigenvalue < 0.0
    assert abs(np.linalg.norm(v.violating_direction) - 1.0) < 1e-12


def test_violating_direction_violates():
    # I - i Gamma . zeta = diag(1 + 1.5 zeta_1, 1): violated wherever zeta_1 <= -2/3;
    # the worst sample, -e_1, is moved last, and the reported direction is the worst
    data = ob.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                  Gamma=(np.diag([1.5j, 0.0]), np.zeros((2, 2))))
    d = unit_directions(2, *ob._DIRECTIONS)
    dirs = np.concatenate([d[2:], d[:2]])
    v = ob.strong_ellipticity(data, directions=dirs)
    assert not v.elliptic
    there = np.linalg.eigvalsh(np.eye(2) - 1j * data.gamma_dot(v.violating_direction))[0]
    assert v.min_eigenvalue <= 1e-12
    assert abs(v.min_eigenvalue - there) < 1e-12
    assert abs(v.min_eigenvalue + 0.5) < 1e-12


def rotated_diagonal_data(a, angle):
    # Gamma^i = i a w_i diag(1, 0), w = (cos - sin, sin + cos)(angle), |w| = sqrt 2: the
    # least eigenvalue of I - i Gamma . omega is 1 - a sqrt 2, reached at omega = -w/sqrt 2;
    # at a = 0.7072 it is negative only on an arc about 0.03 rad wide
    c, s = math.cos(angle), math.sin(angle)
    g = 1j * a * np.diag([1.0, 0.0])
    return ob.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                  Gamma=((c - s) * g, (s + c) * g))


@pytest.mark.parametrize("angle", [0.0, 0.5, 1.0, 2.0, 2.5, 5.0])
def test_strong_ellipticity_finds_an_arc_between_samples(angle):
    # every one of the 50 samples misses the arc, so a verdict on the samples alone
    # would call these elliptic
    data = rotated_diagonal_data(0.7072, angle)
    omega = unit_directions(2, *ob._DIRECTIONS)
    lam = np.linalg.eigvalsh(np.eye(2) - 1j * data.gamma_dot(omega))[:, 0]
    assert np.min(lam) > 1e-4
    v = ob.strong_ellipticity(data)
    assert not v.elliptic
    assert abs(v.min_eigenvalue - (1.0 - 0.7072 * math.sqrt(2.0))) < 1e-12
    with pytest.raises(DomainError, match="strong ellipticity violated"):
        ob.a1_quadrature(data)


@pytest.mark.parametrize("angle", [0.1, 0.7, 1.3])
def test_rank_one_gamma_past_the_cone_is_a_domain_error(angle):
    # i Gamma . omega = -(1 + 1e-6) (u . omega) diag(1, 0): violated only near omega = -u
    u = (math.cos(angle), math.sin(angle))
    data = ob.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                  Gamma=tuple(1j * (1 + 1e-6) * x * np.diag([1.0, 0.0]) for x in u))
    v = ob.strong_ellipticity(data)
    assert not v.elliptic and abs(v.min_eigenvalue + 1e-6) < 1e-12
    with pytest.raises(DomainError):
        ob.a1_quadrature(data)


def test_strong_ellipticity_direction_validation():
    with pytest.raises(ValidationError):
        ob.strong_ellipticity(pauli_data(0.3), directions=np.eye(2))
    bad = unit_directions(2, *ob._DIRECTIONS).copy()
    bad[7] *= 2.0
    with pytest.raises(ValidationError):
        ob.strong_ellipticity(pauli_data(0.3), directions=bad)


# ---------------------------------------------------------------------------
# a1: three routes
# ---------------------------------------------------------------------------

def test_a1_clifford_pauli_frozen_value():
    gamma = 0.5
    a1 = ob.a1_clifford(pauli_data(gamma))
    want = (4 * math.pi) ** -1.0 * 0.25 * (-1.0 + 2.0 / (1.0 - gamma ** 2))
    assert abs(want - 5.0 / (48.0 * math.pi)) < 1e-14   # exact at gamma = 1/2
    assert np.max(np.abs(a1 - want * np.eye(2))) < 1e-14


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
def test_a1_quadrature_matches_clifford(gamma):
    data = pauli_data(gamma)
    q = ob.a1_quadrature(data)
    c = ob.a1_clifford(data)
    assert np.max(np.abs(q - c)) < 1e-8


def test_a1_quadrature_matches_abelian_m3():
    data = diagonal_data()
    q = ob.a1_quadrature(data)
    a = ob.a1_abelian(data)
    g2 = np.diag([-0.26, -0.20])
    J = np.diag([0.74 ** -0.5, 0.80 ** -0.5])
    want = (4 * math.pi) ** -1.0 * 0.25 * (-np.eye(2) + 2 * J)
    assert np.max(np.abs(a - want)) < 1e-14
    assert np.max(np.abs(np.diag(g2) - np.diag(data.gamma_squared()).real)) < 1e-14
    assert np.max(np.abs(q - a)) < 1e-8


def test_a1_quadrature_matches_abelian_m2():
    data = ob.ObliqueBoundaryData(
        m=2, d=2, Pi=np.zeros((2, 2)), Gamma=(np.diag([0.6j, -0.3j]),))
    q = ob.a1_quadrature(data)
    a = ob.a1_abelian(data)
    assert np.max(np.abs(q - a)) < 1e-8
    # p = 1 families are trivially Clifford-like as well
    c = ob.a1_clifford(data)
    assert np.max(np.abs(c - a)) < 1e-14


def test_a1_block_fixture_sector_split():
    data = block_data()
    a1 = ob.a1_quadrature(data)
    pref = (4 * math.pi) ** -0.5
    J = np.diag([1.0, 0.64 ** -0.5, 0.91 ** -0.5])
    want = pref * 0.25 * (-np.eye(3) - 2 * data.Pi.real + 2 * J)
    assert np.max(np.abs(a1 - want)) < 1e-8
    # Dirichlet sector entry is the pure Dirichlet constant
    assert abs(a1[0, 0].real - (-pref * 0.25 * 3.0 + pref * 0.5)) < 1e-8
    assert np.max(np.abs(a1 @ data.Pi - data.Pi @ a1)) < 1e-10


def test_a1_hermitian():
    for data in (pauli_data(0.4), diagonal_data(), block_data()):
        a1 = ob.a1_quadrature(data)
        assert np.max(np.abs(a1 - a1.conj().T)) == 0.0


def test_a1_dirichlet_neumann_limits_exact():
    zg = (np.zeros((2, 2)),) * 2
    pref = (4 * math.pi) ** -1.0
    dir_data = ob.ObliqueBoundaryData(m=3, d=2, Pi=np.eye(2), Gamma=zg)
    neu_data = ob.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)), Gamma=zg)
    assert np.max(np.abs(ob.a1_quadrature(dir_data) + pref * 0.25 * np.eye(2))) == 0.0
    assert np.max(np.abs(ob.a1_quadrature(neu_data) - pref * 0.25 * np.eye(2))) == 0.0
    # traces match the smooth-boundary constants
    _, b1d, _ = ob.smooth_boundary_constants("dirichlet", 3, 2)
    _, b1n, _ = ob.smooth_boundary_constants("neumann", 3, 2)
    assert abs(np.trace(ob.a1_quadrature(dir_data)).real - b1d) < 1e-15
    assert abs(np.trace(ob.a1_quadrature(neu_data)).real - b1n) < 1e-15


def test_a1_routes_reject_wrong_family():
    with pytest.raises(ValidationError):
        ob.a1_abelian(pauli_data(0.5))          # does not commute
    with pytest.raises(ValidationError):
        ob.a1_clifford(diagonal_data())         # not Clifford-like


def test_a1_divergence_outside_cone():
    with pytest.raises(DomainError, match="divergent"):
        ob.a1_quadrature(pauli_data(1.5))
    with pytest.raises(DomainError):
        ob.a1_clifford(pauli_data(1.5))
    with pytest.raises(DomainError):
        ob.a1_quadrature(pauli_data(1.0))       # exactly on the boundary


def test_a1_conditioning_guard():
    with pytest.raises(ConditioningError):
        ob.a1_quadrature(pauli_data(0.9999))


# ---------------------------------------------------------------------------
# smooth boundary constants
# ---------------------------------------------------------------------------

def test_smooth_boundary_constants():
    b0, b1, b2 = ob.smooth_boundary_constants("dirichlet", 2, 1)
    assert b0 == 0.0
    assert abs(b1 + (4 * math.pi) ** -0.5 / 4.0) < 1e-16
    assert b2 == 0.0
    b0, b1, b2 = ob.smooth_boundary_constants("neumann", 3, 2, K=1.5)
    assert abs(b1 - (4 * math.pi) ** -1.0 * 2 / 4.0) < 1e-16
    assert abs(b2 - (4 * math.pi) ** -1.5 * 2 * 1.5 / 3.0) < 1e-16
    with pytest.raises(ValidationError):
        ob.smooth_boundary_constants("robin", 2, 1)
