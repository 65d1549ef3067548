"""The shared averaging loop, its two rules and the three routes that use them."""

import math
from pathlib import Path

import numpy as np
import pytest

from heatkern import nonlaplace as nl
from heatkern import oblique as ob
from heatkern import quadrature
from heatkern import symmspace as ss
from heatkern.errors import DomainError, NumericError
from heatkern.quadrature import gauss_hermite_average, sphere_average, sphere_rule

SIG = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
       np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
       np.diag([1.0, -1.0]).astype(complex))


@pytest.fixture
def node_counts(monkeypatch):
    """Record the count n of every Gauss-Hermite and sphere rule that is built."""
    counts = []

    def record(module, name):
        rule = getattr(module, name)

        def recording(*args):
            counts.append(args[-1])
            return rule(*args)

        monkeypatch.setattr(module, name, recording)

    record(np.polynomial.hermite, "hermgauss")
    record(quadrature, "sphere_rule")
    return counts


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3])
def test_exact_gaussian_moments(p):
    # weight pi^{-p/2} e^{-|x|^2}: independent axes of variance 1/2
    def moments(x):
        cols = [np.ones(len(x)), x[:, 0] ** 2, x[:, 0] ** 4, x[:, 0] ** 3]
        if p > 1:
            cols += [x[:, 0] ** 2 * x[:, 1] ** 2, x[:, 0] * x[:, 1]]
        if p > 2:
            cols += [x[:, 0] ** 2 * x[:, 1] ** 2 * x[:, 2] ** 2]
        return np.stack(cols, axis=-1)

    want = [1.0, 0.5, 0.75, 0.0] + [0.25, 0.0] * (p > 1) + [0.125] * (p > 2)
    got = gauss_hermite_average(p, (4, 8), moments, 1e-14)
    assert got.shape == (len(want),)
    assert np.max(np.abs(got - want)) < 1e-14


def test_matrix_valued_integrand():
    # E[exp(s B)] = exp(B^2 / 2) for s = x_1 + x_2, a centred unit-variance Gaussian
    B = np.array([[0.3, -0.8], [-0.8, 0.5]])
    lam, V = np.linalg.eigh(B)

    def expm(x):
        s = x.sum(axis=1)
        return np.einsum("ak,nk,bk->nab", V, np.exp(s[:, None] * lam), V)

    got = gauss_hermite_average(2, (16, 32, 64), expm, 1e-12)
    assert got.shape == (2, 2)
    assert np.max(np.abs(got - (V * np.exp(lam ** 2 / 2.0)) @ V.T)) < 1e-12


def test_relative_stopping_rule(node_counts):
    # E[1e6 cos 3x] = 1e6 e^{-9/4}; the 8 -> 16 change is about 111,
    # above 2e-3 absolute but within 2e-3 of the estimate
    def f(x):
        return 1e6 * np.cos(3.0 * x[:, 0])

    exact = 1e6 * math.exp(-2.25)
    rel = gauss_hermite_average(1, (4, 8, 16, 32), f, 2e-3, relative=True)
    assert node_counts == [4, 8, 16]
    assert abs(rel - exact) < 1e-6
    node_counts.clear()
    absolute = gauss_hermite_average(1, (4, 8, 16, 32), f, 2e-3)
    assert node_counts == [4, 8, 16, 32]
    assert abs(absolute - exact) < 1e-9


def test_unsettled_average_raises_with_node_count():
    # the estimate equals the node count, so it never settles
    def grows(x):
        return np.full(len(x), float(len(x)))

    with pytest.raises(NumericError, match=r"1e-10.*8 nodes per axis.*4\.000e\+00"):
        gauss_hermite_average(1, (4, 8), grows, 1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_sphere_rule_moments(dim):
    # uniform measure on S^{dim-1}: <x1^2> = 1/dim, <x1^4> = 3/(dim(dim+2)),
    # <x1^2 x2^2> = 1/(dim(dim+2))
    x, w = sphere_rule(dim, 4)
    assert x.shape == (len(w), dim)
    assert abs(w.sum() - 1.0) < 1e-15
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-15
    assert abs(w @ x[:, 0] ** 2 - 1.0 / dim) < 1e-15
    assert abs(w @ x[:, -1] ** 4 - 3.0 / (dim * (dim + 2))) < 1e-15
    if dim > 1:
        assert abs(w @ (x[:, 0] ** 2 * x[:, -1] ** 2) - 1.0 / (dim * (dim + 2))) < 1e-15


@pytest.mark.parametrize("dim", [1, 3])
def test_unsettled_sphere_average_raises_with_order(dim):
    # the estimate counts the calls, so it never settles
    calls = []

    def grows(x):
        calls.append(len(x))
        return np.full(len(x), float(len(calls)))

    with pytest.raises(NumericError, match=r"sphere average.*1e-10.*order 8.*1\.000e\+00"):
        sphere_average(dim, (4, 8), grows, 1e-10)


def test_hermgauss_only_in_the_driver():
    src = Path(quadrature.__file__).resolve().parent
    users = sorted(p.name for p in src.glob("*.py") if "hermgauss" in p.read_text())
    assert users == ["quadrature.py"]


def test_direction_only_routes_use_no_gauss_hermite_rule(monkeypatch):
    def refuse(n):
        raise AssertionError("Gauss-Hermite rule built")

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
    sym = nl.one_form_symbol(3, 0.7)
    nl.h_endomorphism(sym, nl.eigenstructure(sym))
    ob.a1_quadrature(ob.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                            Gamma=tuple(0.5j * s for s in SIG[:2])))


# ---------------------------------------------------------------------------
# the three routes, pinned to their values before the shared loop; H and a1 to
# their sphere-rule orders, theta to its Gauss-Hermite node counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,c,diag", [
    (2, 1.0, [-0.05968310365946073, -0.05968310365946074]),
    (3, 0.7, [-0.01834150123390738, -0.01834150123390737, -0.01834150123390737]),
])
def test_h_endomorphism_pinned(node_counts, m, c, diag):
    sym = nl.one_form_symbol(m, c)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    assert node_counts == [4, 8]
    assert np.max(np.abs(H - np.diag(diag))) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_h_endomorphism_one_form_closed_form(m):
    # <xi-hat xi-hat^T> = I/m over S^{m-1}
    c = 0.7
    sym = nl.one_form_symbol(m, c)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    want = -(4 * math.pi) ** (-m / 2) * ((1 - 1 / m) + (1 + c) ** (-m / 2) / m)
    assert np.max(np.abs(H - want * np.eye(m))) < 1e-14


@pytest.mark.parametrize("m,gammas,diag,counts", [
    (3, (np.diag([0.5j, -0.2j]), np.diag([0.1j, 0.4j])),
     [0.026359097935612565, 0.02459079107708669], [4, 8, 16, 32]),
    (3, tuple(0.5j * s for s in SIG[:2]), [0.03315727981081157] * 2, [4, 8]),
    (4, tuple(0.4j * s for s in SIG), [0.008967189228122379] * 2, [4, 8]),
], ids=["3-gammas0-diag0", "3-gammas1-diag1", "4-gammas2-diag2"])
def test_a1_quadrature_pinned(node_counts, m, gammas, diag, counts):
    data = ob.ObliqueBoundaryData(m=m, d=2, Pi=np.zeros((2, 2)), Gamma=gammas)
    a1 = ob.a1_quadrature(data)
    assert node_counts == counts
    assert np.max(np.abs(a1 - np.diag(diag))) < 1e-14


@pytest.mark.parametrize("gammas", [
    # m = 4: commuting, and (Gamma . omega)^2 varies over S^2
    (np.diag([0.5j, -0.2j]), np.diag([0.1j, 0.4j]), np.diag([0.3j, 0.25j])),
    # m = 2: S^0 is the two points +-1
    (0.4j * SIG[0],),
], ids=["m4-commuting", "m2-S0"])
def test_a1_quadrature_commuting_closed_form(gammas):
    data = ob.ObliqueBoundaryData(m=len(gammas) + 1, d=2, Pi=np.zeros((2, 2)), Gamma=gammas)
    assert np.max(np.abs(ob.a1_quadrature(data) - ob.a1_abelian(data))) < 1e-14


@pytest.mark.parametrize("a", [1.0 / math.sqrt(2.0), 0.7072])
def test_a1_singular_rule_node_is_domain_error(a, monkeypatch):
    # I + (Gamma . omega)^2 = diag(1 - a^2 (w1 + w2)^2, 1) is singular (a = 1/sqrt 2)
    # or indefinite (a > 1/sqrt 2) at omega = -(1, 1)/sqrt 2, a trapezoid node.  The
    # verdict stops these inputs first; past an elliptic verdict the node guard does
    data = ob.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                  Gamma=(1j * np.diag([a, 0.0]), 1j * np.diag([a, 0.0])))
    with pytest.raises(DomainError, match="strong ellipticity violated"):
        ob.a1_quadrature(data)
    monkeypatch.setattr(ob, "strong_ellipticity",
                        lambda data: ob.EllipticityVerdict(True, 1.0, np.array([1.0, 0.0])))
    with pytest.raises(DomainError, match=r"min eig\(I \+ \(Gamma.omega\)\^2\)"):
        ob.a1_quadrature(data)


@pytest.mark.parametrize("fixture,radius,Q,t,counts,want", [
    ("S2", 1.0, None, 0.05, [64, 128], 1.6183430714420433),
    ("S3", 1.3, np.array([[0.4]]), 0.02, [16, 32], 7.967194770169245),
])
def test_theta_quadrature_pinned(node_counts, fixture, radius, Q, t, counts, want):
    got = ss.theta_quadrature(ss.build_symmetric_space(fixture, radius=radius), Q=Q, t=t)
    assert node_counts == counts
    assert abs(got - want) < 1e-14
