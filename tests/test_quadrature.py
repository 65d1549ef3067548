"""The shared Gauss-Hermite driver and the three routes that use it."""

import math
from pathlib import Path

import numpy as np
import pytest

from heatkern import nonlaplace as nl
from heatkern import oblique as ob
from heatkern import quadrature
from heatkern import symmspace as ss
from heatkern.errors import NumericError
from heatkern.quadrature import gauss_hermite_average

SIG = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
       np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
       np.diag([1.0, -1.0]).astype(complex))


@pytest.fixture
def node_counts(monkeypatch):
    """Record the per-axis node count of every rule the driver builds."""
    counts = []
    rule = np.polynomial.hermite.hermgauss

    def recording(n):
        counts.append(n)
        return rule(n)

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", recording)
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


def test_hermgauss_only_in_the_driver():
    src = Path(quadrature.__file__).resolve().parent
    users = sorted(p.name for p in src.glob("*.py") if "hermgauss" in p.read_text())
    assert users == ["quadrature.py"]


# ---------------------------------------------------------------------------
# the three routes, pinned to their values and node counts before the driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,c,diag", [
    (2, 1.0, [-0.05968310365946073, -0.05968310365946074]),
    (3, 0.7, [-0.01834150123390738, -0.01834150123390737, -0.01834150123390737]),
])
def test_h_endomorphism_pinned(node_counts, m, c, diag):
    sym = nl.one_form_symbol(m, c)
    H = nl.h_endomorphism(sym, nl.eigenstructure(sym))
    assert node_counts == [16, 32]
    assert np.max(np.abs(H - np.diag(diag))) < 1e-14


@pytest.mark.parametrize("m,gammas,diag", [
    (3, (np.diag([0.5j, -0.2j]), np.diag([0.1j, 0.4j])),
     [0.026359097935612565, 0.02459079107708669]),
    (3, tuple(0.5j * s for s in SIG[:2]), [0.03315727981081157] * 2),
    (4, tuple(0.4j * s for s in SIG), [0.008967189228122379] * 2),
])
def test_a1_quadrature_pinned(node_counts, m, gammas, diag):
    data = ob.ObliqueBoundaryData(m=m, d=2, Pi=np.zeros((2, 2)), Gamma=gammas)
    a1 = ob.a1_quadrature(data)
    assert node_counts == [16, 32]
    assert np.max(np.abs(a1 - np.diag(diag))) < 1e-14


@pytest.mark.parametrize("fixture,radius,Q,t,counts,want", [
    ("S2", 1.0, None, 0.05, [64, 128], 1.6183430714420433),
    ("S3", 1.3, np.array([[0.4]]), 0.02, [16, 32], 7.967194770169245),
])
def test_theta_quadrature_pinned(node_counts, fixture, radius, Q, t, counts, want):
    got = ss.theta_quadrature(ss.build_symmetric_space(fixture, radius=radius), Q=Q, t=t)
    assert node_counts == counts
    assert abs(got - want) < 1e-14
