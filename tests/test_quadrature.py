"""The doubling driver, the averaging loop on it, its three rules and the three
routes that use them."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from heatkern import nonlaplace as nl
from heatkern import oblique as ob
from heatkern import quadrature, spectra
from heatkern import symmspace as ss
from heatkern import zaremba as za
from heatkern.errors import DomainError, ResourceError
from heatkern.quadrature import (average, cartan_rule, gauss_hermite_rule, sphere_average,
                                  sphere_rule)
from heatkern.tensorcalc import sphere_volume

SIG = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
       np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
       np.diag([1.0, -1.0]).astype(complex))


@pytest.fixture
def node_counts(monkeypatch):
    """Record the count n of every Gauss-Hermite and sphere rule that is requested,
    whether it is built or read from the rule cache."""
    counts = []

    def record(name):
        rule = getattr(quadrature, name)

        def recording(*args):
            counts.append(args[-1])
            return rule(*args)

        monkeypatch.setattr(quadrature, name, recording)

    record("gauss_hermite_rule")
    record("sphere_rule")
    return counts


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def test_converge_returns_the_first_size_settled_at_every_entry():
    # the first entry's change 1/n settles at n = 128, the second's 2/n at 256
    seen = []

    def estimate(n):
        seen.append(n)
        return np.array([1.0, 2.0]) / n

    est, n, err = quadrature.converge(
        4, 1024, estimate, lambda n, est, prev: np.inf if prev is None else np.abs(est - prev),
        lambda est: 0.01, "{size}".format)
    assert seen == [4, 8, 16, 32, 64, 128, 256] and n == 256
    assert list(est) == [1 / 256, 2 / 256] and list(err) == [1 / 256, 2 / 256]


def test_converge_refuses_a_size_over_the_cap_before_estimating_it():
    seen = []

    def never(first, cap):
        return quadrature.converge(first, cap, lambda n: seen.append(n) or float(n),
                                   lambda n, est, prev: 0.5, lambda est: 0.0,
                                   "size {size}, last {last}, change {err:.3e}".format,
                                   lambda n: n * n)

    with pytest.raises(ResourceError, match=r"^size 256, last 8, change 5\.000e-01$"):
        never(4, 100)
    assert seen == [4, 8]
    seen.clear()
    with pytest.raises(ResourceError, match=r"^size 144, last None, change inf$"):
        never(12, 100)
    assert seen == []


def test_converge_rounds_a_fractional_first_size_up_before_doubling(monkeypatch):
    # Landau's first size 20 / (t B) is 2.5 at t B = 8: the sizes are 3, 6, 12, not 3, 5, 10
    seen = []
    est, n, err = quadrature.converge(20 / 8, 100, lambda n: seen.append(n) or n,
                                      lambda n, est, prev: 1.0 / n, lambda est: 0.1,
                                      "{size}".format)
    assert seen == [3, 6, 12] and (est, n, err) == (12, 12, 1 / 12)
    sizes = []
    exp_sum = spectra._exp_sum
    monkeypatch.setattr(spectra, "_exp_sum",
                        lambda ts, lam, *mult: sizes.append(lam.size) or exp_sum(ts, lam, *mult))
    spectra.landau_trace_density(10.0, 0.8)
    assert sizes == [3]


def test_bessel_tail_bound_is_the_drivers_certified_error(monkeypatch):
    results = []

    def recording(*args):
        results.append(quadrature.converge(*args))
        return results[-1]

    monkeypatch.setattr(spectra, "converge", recording)
    res = za.bessel_oracle(0.02, za.WedgePoint(1.0, 0.1), za.WedgePoint(1.0, -0.2), terms=3)
    ((_, n, err),) = results
    assert res.terms == n > 3 and res.tail_bound == err
    assert 0.0 < res.tail_bound <= 1e-10


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
    got = average(lambda n: gauss_hermite_rule(p, n), 4, 8, moments, 1e-14, False,
                  "Gauss-Hermite", "{last} nodes per axis")
    assert got.shape == (len(want),)
    assert np.max(np.abs(got - want)) < 1e-14


def test_matrix_valued_integrand():
    # E[exp(s B)] = exp(B^2 / 2) for s = x_1 + x_2, a centred unit-variance Gaussian
    B = np.array([[0.3, -0.8], [-0.8, 0.5]])
    lam, V = np.linalg.eigh(B)

    def expm(x):
        s = x.sum(axis=1)
        return np.einsum("ak,nk,bk->nab", V, np.exp(s[:, None] * lam), V)

    got = average(lambda n: gauss_hermite_rule(2, n), 16, 64, expm, 1e-12, False,
                  "Gauss-Hermite", "{last} nodes per axis")
    assert got.shape == (2, 2)
    assert np.max(np.abs(got - (V * np.exp(lam ** 2 / 2.0)) @ V.T)) < 1e-12


def test_relative_stopping_rule(node_counts):
    # E[1e6 cos 3x] = 1e6 e^{-9/4}; the 8 -> 16 change is about 111,
    # above 2e-3 absolute but within 2e-3 of the estimate
    def f(x):
        return 1e6 * np.cos(3.0 * x[:, 0])

    exact = 1e6 * math.exp(-2.25)
    rel = average(lambda n: quadrature.gauss_hermite_rule(1, n), 4, 32, f, 2e-3, True,
                  "Gauss-Hermite", "{last} nodes per axis")
    assert node_counts == [4, 8, 16]
    assert abs(rel - exact) < 1e-6
    node_counts.clear()
    absolute = average(lambda n: quadrature.gauss_hermite_rule(1, n), 4, 32, f, 2e-3, False,
                       "Gauss-Hermite", "{last} nodes per axis")
    assert node_counts == [4, 8, 16, 32]
    assert abs(absolute - exact) < 1e-9


def test_unsettled_average_raises_with_node_count():
    # the estimate equals the node count, so it never settles
    def grows(x):
        return np.full(len(x), float(len(x)))

    with pytest.raises(ResourceError, match=r"1e-10.*8 nodes per axis.*4\.000e\+00"):
        average(lambda n: gauss_hermite_rule(1, n), 4, 8, grows, 1e-10, False,
                "Gauss-Hermite", "{last} nodes per axis")


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

    with pytest.raises(ResourceError, match=r"sphere average.*1e-10.*order 8.*1\.000e\+00"):
        sphere_average(dim, 4, 8, grows, 1e-10)


def test_rule_averages_are_taken_past_their_certificates(past_certificate):
    # conftest's fixture keeps every rule average whose next rule is within its cap
    # and takes it again there; here it runs by hand
    sym = nl.one_form_symbol(3, 0.7)
    nl.h_endomorphism(sym, nl.eigenstructure(sym))
    ss.theta_quadrature(ss.build_symmetric_space("S3", radius=1.3), t=0.01)
    kept = [(what, n) for what, *_, n in past_certificate.sums]
    assert [what for what, _ in kept] == ["sphere", "Cartan"]
    past_certificate.check()
    assert past_certificate.checked[-2:] == kept and not past_certificate.sums
    # an average that settles at n = 2 but moves on the rule of 4 fails the check,
    # and one whose next rule is past its cap is not kept
    step = lambda n: (np.full((n, 1), float(n > 2)), np.full(n, 1.0 / n))
    average(step, 1, 4, lambda x: x[:, 0], 1e-10, False, "step", "{last}")
    average(step, 1, 2, lambda x: x[:, 0], 1e-10, False, "capped", "{last}")
    assert [what for what, *_ in past_certificate.sums] == ["step"]
    with pytest.raises(AssertionError, match="step average moves by 1.000e.00 from n = 2 to 4"):
        past_certificate.check()


# ---------------------------------------------------------------------------
# the rule cache
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build,args", [
    (quadrature._unit_directions, (3, 24, 1)),
    (quadrature.gauss_hermite_rule, (2, 16)),
    (quadrature.sphere_rule, (1, 4)),
    (quadrature.sphere_rule, (2, 8)),
    (quadrature.sphere_rule, (4, 8)),
], ids=["directions", "gauss-hermite", "sphere-S0", "sphere-S1", "sphere-S3"])
def test_rules_are_built_once_and_shared_read_only(build, args):
    first = build(*args)
    assert build(*args) is first
    got = first if isinstance(first, tuple) else (first,)
    fresh = build.__wrapped__(*args)
    fresh = fresh if isinstance(fresh, tuple) else (fresh,)
    assert len(got) == len(fresh)
    for a, b in zip(got, fresh):
        assert not a.flags.writeable
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_unit_directions_share_one_sample_per_int_key():
    dirs = quadrature.unit_directions(3, 24, 1)
    assert quadrature.unit_directions(np.int64(3), 24, 1) is dirs
    assert not dirs.flags.writeable


def s4_space(a):
    """S^4 of radius a: holonomy so(4), p = 6, rank 2, generators e_x e_y^T - e_y e_x^T."""
    E = []
    for x, y in itertools.combinations(range(4), 2):
        e = np.zeros((4, 4))
        e[x, y], e[y, x] = 1.0, -1.0
        E.append(e)
    return ss.SymmetricSpaceData(m=4, p=6, E=np.array(E), beta=np.eye(6) / a ** 2)


@pytest.mark.parametrize("space,rank", [(ss.build_symmetric_space("S2"), 1),
                                        (ss.build_symmetric_space("S3"), 1),
                                        (s4_space(1.0), 2)], ids=["S2", "S3", "S4"])
def test_cartan_rule_gaussian_moments(space, rank):
    # |v|^2 is Ad-invariant: E|v|^2 = p/2 and E|v|^4 = p(p+2)/4 under pi^{-p/2} e^{-|v|^2}
    p = space.p
    x, w = cartan_rule(ss._holonomy_ad(space.beta, space.F), 16)
    assert x.shape == (16 ** rank, p) and np.linalg.matrix_rank(x) == rank
    assert abs(w.sum() - 1.0) < 1e-15
    r2 = np.sum(x * x, axis=1)
    assert abs(w @ r2 - p / 2) < 1e-14 * p / 2
    assert abs(w @ r2 ** 2 - p * (p + 2) / 4) < 1e-14 * p * (p + 2) / 4


def test_hermgauss_only_in_the_driver():
    src = Path(quadrature.__file__).resolve().parent
    users = sorted(p.name for p in src.glob("*.py") if "hermgauss" in p.read_text())
    assert users == ["quadrature.py"]


def test_direction_only_routes_use_no_gauss_hermite_rule(monkeypatch):
    def refuse(p, n):
        raise AssertionError("Gauss-Hermite rule requested")

    monkeypatch.setattr(quadrature, "gauss_hermite_rule", refuse)
    sym = nl.one_form_symbol(3, 0.7)
    nl.h_endomorphism(sym, nl.eigenstructure(sym))
    ob.a1_quadrature(ob.ObliqueBoundaryData(m=3, d=2, Pi=np.zeros((2, 2)),
                                            Gamma=tuple(0.5j * s for s in SIG[:2])))


def test_theta_quadrature_uses_rank_one_rules_on_s3(monkeypatch):
    dims = []
    rule = quadrature.gauss_hermite_rule

    def recording(p, n):
        dims.append(p)
        return rule(p, n)

    monkeypatch.setattr(quadrature, "gauss_hermite_rule", recording)
    ss.theta_quadrature(ss.build_symmetric_space("S3", radius=1.3), t=0.01)
    assert dims and set(dims) == {1}


# ---------------------------------------------------------------------------
# the three routes, pinned to their values before the shared loop; H and a1 to
# their sphere-rule orders, theta to its Cartan-rule node counts
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
    ("S2", 1.0, None, 0.05, [16, 32], 1.6183430714420433),
    ("S3", 1.3, np.array([[0.4]]), 0.02, [16, 32], 7.967194770169245),
])
def test_theta_quadrature_pinned(node_counts, fixture, radius, Q, t, counts, want):
    got = ss.theta_quadrature(ss.build_symmetric_space(fixture, radius=radius), Q=Q, t=t)
    assert node_counts == counts
    assert abs(got - want) < 1e-14


@pytest.mark.parametrize("fixture,m", [("S2", 2), ("S3", 3)])
@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("t", [0.002, 0.01])
def test_theta_quadrature_matches_sphere_spectrum(fixture, m, a, t):
    got = ss.theta_quadrature(ss.build_symmetric_space(fixture, radius=a), t=t)
    want = spectra.sphere_trace(m, a, t) / sphere_volume(m, a)
    assert abs(got - want) < 1e-14 * want


@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("t", [0.002, 0.005])
def test_theta_quadrature_matches_s4_spectrum(a, t):
    # rank 2 < p = 6 and a non-constant integrand: Weyl's Jacobian carries weight.
    # S^4 levels l(l+3)/a^2 with multiplicity (l+1)(l+2)(2l+3)/6, volume 8 pi^2 a^4/3
    lmax = int(a * math.sqrt(60.0 / t)) + 14
    trace = math.fsum((l + 1) * (l + 2) * (2 * l + 3) / 6.0 * math.exp(-t * l * (l + 3) / a ** 2)
                      for l in range(lmax + 1))
    want = trace / (8.0 * math.pi ** 2 * a ** 4 / 3.0)
    got = ss.theta_quadrature(s4_space(a), t=t)
    assert abs(got - want) < 1e-13 * want
