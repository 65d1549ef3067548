"""One t convention for every evaluator: a scalar t gives a float, a t-array an array.

Each array entry must agree with the scalar call at that t, and every
evaluator rejects the same bad inputs with a ValidationError.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern import formfactors as ff
from heatkern import nonlaplace as nl
from heatkern import spectra, symmspace as ss
from heatkern import zaremba as za
from heatkern.errors import ValidationError
from heatkern.hmds import HeatTraceExpansion


def _curved_background():
    b = np.zeros((2, 2, 1, 1), dtype=complex)
    b[0, 1], b[1, 0] = 0.2, -0.2
    return ff.FourierBackground(
        m=2, periods=(2 * math.pi, 3.0),
        potential_modes={(1, 1): [[0.1 + 0.05j]], (-1, -1): [[0.1 - 0.05j]], (0, 0): [[0.3]]},
        curvature_modes={(1, 0): b, (-1, 0): -np.conj(b.transpose(0, 1, 3, 2))})


_FIELD = np.zeros((4, 4))
_FIELD[0, 1], _FIELD[1, 0], _FIELD[2, 3], _FIELD[3, 2] = 0.7, -0.7, 1.9, -1.9

EVALUATORS = {
    "interval-DD": lambda t: spectra.interval_trace(1.3, "DD", t),
    "interval-NN": lambda t: spectra.interval_trace(0.8, "NN", t),
    "interval-DN": lambda t: spectra.interval_trace(2.1, "DN", t),
    "interval-robin": lambda t: spectra.interval_trace(1.0, "robin", t, S=0.6),
    "sphere-2": lambda t: spectra.sphere_trace(2, 1.2, t),
    "sphere-3": lambda t: spectra.sphere_trace(3, 0.8, t),
    "landau": lambda t: spectra.landau_trace_density(1.5, t),
    "torus-oracle": lambda t: nl.torus_oracle(nl.one_form_symbol(2, 0.5), Q=np.diag([0.3, -0.2]),
                                              t=t, periods=(2 * math.pi, 3.0)),
    "expansion": HeatTraceExpansion(
        m=3, terms=((-1.5, 0.3), (-1.0, 0.0), (-0.5, 0.1), (0.5, -0.02))).evaluate,
    # |k|^2 = 9 puts t |k|^2 on both sides of the gamma branch point z = 1
    "h-circle": lambda t: ff.h_functional(ff.FourierBackground.circle_cosine(
        2 * math.pi, 3, 0.2), t),
    "h-curved-torus": lambda t: ff.h_functional(_curved_background(), t),
    "nilpotent": lambda t: ss.nilpotent_trace_density(
        ss.ConstantFieldStrength(4, _FIELD, Q=np.diag([0.2, -0.4])), t),
}

grids = st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6).map(np.array)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@given(ts=grids)
@settings(max_examples=15, deadline=None)
def test_array_entries_match_scalar_calls(name, ts):
    evaluate = EVALUATORS[name]
    got = evaluate(ts)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    for t, value in zip(ts, got):
        scalar = evaluate(float(t))
        assert isinstance(scalar, float)
        assert abs(value - scalar) <= 1e-15 * abs(scalar)


BAD_T = [0.0, -0.5, math.nan, math.inf, -math.inf, np.array([]), np.ones((2, 2)),
         np.array([0.1, 0.0]), np.array([0.1, math.nan])]


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("t", BAD_T, ids=["zero", "negative", "nan", "inf", "-inf", "empty",
                                          "2-D", "zero-entry", "nan-entry"])
def test_bad_t_is_validation_error(name, t):
    with pytest.raises(ValidationError):
        EVALUATORS[name](t)


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
@given(zs=st.lists(st.one_of(st.floats(-6.0, 1.0), st.floats(1.0, 1e6)),
                   min_size=1, max_size=8).map(np.array))
@settings(max_examples=20, deadline=None)
def test_gamma_array_matches_gamma_factor(i, zs):
    # the series branch (z < 1, negative z included) and the Dawson branch
    got = ff._gamma(i, zs)
    for z, value in zip(zs, got):
        scalar = ff.gamma_factor(i, z)
        assert isinstance(scalar, float)
        assert abs(value - scalar) <= 1e-15 * abs(scalar)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_gamma_factor_rejects_non_finite_z(z):
    with pytest.raises(ValidationError):
        ff.gamma_factor(1, z)


# Routes that take one t per call: the same checks, and a float back.
_A, _B = za.WedgePoint(0.7, 0.2), za.WedgePoint(0.9, -0.3)
SCALAR_ROUTES = {
    "u0_trace": lambda t: nl.u0_trace(nl.eigenstructure(nl.one_form_symbol(3, 0.4)), 3, t),
    "wedge_kernel": lambda t: za.wedge_kernel(t, _A, _B),
    "wedge_diagonal": lambda t: za.wedge_diagonal(t, 0.7, 0.2),
    "bessel_oracle": lambda t: za.bessel_oracle(t, _A, _B, terms=60).value,
    "theta_quadrature": lambda t: ss.theta_quadrature(ss.build_symmetric_space("S2"), t=t),
}


@pytest.mark.parametrize("name", sorted(SCALAR_ROUTES))
def test_scalar_t_routes_return_floats(name):
    assert isinstance(SCALAR_ROUTES[name](0.05), float)


@pytest.mark.parametrize("name", sorted(SCALAR_ROUTES))
@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0, np.array([0.05, 0.1])],
                         ids=["nan", "inf", "zero", "negative", "1-D"])
def test_scalar_t_routes_reject_bad_t(name, t):
    with pytest.raises(ValidationError):
        SCALAR_ROUTES[name](t)
