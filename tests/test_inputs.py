"""Malformed matrix-valued inputs end in a ValidationError, never another exception.

Every constructor and function that takes a matrix on the fibre (or a base
tensor) reads it through spectra._array and tests its symmetries with
spectra._require.  Each site below puts one fuzzed value in one argument and
valid values everywhere else.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatkern import (nonlaplace as nl, oblique as ob, quadrature, spectra, symmspace as ss,
                      tensorcalc as tc)
from heatkern.errors import ValidationError

Z2 = np.zeros((2, 2))
EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])
NAN = math.nan

# name -> (the shape the argument takes, the call with the value v in that argument)
SITES = {
    "SymTensor.entries": ((1, 2, 1, 1), lambda v: tc.SymTensor(2, 0, 1, 1, v)),
    "PotentialJet.Q": ((3, 2, 2), lambda v: tc.PotentialJet(2, 2, 1, v, np.zeros((2, 2, 2, 2)))),
    "PotentialJet.curvature": ((2, 2, 2, 2),
                               lambda v: tc.PotentialJet(2, 2, 1, np.zeros((3, 2, 2)), v)),
    "PotentialJet.constant": ((2, 2), lambda v: tc.PotentialJet.constant(2, 2, v, cutoff=1)),
    "FourierBackground.potential": ((2, 2), lambda v: spectra.FourierBackground(
        1, (1.0,), d=2, potential_modes={(0,): v})),
    "FourierBackground.curvature": ((2, 2, 1, 1), lambda v: spectra.FourierBackground(
        2, (1.0, 1.0), curvature_modes={(1, 0): v, (-1, 0): v})),
    "LeadingSymbol.a": ((2, 2, 1, 1), lambda v: nl.LeadingSymbol(2, 1, v)),
    "torus_oracle.Q": ((2, 2), lambda v: nl.torus_oracle(nl.laplace_symbol(1, d=2), Q=v,
                                                         t=0.5)),
    "a2_potential_part.H": ((2, 2), lambda v: nl.a2_potential_part(v, np.eye(2), 1.0)),
    "a2_potential_part.Q": ((2, 2), lambda v: nl.a2_potential_part(np.eye(2), v, 1.0)),
    "x_tensor.riemann": ((2, 2, 2, 2), lambda v: nl.x_tensor(nl.laplace_symbol(2), v)),
    "y_tensor.ricci": ((2, 2), lambda v: nl.y_tensor(nl.laplace_symbol(2), v)),
    "y_tensor.fiber_curvature": ((2, 2, 1, 1),
                                 lambda v: nl.y_tensor(nl.laplace_symbol(2), Z2, v)),
    "ObliqueBoundaryData.Pi": ((2, 2), lambda v: ob.ObliqueBoundaryData(2, 2, v, (Z2,))),
    "ObliqueBoundaryData.Gamma": ((1, 2, 2), lambda v: ob.ObliqueBoundaryData(2, 2, Z2, v)),
    "ObliqueBoundaryData.S": ((2, 2), lambda v: ob.ObliqueBoundaryData(2, 2, Z2, (Z2,), v)),
    "ConstantFieldStrength.rhat": ((2, 2), lambda v: ss.ConstantFieldStrength(2, v)),
    "ConstantFieldStrength.Q": ((2, 2), lambda v: ss.ConstantFieldStrength(2, EPS, Q=v)),
    "theta_series.Q": ((2, 2), lambda v: ss.theta_series(ss.build_symmetric_space("S2"),
                                                         Q=v, order=1)),
    "SymmetricSpaceData.E": ((1, 2, 2), lambda v: ss.SymmetricSpaceData(m=2, p=1, E=v,
                                                                        beta=[[1.0]])),
    "SymmetricSpaceData.beta": ((1, 1), lambda v: ss.SymmetricSpaceData(m=2, p=1, E=EPS[None],
                                                                        beta=v)),
}

# inputs that once ended in a bare numpy ValueError or LinAlgError, or that NaN got through
PROBES = [
    ("ObliqueBoundaryData.Pi", np.eye(3)),
    ("ObliqueBoundaryData.Gamma", (np.zeros((3, 3)),)),
    ("ObliqueBoundaryData.S", np.zeros(3)),
    ("ObliqueBoundaryData.Pi", "x"),
    ("LeadingSymbol.a", np.zeros(3)),
    ("torus_oracle.Q", np.eye(3)),
    ("ConstantFieldStrength.rhat", np.zeros((3, 3))),
    ("ConstantFieldStrength.Q", np.zeros((2, 3))),
    ("SymmetricSpaceData.E", np.zeros((2, 2, 2))),
    ("SymmetricSpaceData.beta", np.eye(2)),
    ("a2_potential_part.Q", np.eye(3)),
    ("y_tensor.fiber_curvature", np.zeros((2, 2, 2, 2))),
    ("ObliqueBoundaryData.Pi", np.diag([NAN, 0.0])),
    ("ObliqueBoundaryData.Gamma", (np.diag([NAN, 0.0]),)),
    ("ObliqueBoundaryData.S", np.diag([0.0, NAN])),
    ("PotentialJet.curvature", np.full((2, 2, 2, 2), NAN)),
    ("ConstantFieldStrength.Q", [1.0, 2.0]),
]


@pytest.mark.parametrize("site,value", PROBES,
                         ids=[f"{site}-{i}" for i, (site, _) in enumerate(PROBES)])
def test_probe_is_validation_error(site, value):
    with pytest.raises(ValidationError):
        SITES[site][1](value)


@pytest.mark.parametrize("call", [
    lambda: nl.LeadingSymbol(-1, 1, [1.0]),
    lambda: nl.LeadingSymbol(2.0, 1, np.eye(2)),
    lambda: nl.LeadingSymbol(0, 1, []),
    lambda: nl.laplace_symbol(0),
    lambda: nl.LeadingSymbol(2, 0, []),
    lambda: ob.ObliqueBoundaryData(2, -1, [0.0], [0.0]),
    lambda: ob.ObliqueBoundaryData(2, 0, [], []),
    lambda: ss.ConstantFieldStrength(-2, [0.0] * 4),
    lambda: ss.ConstantFieldStrength(0, []),
    lambda: ss.SymmetricSpaceData(m=2, p=0, E=[], beta=[]),
    lambda: tc.PotentialJet(-1, 1, 2, [[[0.0]]], [[[[0.0]]]]),
], ids=["symbol-m-negative", "symbol-m-float", "symbol-m-zero", "laplace-m-zero",
        "symbol-d-zero", "oblique-d-negative", "oblique-d-zero", "field-m-negative",
        "field-m-zero", "symmetric-p-zero", "potential-m-negative"])
def test_bad_sizes_are_validation_errors(call):
    # the sizes reach numpy's reshape, where they were a bare ValueError or
    # TypeError; a zero size would pass a check of an empty array
    with pytest.raises(ValidationError, match="positive integers"):
        call()


def test_unit_directions_need_a_dimension():
    # at p = 0 every normal draw has norm 0, so the sampler would never finish
    with pytest.raises(ValidationError, match="p >= 1"):
        quadrature.unit_directions(0, 24, 1)


@pytest.mark.parametrize("call", [
    lambda: tc.PotentialJet(2, 2, 2, np.zeros((2, 2, 6)), np.zeros((2, 2, 2, 2))),
    lambda: tc.PotentialJet(2, 2, 1, np.zeros(12), np.zeros((2, 2, 2, 2))),
    lambda: tc.PotentialJet(3, 2, 0, np.zeros((1, 2, 2)), np.zeros((2, 2, 3, 3))),
    lambda: tc.SymTensor(2, 0, 1, 1, np.zeros((2, 1, 1, 1))),
    lambda: tc.SymTensor(2, 0, 1, 1, np.zeros(2)),
], ids=["Q-fiber-first", "Q-flat", "curvature-transposed", "entries-misordered",
        "entries-flat"])
def test_taylor_arrays_need_their_exact_shape(call):
    # these hold Taylor coefficients by position: a block of the right size in
    # another layout would be misread, so it is refused, not reshaped
    with pytest.raises(ValidationError, match="shape"):
        call()


def test_nan_boundary_data_never_reaches_a1():
    # NaN in Pi fails every comparison, so it once passed the Hermitian and
    # idempotent checks and a1_abelian returned an all-NaN matrix
    with pytest.raises(ValidationError, match="Pi is not finite"):
        ob.a1_abelian(ob.ObliqueBoundaryData(2, 2, np.diag([NAN, 0.0]), (Z2,)))


def test_array_reads_any_layout_and_keeps_the_dtype():
    a = spectra._array([1, 2, 3, 4], (2, 2), "x", float)
    assert a.dtype == float and a.flags.c_contiguous
    assert np.array_equal(a, [[1.0, 2.0], [3.0, 4.0]])
    assert spectra._array(np.eye(2, dtype=complex), (4,), "x").dtype == complex
    assert spectra._array(0.5, None, "x").shape == (1, 1)
    with pytest.raises(ValidationError, match="x is not real"):
        spectra._array([1.0, 1j], (2,), "x", float)
    with pytest.raises(ValidationError, match="not a square matrix"):
        spectra._array([1.0, 2.0, 3.0, 4.0], None, "x")
    with pytest.raises(ValidationError, match="y"):
        spectra._require(np.array([0.0, NAN]), 0.0, "y")


entries = st.one_of(st.floats(-1, 1, allow_subnormal=False),
                    st.complex_numbers(max_magnitude=1, allow_subnormal=False),
                    st.sampled_from([NAN, math.inf, -math.inf, complex(0.0, NAN),
                                     complex(math.inf, 0.0)]))
non_numeric = st.sampled_from(["x", None, {}, object(), [[1.0], [1.0, 2.0]], [1.0, "y"]])


@st.composite
def site_values(draw):
    site = draw(st.sampled_from(sorted(SITES)))
    shape = SITES[site][0]
    kind = draw(st.sampled_from(["zeros", "right", "flat", "random", "non-numeric"]))
    if kind == "non-numeric":
        return site, draw(non_numeric)
    if kind == "random":
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    size = math.prod(shape)
    if kind == "zeros":
        values = [0.0] * size
    else:
        values = draw(st.lists(entries, min_size=size, max_size=size))
    v = np.array(values, dtype=complex if any(isinstance(x, complex) for x in values)
                 else float).reshape(shape)
    if kind == "flat":
        v = v.ravel().tolist()
    return site, v


def _with_probes(test):
    for site, value in PROBES:
        test = example(case=(site, value))(test)
    return test


@_with_probes
@given(case=site_values())
@settings(max_examples=300, deadline=None)
def test_matrix_inputs_succeed_or_raise_validation_error(case):
    site, value = case
    try:
        SITES[site][1](value)
    except ValidationError:
        pass
