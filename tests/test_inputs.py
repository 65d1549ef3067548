"""Malformed matrix-valued and scalar inputs end in a ValidationError, never another
exception.

Every constructor and function that takes a matrix on the fibre (or a base
tensor) reads it through spectra._array and tests its symmetries with
spectra._require; every real scalar goes through spectra._number and every
integer size through spectra._sizes.  Each site below puts one fuzzed value in
one argument and valid values everywhere else.  A size whose monomial basis passes
tensorcalc.BASIS_BUDGET is a ResourceError, raised before anything is allocated.
test_every_public_parameter_is_swept_or_exempt holds these tables to every public
parameter of the library.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heatkern
from heatkern import (formfactors as ff, hmds, nonlaplace as nl, oblique as ob, quadrature,
                      spectra, symmspace as ss, tensorcalc as tc, zaremba as zw)
from heatkern.errors import HeatkernError, NumericError, ResourceError, ValidationError

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
    "eigenstructure.directions": ((20, 2), lambda v: nl.eigenstructure(nl.laplace_symbol(2),
                                                                       directions=v)),
    "strong_ellipticity.directions": ((50, 1), lambda v: ob.strong_ellipticity(
        ob.ObliqueBoundaryData(2, 2, Z2, (Z2,)), directions=v)),
    "torus_potential_trace.modes": ((1, 1), lambda v: spectra.torus_potential_trace(
        2 * math.pi, {(0,): v}, 4, 0.5)),
    "PotentialJet.constant.curvature": ((2, 2, 1, 1), lambda v: tc.PotentialJet.constant(
        2, 1, [[0.0]], curvature=v, cutoff=1)),
    "theta_quadrature.Q": ((2, 2), lambda v: ss.theta_quadrature(ss.build_symmetric_space("S2"),
                                                                 Q=v, t=0.01)),
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
    ("eigenstructure.directions", "x"),
    ("strong_ellipticity.directions", "x"),
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
    lambda: tc.PotentialJet.constant(-1, 1, [[0.0]]),
    lambda: tc.PotentialJet.constant(2.5, 1, [[0.0]]),
    lambda: tc.build_model_geometry("flat", 0),
    lambda: tc.build_model_geometry("flat", 2.0),
    lambda: tc.SymTensor(0, 0, 0, 1, np.zeros((1, 1, 1, 1))),
    lambda: tc.SymTensor(2.0, 0, 1, 1, np.zeros((1, 2, 1, 1))),
], ids=["symbol-m-negative", "symbol-m-float", "symbol-m-zero", "laplace-m-zero",
        "symbol-d-zero", "oblique-d-negative", "oblique-d-zero", "field-m-negative",
        "field-m-zero", "symmetric-p-zero", "potential-m-negative", "constant-m-negative",
        "constant-m-float", "geometry-m-zero", "geometry-m-float", "symtensor-m-zero",
        "symtensor-m-float"])
def test_bad_sizes_are_validation_errors(call):
    # the sizes reach numpy's reshape, where they were a bare ValueError or
    # TypeError; a zero size would pass a check of an empty array
    with pytest.raises(ValidationError, match="positive integers"):
        call()


def _sphere_jet():
    geom = tc.build_model_geometry("sphere", 2, cutoff=4, radius=1.0)
    pot = tc.PotentialJet.zero(2, cutoff=4)
    return geom, pot, hmds.build_operator_jet(geom, pot, 4)


def _coefficients():
    geom, _, jet = _sphere_jet()
    return geom, hmds.hmds_coefficients(jet, 1, 0)


ORDERS = "nonnegative integers"


@pytest.mark.parametrize("call,message", [
    (lambda: tc.PotentialJet.constant(2, 1, [[0.0]], cutoff=2.5), ORDERS),
    (lambda: tc.PotentialJet(2, 1, 1.0, np.zeros((3, 1, 1)), np.zeros((2, 2, 1, 1))), ORDERS),
    (lambda: hmds.build_operator_jet(*_sphere_jet()[:2], 2.5), ORDERS),
    (lambda: hmds.hmds_coefficients(_sphere_jet()[2], 1.5, 0), ORDERS),
    (lambda: hmds.hmds_coefficients(_sphere_jet()[2], 1, 0.5), ORDERS),
    (lambda: hmds.hmds_coefficients(_sphere_jet()[2], -1, 0), ORDERS),
    (lambda: tc.build_model_geometry("flat", 2, cutoff=2.0), ORDERS),
    (lambda: tc.build_model_geometry("flat", 2, cutoff=-1), ORDERS),
    (lambda: hmds.b_lambda(1.0, 0.5, _coefficients()[1]), ORDERS),
    (lambda: hmds.b_lambda(-1, 0.5, _coefficients()[1]), ORDERS),
    (lambda: hmds.trace_expansion(_coefficients()[0], []), "missing coefficient order 0"),
    (lambda: tc.SymTensor(2, 0, -1, 1, np.zeros((1, 0, 1, 1))), ORDERS),
], ids=["constant-cutoff-float", "potential-cutoff-float", "jet-cutoff-float",
        "recursion-kmax-float", "recursion-cutoff-float", "recursion-kmax-negative",
        "geometry-cutoff-float", "geometry-cutoff-negative", "b-lambda-k-float",
        "b-lambda-k-negative", "trace-no-coefficients", "symtensor-q-negative"])
def test_orders_are_nonnegative_integers(call, message):
    # a float order once reached math.comb (TypeError) or an offsets lookup
    # (IndexError), and an empty coefficient list max() (ValueError)
    with pytest.raises(ValidationError, match=message):
        call()


def test_numpy_integer_sizes_are_accepted():
    # the size checks read numpy integers as the ints they are
    geom = tc.build_model_geometry("flat", np.int64(2), cutoff=np.int64(2))
    assert (geom.m, geom.cutoff) == (2, 2) and type(geom.m) is int
    coeffs = _coefficients()[1]
    assert np.array_equal(hmds.b_lambda(np.int64(1), 0.5, coeffs).coeffs,
                          hmds.b_lambda(1, 0.5, coeffs).coeffs)
    s2 = ss.build_symmetric_space("S2")
    assert ss.theta_series(s2, order=np.int64(2)) == ss.theta_series(s2, order=2)
    assert ff.f_universal(5, np.int64(3)) == ff.f_universal(5, 3)
    assert type(ff.f_universal(5, np.int64(3)).denominator) is int
    bg = spectra.FourierBackground(np.int64(1), (1.0,), potential_modes={(1,): 0.1, (-1,): 0.1})
    assert ff.a2k2_coefficient(bg, np.int64(3)) == ff.a2k2_coefficient(bg, 3)
    assert ff.gamma_factor(np.int64(2), 3.0) == ff.gamma_factor(2, 3.0)
    assert ff.f_universal(np.int64(5), 3) == ff.f_universal(5, 3)
    assert np.array_equal(bg.wavevector((np.int64(1),)), bg.wavevector(1))
    assert quadrature.unit_directions(2, np.int64(6), np.int64(1)) is \
        quadrature.unit_directions(2, 6, 1)


@pytest.mark.parametrize("call,message", [
    (lambda: ss.theta_series(ss.build_symmetric_space("S2"), order=-1),
     r"theta_series order needs nonnegative integers, not \(-1,\)"),
    (lambda: ss.theta_series(ss.build_symmetric_space("S2"), order=2.0), "nonnegative integers"),
    (lambda: ff.f_universal(1, 1), r"order k needs integers >= 2, not \(1,\)"),
    (lambda: ff.f_universal(1, 3.0), "integers >= 2"),
], ids=["theta-order-negative", "theta-order-float", "f-universal-k-1", "f-universal-k-float"])
def test_integer_arguments_are_checked(call, message):
    # the order checks read through spectra._sizes, which words any least size
    with pytest.raises(ValidationError, match=message):
        call()


# the unit S^5: holonomy so(5), p = 10, spanned by the e_a wedge e_b
WEDGES = [np.outer(u, v) - np.outer(v, u)
          for i, u in enumerate(np.eye(5)) for v in np.eye(5)[i + 1:]]
P10 = ss.SymmetricSpaceData(m=5, p=10, E=WEDGES, beta=np.eye(10))
BUDGET = "pass BASIS_BUDGET = 1001"


@pytest.mark.parametrize("call,message", [
    (lambda: tc.build_model_geometry("flat", 9, cutoff=8),
     r"cutoff-8 geometry: N = comb\(19, 9\) monomials of degree <= 10 in m = 9"),
    (lambda: tc.build_model_geometry("flat", 10**9, cutoff=10**9), "cutoff-1000000000 geometry"),
    (lambda: tc.PotentialJet.constant(4, 1, [[0.0]], cutoff=10**4),
     r"PotentialJet: N = comb\(10004, 4\)"),
    # a cutoff-0 jet has N = 1 for every m, but its default curvature has m^2 blocks
    (lambda: tc.PotentialJet.constant(10**5, 1, [[0.0]], cutoff=0),
     r"PotentialJet curvature: N = comb\(100002, 100000\)"),
    (lambda: tc._Basis(9, 10), r"monomial basis: N = comb\(19, 9\)"),
    (lambda: ss.theta_series(P10, order=6), r"monomial basis: N = comb\(22, 10\)"),
], ids=["geometry-m9-cutoff8", "geometry-huge", "constant-cutoff-huge", "constant-m-huge",
        "basis-m9-deg10", "theta-series-p10"])
def test_basis_budget_is_a_resource_error(call, message):
    # each size is refused before anything is allocated, and without forming the
    # binomial: math.comb(2 * 10**9, 10**9) alone would take far longer than this bound
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=message) as info:
        call()
    assert time.perf_counter() - start < 0.5
    assert BUDGET in str(info.value) and "\n" not in str(info.value)


def test_constant_reads_q0_before_sizing_the_jet():
    # Q0 of the wrong size once reached np.zeros((28, 10**5, 10**5)), 4 TiB
    with pytest.raises(ValidationError, match="Q0 of shape"):
        tc.PotentialJet.constant(2, 10**5, [[0.0]])


GEOMETRIC_T = [(0.1 * 2.0 ** i, 1.0) for i in range(4)]


# one case per guard that no other test reaches
@pytest.mark.parametrize("call,message", [
    (lambda: spectra.fit_expansion([(-0.1, 1.0)] + GEOMETRIC_T, 2, (-1.0,)),
     "t must be positive and finite"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T + [(1.0, 1.0)], 2, (-1.0,)),
     "t-grid must be geometric"),
    (lambda: spectra.fit_expansion([(0.1, 1.0)], 2, ()), "need at least one exponent"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T[:2], 2, ()), "need at least one exponent"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T, 2, (math.nan,)), "exponent nan is not finite"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T, 2, ("x",)), "exponent 'x' is not a real number"),
    (lambda: spectra.fit_expansion([("a", 1.0)] + GEOMETRIC_T, 2, (-1.0,)),
     "samples is not an array of numbers"),
    (lambda: spectra.fit_expansion([(1.0,)] + GEOMETRIC_T, 2, (-1.0,)),
     "samples is not an array of numbers"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T, 2, (-1.0,), bootstrap=0),
     r"bootstrap needs integers >= 2, not \(0,\)"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T, 2, (-1.0,), bootstrap=1),
     r"bootstrap needs integers >= 2, not \(1,\)"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T, 2, (-1.0,), bootstrap=-1),
     r"bootstrap needs integers >= 2, not \(-1,\)"),
    (lambda: spectra.fit_expansion(GEOMETRIC_T, 2, (-1.0,), bootstrap=2.5),
     r"bootstrap needs integers >= 2, not \(2.5,\)"),
    (lambda: hmds.build_operator_jet(_sphere_jet()[0], tc.PotentialJet.zero(3, cutoff=4), 4),
     "geometry and potential dimensions differ"),
    (lambda: hmds.build_operator_jet(*_sphere_jet()[:2], 6),
     "input jets support order 4 < requested 6"),
    (lambda: hmds.build_operator_jet(dataclasses.replace(_sphere_jet()[0], radial_profile=(1.0,)),
                                     _sphere_jet()[1], 4), "radial profile too short"),
    (lambda: hmds.trace_expansion(dataclasses.replace(_coefficients()[0], kind="hyperbolic"),
                                  _coefficients()[1]), "needs a homogeneous model geometry"),
    (lambda: hmds.trace_expansion(_coefficients()[0], [hmds.HmdsCoefficient(
        0, 0, np.array([[[1j]]]), tc._basis(2, 0))]), "coefficient trace is not real"),
    (lambda: ff.f_profile(6, 0.5), "family index i must be in 1..5"),
    (lambda: ff.f_profile(1.0, 0.5), r"family index i needs integers, not \(1.0,\)"),
    (lambda: ff.f_profile(1, 1.5), "xi 1.5 is below 0 or above 1 or not finite"),
    (lambda: tc.build_model_geometry("torus", 2), "torus requires periods"),
    (lambda: tc.build_model_geometry("sphere", 4, cutoff=0, radius=1e100),
     "gives a non-finite volume"),
    (lambda: tc.sphere_volume(4, 1e100), "gives a non-finite volume"),
    (lambda: spectra.FourierBackground(1, (1.0,)).wavevector((1, 2)),
     r"wavevector mode \(1, 2\) has wrong dimension"),
    (lambda: tc.TaylorSeries(2, 1, 1, ()), r"component list length must be cutoff \+ 1"),
    (lambda: tc.TaylorSeries(2, 1, 0, (None,)), "component 0 has wrong type or order"),
    (lambda: zw.wedge_diagonal(0.1, -1.0, 0.5), "rho -1.0 is below 0 or not finite"),
    (lambda: ob.a1_abelian(ob.ObliqueBoundaryData(2, 2, Z2, (1j * np.diag([1.0, -1.0]),))),
     r"I \+ Gamma\^2 singular"),
    (lambda: zw.bc_residuals(-1.0), "t must be positive and finite"),
    (lambda: zw.bc_residuals(0.0), "t must be positive and finite"),
    (lambda: zw.bc_residuals(NAN), "t must be positive and finite"),
    (lambda: zw.bc_residuals(0.1, [(NAN, zw.WedgePoint(1.0, 0.1))]), "sample rho nan"),
    (lambda: zw.bc_residuals(0.1, [(math.inf, zw.WedgePoint(1.0, 0.1))]), "sample rho inf"),
    (lambda: zw.bc_residuals(0.1, [(1.0, zw.WedgePoint(0.0, 0.1))]), "sample source rho 0.0"),
    (lambda: zw.bc_residuals(0.1, [1, 2]), r"sample 1 is not a \(rho, WedgePoint\) pair"),
    (lambda: zw.bc_residuals(0.1, [(1e300, zw.WedgePoint(1e300, 0.1))]),
     r"boundary residual at sample .* is not finite"),
    (lambda: spectra.interval_trace(1.0, 5, 0.1), "unknown interval boundary condition '5'"),
], ids=["fit-t-negative", "fit-t-not-geometric", "fit-one-sample-no-exponents",
        "fit-no-exponents", "fit-nan-exponent", "fit-exponent-not-number", "fit-t-not-number",
        "fit-sample-not-pair", "fit-bootstrap-0", "fit-bootstrap-1", "fit-bootstrap-negative",
        "fit-bootstrap-float", "jet-dimensions-differ", "jet-too-short",
        "jet-profile-too-short", "trace-not-homogeneous", "trace-not-real", "f-profile-i",
        "f-profile-i-float", "f-profile-xi", "torus-no-periods", "sphere-volume-overflow",
        "sphere-volume-direct-overflow", "wavevector-dimension", "taylor-length",
        "taylor-component", "wedge-rho-negative", "a1-abelian-singular", "bc-t-negative",
        "bc-t-zero", "bc-t-nan", "bc-rho-nan", "bc-rho-inf", "bc-source-corner",
        "bc-sample-not-pair", "bc-residual-not-finite", "interval-bc-not-text"])
def test_guards_raise_their_message(call, message):
    with pytest.raises(HeatkernError, match=message):
        call()


@pytest.mark.parametrize("rho,theta,message", [
    (math.nan, 0.5, "rho nan is below 0 or not finite"),
    (math.inf, 0.5, "rho inf is below 0 or not finite"),
    (1.0, math.nan, "theta nan is below -1.5708 or above 1.5708 or not finite"),
    (1.0, 5.0, "theta 5.0 is below -1.5708 or above 1.5708 or not finite"),
], ids=["rho-nan", "rho-inf", "theta-nan", "theta-outside"])
def test_wedge_diagonal_refuses_points_outside_the_wedge(rho, theta, message):
    # wedge_diagonal once returned nan for a NaN coordinate, 0.4399 at theta = 5.0 and
    # 0.7958 at rho = inf; it runs the one check WedgePoint runs
    with pytest.raises(ValidationError, match=message):
        zw.wedge_diagonal(0.1, rho, theta)
    with pytest.raises(ValidationError, match=message):
        zw.WedgePoint(rho, theta)


@pytest.mark.parametrize("modes", [{(1.5,): 1.0, (-1.5,): 1.0}, {("x",): 1.0}])
def test_mode_keys_are_integers(modes):
    # int() once read 1.5 as the mode 1, and "x" ended in its bare ValueError
    key = re.escape(repr(next(iter(modes))))
    with pytest.raises(ValidationError, match=f"potential mode {key} needs integers, not {key}"):
        spectra.FourierBackground(1, (1.0,), potential_modes=modes)


def test_unit_directions_need_a_dimension():
    # at p = 0 every normal draw has norm 0, so the sampler would never finish; a
    # float or a list p is refused before it reaches the sample cache's key
    for p in (0, 2.5, [3]):
        with pytest.raises(ValidationError, match="p >= 1"):
            quadrature.unit_directions(p, 24, 1)


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


TWO_PI = 2 * math.pi
CIRCLE = {"length": TWO_PI, "n": 2, "q": 0.4, "d": 1}
ENTRIES = [[[[0.5]], [[0.25]]]]                 # the entries of a SymTensor(2, 0, 1, 1)
CURVATURE = np.zeros((1, 1, 1, 1))              # the curvature of a PotentialJet(1, 1, ...)
_sum = lambda a: float(np.sum(a).real)
CIRCLE_BACKGROUND = spectra.FourierBackground.circle_cosine(TWO_PI, 2, 0.4)
FIT_SAMPLES = [(0.1 * 2.0 ** i, 0.5 / (0.1 * 2.0 ** i) + 2.0 + 0.01 * (-1) ** i) for i in range(6)]
W1, W2 = zw.WedgePoint(1.0, 0.1), zw.WedgePoint(0.8, -0.3)
AREAS = ("interior_volume", "dirichlet_area", "neumann_area", "corner_volume")

# name -> (the call with the value v in one scalar argument, a valid value, a value
# outside the argument's range or None, the name its ValidationError gives)
SCALARS = {
    "interval_trace.L": (lambda v: spectra.interval_trace(v, "DD", 0.1), 2.0, 1e-300,
                         "interval length"),
    "interval_trace.S": (lambda v: spectra.interval_trace(1.0, "robin", 0.1, S=v), 0.7, 1e101,
                         "robin constant S"),
    "sphere_trace.a": (lambda v: spectra.sphere_trace(2, v, 0.1), 1.3, 0.0, "sphere radius"),
    "landau_trace_density.B": (lambda v: spectra.landau_trace_density(v, 0.3), 1.5, 0.0,
                               "landau field B"),
    "torus_potential_trace.periods": (
        lambda v: spectra.torus_potential_trace((v,), {(1,): 0.2, (-1,): 0.2}, 8, 0.5), 2.0,
        -1.0, "period"),
    "torus_potential_trace.cutoff": (
        lambda v: spectra.torus_potential_trace((TWO_PI,), {(1,): 0.2, (-1,): 0.2}, v, 0.5), 8,
        0, "Fourier cutoff"),
    "circle_cosine.q": (lambda v: spectra.torus_potential_trace(
        TWO_PI, spectra.FourierBackground.circle_cosine(TWO_PI, 2, v).potential_modes, 8, 0.5),
        0.4, None, "amplitude q"),
    "build_model_geometry.radius": (lambda v: tc.build_model_geometry(
        "sphere", 2, cutoff=2, radius=v).radial_profile[1], 1.3, 1e-101, "sphere radius"),
    "build_model_geometry.volume": (lambda v: tc.build_model_geometry(
        "flat", 2, cutoff=2, volume=v).volume, 2.5, 0.0, "volume"),
    "build_symmetric_space.radius": (lambda v: ss.build_symmetric_space("S2", v).R, 1.3, -1.0,
                                     "sphere radius"),
    "gamma_factor.z": (lambda v: ff.gamma_factor(2, v), 3.0, None, "gamma argument z"),
    "f_profile.xi": (lambda v: ff.f_profile(5, v), 0.3, 1.5, "xi"),
    "b_lambda.lam": (lambda v: float(hmds.b_lambda(1, v, _coefficients()[1]).coeffs[0, 0, 0]),
                     0.5, None, "lam"),
    "HeatTraceExpansion.exponent": (
        lambda v: hmds.HeatTraceExpansion(2, ((v, 2.0),)).evaluate(0.3), -1.0, None,
        "terms exponent"),
    "HeatTraceExpansion.coefficient": (
        lambda v: hmds.HeatTraceExpansion(2, ((-1.0, v), (0.0, 1.0))).evaluate(0.3), 2.0, None,
        "terms coefficient"),
    "a0_coefficient.vol": (lambda v: nl.a0_coefficient(nl.eigenstructure(nl.laplace_symbol(2)),
                                                       2, v), 2.5, 0.0, "vol"),
    "a2_potential_part.vol": (lambda v: nl.a2_potential_part(np.eye(2), np.eye(2), v), 3.0, -1.0,
                              "vol"),
    "torus_oracle.cutoff": (lambda v: nl.torus_oracle(nl.laplace_symbol(1), t=0.5, cutoff=v), 8,
                            0, "lattice cutoff"),
    "smooth_boundary_constants.K": (lambda v: ob.smooth_boundary_constants("neumann", 3, 2, K=v)[2],
                                    1.5, None, "K"),
    "WedgePoint.rho": (lambda v: zw.WedgePoint(v, 0.1).r, 1.2, -1.0, "rho"),
    "WedgePoint.theta": (lambda v: zw.WedgePoint(1.2, v).y, 0.1, 2.0, "theta"),
    "WedgePoint.xhat": (lambda v: zw.wedge_kernel(0.1, zw.WedgePoint(1.0, 0.1, (v,)),
                                                  zw.WedgePoint(1.0, 0.2, (0.3,))), 0.5, None,
                        "xhat"),
    "wedge_diagonal.rho": (lambda v: zw.wedge_diagonal(0.1, v, 0.3), 0.4, -1.0, "rho"),
    "wedge_diagonal.theta": (lambda v: zw.wedge_diagonal(0.1, 0.4, v), 0.3, -2.0, "theta"),
    "bessel_oracle.terms": (lambda v: zw.bessel_oracle(0.1, W1, W2, terms=v).value, 40, 0,
                            "Bessel terms"),
    "bessel_oracle.tol": (lambda v: zw.bessel_oracle(0.1, W1, W2, tol=v).value, 1e-10, 0.0,
                          "tol"),
    "bc_residuals.t": (lambda v: sum(zw.bc_residuals(v)), 0.1, 0.0, "t"),
    "bc_residuals.samples": (lambda v: sum(zw.bc_residuals(0.1, [(v, zw.WedgePoint(1.3, -1.2))])),
                             1.1, 0.0, "sample rho"),
    "corner_coefficient.m": (lambda v: zw.corner_coefficient(v), 3, 0, "(m, dimV)"),
    "corner_coefficient.dimV": (lambda v: zw.corner_coefficient(3, v), 2, 0, "(m, dimV)"),
    **{f"wedge_trace_expansion.{area}": (
        lambda v, i=i: zw.wedge_trace_expansion(3, 2, *(v if j == i else 1.5 for j in range(4)))
        .evaluate(0.2), 2.0, -1.0, area) for i, area in enumerate(AREAS)},
    # integer sizes, orders and mode numbers, each read by spectra._sizes (the sizes
    # that are an array's shape by spectra._array), and the scalars beside them
    "sphere_trace.m": (lambda v: spectra.sphere_trace(v, 1.3, 0.1), 3, 4, "sphere spectra"),
    "FourierBackground.m": (lambda v: spectra.FourierBackground(v, (2.0,)).volume, 1, 0,
                            "FourierBackground (m, d)"),
    "FourierBackground.d": (lambda v: spectra.FourierBackground(1, (2.0,), d=v).volume, 1, 0,
                            "FourierBackground (m, d)"),
    "FourierBackground.periods": (lambda v: spectra.FourierBackground(1, (v,)).volume, 2.0, -1.0,
                                  "period"),
    **{f"circle_cosine.{name}": (lambda v, name=name, valid=valid: ff.h_functional(
        spectra.FourierBackground.circle_cosine(**{**CIRCLE, name: v}), 0.5), valid, outside, what)
       for name, valid, outside, what in (("length", TWO_PI, -1.0, "period"),
                                          ("n", 2, None, "circle_cosine mode n"),
                                          ("d", 2, 0, "circle_cosine d"))},
    "fit_expansion.exponents": (lambda v: float(spectra.fit_expansion(
        FIT_SAMPLES, 2, (v, 0.0)).coefficients[0]), -1.0, None, "exponent"),
    "fit_expansion.bootstrap": (lambda v: float(spectra.fit_expansion(
        FIT_SAMPLES, 2, (-1.0, 0.0), bootstrap=v).errors[1]), 50, 1, "bootstrap"),
    "f_universal.k": (lambda v: float(ff.f_universal(5, v)), 3, 1, "order k"),
    "a2k2_coefficient.k": (lambda v: ff.a2k2_coefficient(
        spectra.FourierBackground.circle_cosine(**CIRCLE), v), 3, 1, "order k"),
    "build_operator_jet.cutoff": (lambda v: float(hmds.hmds_coefficients(
        hmds.build_operator_jet(*_sphere_jet()[:2], v), 1, 0)[1].diagonal.real[0, 0]), 2, -1,
        "operator jet cutoff"),
    "hmds_coefficients.kmax": (lambda v: float(
        hmds.hmds_coefficients(_sphere_jet()[2], v, 0)[-1].diagonal.real[0, 0]), 2, -1,
        "hmds_coefficients (kmax, cutoff)"),
    "hmds_coefficients.cutoff": (lambda v: float(
        hmds.hmds_coefficients(_sphere_jet()[2], 1, v)[-1].coeffs.real.sum()), 2, -1,
        "hmds_coefficients (kmax, cutoff)"),
    "b_lambda.k": (lambda v: float(hmds.b_lambda(v, 0.5, _coefficients()[1]).coeffs[0, 0, 0]), 1,
                   -1, "b_lambda order k"),
    "HeatTraceExpansion.coefficient.exponent": (lambda v: hmds.HeatTraceExpansion(
        2, ((-1.0, 2.0), (0.0, 1.5))).coefficient(v), 0.0, None, "exponent"),
    "LeadingSymbol.m": (lambda v: float(nl.LeadingSymbol(v, 1, np.eye(2).reshape(2, 2, 1, 1))
                                        .a.real.sum()), 2, 0, "a needs a shape"),
    "LeadingSymbol.d": (lambda v: float(nl.LeadingSymbol(1, v, np.eye(2).reshape(1, 1, 2, 2))
                                        .a.real.sum()), 2, 0, "a needs a shape"),
    "laplace_symbol.m": (lambda v: nl.a0_coefficient(nl.eigenstructure(nl.laplace_symbol(v, 2)),
                                                     2, 1.0), 2, 0, "laplace_symbol (m, d)"),
    "laplace_symbol.d": (lambda v: nl.a0_coefficient(nl.eigenstructure(nl.laplace_symbol(2, v)),
                                                     2, 1.0), 2, 0, "laplace_symbol (m, d)"),
    "one_form_symbol.m": (lambda v: nl.a0_coefficient(nl.eigenstructure(nl.one_form_symbol(v, 0.5)),
                                                      2, 1.0), 2, 0, "one_form_symbol m"),
    "one_form_symbol.c": (lambda v: nl.a0_coefficient(nl.eigenstructure(nl.one_form_symbol(2, v)),
                                                      2, 1.0), 0.5, None, "one_form_symbol c"),
    "a0_coefficient.m": (lambda v: nl.a0_coefficient(nl.eigenstructure(nl.laplace_symbol(2)), v,
                                                     2.5), 3, 0, "a0_coefficient m"),
    "u0_trace.m": (lambda v: nl.u0_trace(nl.eigenstructure(nl.one_form_symbol(3, 0.4)), v, 0.1), 3,
                   0, "u0_trace m"),
    "torus_oracle.periods": (lambda v: nl.torus_oracle(nl.laplace_symbol(1), t=0.5, periods=(v,)),
                             1.3, -1.0, "period"),
    "ObliqueBoundaryData.m": (lambda v: float(np.trace(ob.a1_abelian(
        ob.ObliqueBoundaryData(v, 2, Z2, (Z2,))).real)), 2, 1, "boundary problem m"),
    "ObliqueBoundaryData.d": (lambda v: float(np.trace(ob.a1_abelian(
        ob.ObliqueBoundaryData(2, v, Z2, (Z2,))).real)), 2, 0, "Pi needs a shape"),
    "smooth_boundary_constants.m": (lambda v: ob.smooth_boundary_constants("neumann", v, 2)[1], 3,
                                    0, "(m, dimV)"),
    "smooth_boundary_constants.dimV": (lambda v: ob.smooth_boundary_constants("neumann", 3, v)[1],
                                       2, 0, "(m, dimV)"),
    "ConstantFieldStrength.m": (lambda v: ss.nilpotent_trace_density(
        ss.ConstantFieldStrength(v, EPS), 0.3), 2, 0, "field strength needs a shape"),
    "SymmetricSpaceData.m": (lambda v: ss.SymmetricSpaceData(m=v, p=1, E=EPS[None], beta=[[1.0]]).R,
                             2, 0, "SymmetricSpaceData (m, p)"),
    "SymmetricSpaceData.p": (lambda v: ss.SymmetricSpaceData(m=2, p=v, E=EPS[None], beta=[[1.0]]).R,
                             1, 0, "SymmetricSpaceData (m, p)"),
    "theta_series.order": (lambda v: ss.theta_series(ss.build_symmetric_space("S2"), order=v)[-1],
                           2, -1, "theta_series order"),
    "SymTensor.m": (lambda v: _sum(tc.SymTensor(v, 0, 1, 1, ENTRIES).entries), 2, 0,
                    "SymTensor (m, d)"),
    "SymTensor.p": (lambda v: _sum(tc.SymTensor(2, v, 1, 1, ENTRIES).entries), 0, -1,
                    "SymTensor (p, q)"),
    "SymTensor.q": (lambda v: _sum(tc.SymTensor(2, 0, v, 1, ENTRIES).entries), 1, -1,
                    "SymTensor (p, q)"),
    "SymTensor.d": (lambda v: _sum(tc.SymTensor(2, 0, 1, v, ENTRIES).entries), 1, 0,
                    "SymTensor (m, d)"),
    "TaylorSeries.cutoff": (lambda v: float(tc.TaylorSeries(2, 1, v, (
        tc.SymTensor(2, 0, 0, 1, [[[[0.5]]]]),)).component(0).entries.real[0, 0, 0, 0]), 0, -1,
        "TaylorSeries cutoff"),
    "build_model_geometry.m": (lambda v: tc.build_model_geometry("sphere", v, cutoff=2,
                                                                 radius=1.3).volume, 2, 0,
                               "geometry dimension m"),
    "build_model_geometry.cutoff": (lambda v: tc.build_model_geometry(
        "sphere", 2, cutoff=v, radius=1.3).radial_profile[-1], 2, -1, "geometry cutoff"),
    "build_model_geometry.periods": (lambda v: tc.build_model_geometry(
        "torus", 2, cutoff=2, periods=(v, 1.5)).volume, 2.0, -1.0, "period"),
    "PotentialJet.m": (lambda v: _sum(tc.PotentialJet(v, 1, 0, [[[0.3]]], CURVATURE).Q), 1, 0,
                       "PotentialJet (m, d)"),
    "PotentialJet.d": (lambda v: _sum(tc.PotentialJet(1, v, 0, [[[0.3]]], CURVATURE).Q), 1, 0,
                       "PotentialJet (m, d)"),
    "PotentialJet.cutoff": (lambda v: _sum(tc.PotentialJet(1, 1, v, [[[0.3]]], CURVATURE).Q), 0,
                            -1, "PotentialJet cutoff"),
    "PotentialJet.constant.m": (lambda v: _sum(tc.PotentialJet.constant(v, 1, [[0.3]], cutoff=1).Q),
                                2, 0, "PotentialJet"),
    "PotentialJet.constant.d": (lambda v: _sum(tc.PotentialJet.constant(2, v, [[0.3]], cutoff=1).Q),
                                1, 0, "PotentialJet"),
    "PotentialJet.constant.cutoff": (lambda v: _sum(tc.PotentialJet.constant(2, 1, [[0.3]],
                                                                             cutoff=v).Q), 1, -1,
                                     "PotentialJet cutoff"),
    "wedge_diagonal.m": (lambda v: zw.wedge_diagonal(0.1, 0.4, 0.3, m=v), 3, 0, "wedge_diagonal m"),
    "wedge_trace_expansion.m": (lambda v: zw.wedge_trace_expansion(v, 2, 1.5, 1.5, 1.5, 1.5)
                                .evaluate(0.2), 3, 0, "(m, dimV)"),
    "wedge_trace_expansion.dimV": (lambda v: zw.wedge_trace_expansion(3, v, 1.5, 1.5, 1.5, 1.5)
                                   .evaluate(0.2), 2, 0, "(m, dimV)"),
    # once exempt as a method, an object, a closed form or a family index: each is read
    # by spectra._sizes or spectra._number, or by a check of its own
    "FourierBackground.wavevector.n": (lambda v: float(spectra.FourierBackground(1, (2.0,))
                                                       .wavevector(v)[0]), 1, None,
                                       "wavevector mode"),
    "sphere_volume.m": (lambda v: tc.sphere_volume(v, 1.3), 3, 0, "sphere_volume m"),
    "sphere_volume.radius": (lambda v: tc.sphere_volume(2, v), 1.3, -1.0, "sphere radius"),
    "unit_directions.p": (lambda v: float(quadrature.unit_directions(v, 6, 1)[-1].sum()), 2, 0,
                          "dimension p"),
    "unit_directions.count": (lambda v: float(quadrature.unit_directions(2, v, 1)[-1, 0]), 6, -1,
                              "count"),
    "unit_directions.seed": (lambda v: float(quadrature.unit_directions(2, 6, v)[-1, 0]), 1, -1,
                             "seed"),
    "h_functional.bg": (lambda v: ff.h_functional(v, 0.5), CIRCLE_BACKGROUND, None,
                        "h_functional needs a FourierBackground"),
    "a2k2_coefficient.bg": (lambda v: ff.a2k2_coefficient(v, 3), CIRCLE_BACKGROUND, None,
                            "a2k2_coefficient needs a FourierBackground"),
    "fit_expansion.m": (lambda v: float(spectra.fit_expansion(
        FIT_SAMPLES, v, (-1.0, 0.0)).coefficients[0]), 2, 0, "fit_expansion m"),
    "f_universal.i": (lambda v: float(ff.f_universal(v, 3)), 5, 6, "family index i"),
    "f_profile.i": (lambda v: ff.f_profile(v, 0.3), 5, 0, "family index i"),
    "gamma_factor.i": (lambda v: ff.gamma_factor(v, 3.0), 2, 6, "family index i"),
}

# each valid call's value, pinned bit for bit as it was before these reads went
# through spectra._number, and (the entries after wedge_trace_expansion's areas)
# before spectra._number refused strings and spectra._sizes returned its ints
SCALAR_BITS = {
    "HeatTraceExpansion.coefficient": "0x1.eaaaaaaaaaaabp+2",
    "HeatTraceExpansion.exponent": "0x1.aaaaaaaaaaaabp+2",
    "WedgePoint.rho": "0x1.31aa4fc31a7dap+0",
    "WedgePoint.theta": "0x1.eab3827748d68p-4",
    "WedgePoint.xhat": "0x1.40bf019e8958dp-1",
    "a0_coefficient.vol": "0x1.976fc893c3aa4p-3",
    "a2_potential_part.vol": "0x1.8000000000000p+2",
    "b_lambda.lam": "-0x1.aaaaaaaaaaaaap-1",
    "bc_residuals.samples": "0x1.86a000000ffffp-36",
    "bc_residuals.t": "0x1.86a1fffffffffp-39",
    "bessel_oracle.terms": "0x1.0cdc7dc4ad3ebp-1",
    "bessel_oracle.tol": "0x1.0cdc7dc4ad3ebp-1",
    "build_model_geometry.radius": "-0x1.93f1dca7a317bp-3",
    "build_model_geometry.volume": "0x1.4000000000000p+1",
    "build_symmetric_space.radius": "0x1.2ef5657dba51cp+0",
    "circle_cosine.q": "0x1.432da0c80a327p+1",
    "corner_coefficient.dimV": "-0x1.20dd750429b6dp-5",
    "corner_coefficient.m": "-0x1.20dd750429b6dp-6",
    "f_profile.xi": "0x1.a27525460aa65p-5",
    "gamma_factor.z": "0x1.01aa5d93c504fp-3",
    "interval_trace.L": "0x1.48bc5baae18d0p+0",
    "interval_trace.S": "0x1.b3533533cf2f6p+0",
    "landau_trace_density.B": "0x1.06ab4e03365b1p-2",
    "smooth_boundary_constants.K": "0x1.6fcb5f827b97fp-6",
    "sphere_trace.a": "0x1.13cc1374010cdp+4",
    "torus_oracle.cutoff": "0x1.00000016fb054p+0",
    "torus_potential_trace.cutoff": "0x1.43cf2ba8a19d5p+1",
    "torus_potential_trace.periods": "0x1.04b7573023ccep+0",
    "wedge_diagonal.rho": "0x1.53510758fdf39p-1",
    "wedge_diagonal.theta": "0x1.53510758fdf39p-1",
    "wedge_trace_expansion.corner_volume": "0x1.30c419584bb9cp-1",
    "wedge_trace_expansion.dirichlet_area": "0x1.120580605fac1p-1",
    "wedge_trace_expansion.interior_volume": "0x1.c574020901e97p-1",
    "wedge_trace_expansion.neumann_area": "0x1.77e172855096bp-1",
    "ConstantFieldStrength.m": "0x1.0b97aab0222e3p-2",
    "FourierBackground.d": "0x1.0000000000000p+1",
    "FourierBackground.m": "0x1.0000000000000p+1",
    "FourierBackground.periods": "0x1.0000000000000p+1",
    "HeatTraceExpansion.coefficient.exponent": "0x1.8000000000000p+0",
    "LeadingSymbol.d": "0x1.0000000000000p+1",
    "LeadingSymbol.m": "0x1.0000000000000p+1",
    "ObliqueBoundaryData.d": "0x1.20dd750429b6dp-3",
    "ObliqueBoundaryData.m": "0x1.20dd750429b6dp-3",
    "PotentialJet.constant.cutoff": "0x1.3333333333333p-2",
    "PotentialJet.constant.d": "0x1.3333333333333p-2",
    "PotentialJet.constant.m": "0x1.3333333333333p-2",
    "PotentialJet.cutoff": "0x1.3333333333333p-2",
    "PotentialJet.d": "0x1.3333333333333p-2",
    "PotentialJet.m": "0x1.3333333333333p-2",
    "SymTensor.d": "0x1.8000000000000p-1",
    "SymTensor.m": "0x1.8000000000000p-1",
    "SymTensor.p": "0x1.8000000000000p-1",
    "SymTensor.q": "0x1.8000000000000p-1",
    "SymmetricSpaceData.m": "0x1.0000000000000p+1",
    "SymmetricSpaceData.p": "0x1.0000000000000p+1",
    "TaylorSeries.cutoff": "0x1.0000000000000p-1",
    "a0_coefficient.m": "0x1.cbbe37631a7dfp-5",
    "a2k2_coefficient.k": "-0x1.8332cdbe8e79dp-5",
    "b_lambda.k": "-0x1.aaaaaaaaaaaaap-1",
    "build_model_geometry.cutoff": "0x1.fde91a93fdd83p-7",
    "build_model_geometry.m": "0x1.53cb6eee291a0p+4",
    "build_model_geometry.periods": "0x1.8000000000000p+1",
    "build_operator_jet.cutoff": "-0x1.5555555555555p-2",
    "circle_cosine.d": "0x1.a4f31bff5b035p-4",
    "circle_cosine.length": "0x1.a4f31bff5b035p-5",
    "circle_cosine.n": "0x1.a4f31bff5b035p-5",
    "f_universal.k": "0x1.2492492492492p-5",
    "fit_expansion.bootstrap": "0x1.2fcfc185637e5p-8",
    "fit_expansion.exponents": "0x1.006f38c00d9c5p-1",
    "hmds_coefficients.cutoff": "-0x1.60b60b60b60b5p-2",
    "hmds_coefficients.kmax": "0x1.1111111111110p-3",
    "laplace_symbol.d": "0x1.45f306dc9c883p-3",
    "laplace_symbol.m": "0x1.45f306dc9c883p-3",
    "one_form_symbol.c": "0x1.0f9fdb0d2d1c2p-3",
    "one_form_symbol.m": "0x1.0f9fdb0d2d1c2p-3",
    "smooth_boundary_constants.dimV": "0x1.45f306dc9c883p-5",
    "smooth_boundary_constants.m": "0x1.45f306dc9c883p-5",
    "sphere_trace.m": "0x1.054bcb9dd3db3p+5",
    "theta_series.order": "0x1.1111111111111p-4",
    "torus_oracle.periods": "0x1.00011bea326cep+0",
    "u0_trace.m": "0x1.d92a5c545126bp+0",
    "wedge_diagonal.m": "0x1.2eb0ff0c1b0a7p-1",
    "wedge_trace_expansion.dimV": "0x1.44f37972d8216p-1",
    "wedge_trace_expansion.m": "0x1.44f37972d8216p-1",
    # the parameters once exempt, as each was before its reader (wavevector at (1,))
    "FourierBackground.wavevector.n": "0x1.921fb54442d18p+1",
    "a2k2_coefficient.bg": "-0x1.8332cdbe8e79dp-5",
    "f_profile.i": "0x1.a27525460aa65p-5",
    "f_universal.i": "0x1.2492492492492p-5",
    "fit_expansion.m": "0x1.006f38c00d9c5p-1",
    "gamma_factor.i": "0x1.01aa5d93c504fp-3",
    "h_functional.bg": "0x1.a4f31bff5b035p-5",
    "sphere_volume.m": "0x1.5aefb3943519dp+5",
    "sphere_volume.radius": "0x1.53cb6eee291a0p+4",
    "unit_directions.count": "0x1.f75fb7baf421cp-3",
    "unit_directions.p": "-0x1.727340e38d273p-1",
    "unit_directions.seed": "0x1.f75fb7baf421cp-3",
}
# a numeric string and a Decimal are not real numbers: neither reaches arithmetic
NOT_NUMBERS = ["x", None, 1j, NAN, math.inf, -math.inf, "1.0", Decimal("1")]


# None is the default volume of a flat geometry
@pytest.mark.parametrize("name,value", [
    (name, v) for name, (_, valid, outside, _) in SCALARS.items()
    for v in NOT_NUMBERS + [outside] * (outside is not None) + [2.5] * (type(valid) is int)
    if not (v is None and name == "build_model_geometry.volume")])
def test_scalar_inputs_raise_validation_error(name, value):
    # at their old per-site checks, or with none, some of these ended in a bare
    # TypeError, ValueError, AttributeError or ZeroDivisionError, or let NaN through
    call, _, _, what = SCALARS[name]
    with pytest.raises(ValidationError, match=re.escape(what)):
        call(value)


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_valid_scalar_inputs_keep_their_values(name):
    call, valid, _, _ = SCALARS[name]
    assert float.hex(call(valid)) == SCALAR_BITS[name]


@pytest.mark.parametrize("name", sorted(SCALARS))
@pytest.mark.parametrize("value", [True, "0-d"])
def test_bool_and_0d_array_return_or_raise_heatkern_error(name, value):
    # a bool is an int, so it may be read as 0 or 1; a 0-d array is not a number
    call, valid, _, _ = SCALARS[name]
    try:
        call(np.array(valid) if value == "0-d" else value)
    except HeatkernError:
        pass


SPEC = nl.eigenstructure(nl.laplace_symbol(2))


# each once ended in a bare TypeError (h_functional's an AttributeError): a string, a
# Decimal, a 0-d array or a size that no reader read reached arithmetic as it came
@pytest.mark.parametrize("call,what", [
    (lambda: spectra.interval_trace("2.0", "DD", 0.1), "interval length"),
    (lambda: spectra.interval_trace(Decimal("2"), "DD", 0.1), "interval length"),
    (lambda: spectra.sphere_trace(2, "1.0", 0.1), "sphere radius"),
    (lambda: hmds.b_lambda(1, "0.5", _coefficients()[1]), "lam"),
    (lambda: hmds.b_lambda(1, Decimal("0.5"), _coefficients()[1]), "lam"),
    (lambda: hmds.HeatTraceExpansion(2, ((-1.0, "1.0"),)), "terms coefficient"),
    (lambda: ob.smooth_boundary_constants("dirichlet", "a", 1), "(m, dimV)"),
    (lambda: ob.smooth_boundary_constants("dirichlet", 2, "a"), "(m, dimV)"),
    (lambda: zw.wedge_diagonal(0.1, 0.5, 0.1, m="a"), "wedge_diagonal m"),
    (lambda: nl.u0_trace(SPEC, "a", 0.1), "u0_trace m"),
    (lambda: nl.a0_coefficient(SPEC, "a", 1.0), "a0_coefficient m"),
    (lambda: nl.laplace_symbol("a"), "laplace_symbol (m, d)"),
    (lambda: nl.one_form_symbol(2, "a"), "one_form_symbol c"),
    (lambda: nl.one_form_symbol(2.0, 0.1), "one_form_symbol m"),
    (lambda: zw.wedge_trace_expansion("a", 1, 1.0, 1.0, 1.0), "(m, dimV)"),
    (lambda: zw.wedge_trace_expansion(1, "a", 1.0, 1.0, 1.0), "(m, dimV)"),
    (lambda: spectra.FourierBackground.circle_cosine(1.0, "a", 0.1), "circle_cosine mode n"),
    (lambda: spectra.FourierBackground.circle_cosine(1.0, 1, 0.1, d="a"), "circle_cosine d"),
    (lambda: ob.ObliqueBoundaryData(m="a", d=2, Pi=Z2, Gamma=(Z2,)), "boundary problem m"),
    (lambda: spectra.FourierBackground(1, (1.0,)).wavevector("x"), "wavevector mode 'x'"),
    (lambda: tc.sphere_volume("a", 1.0), "sphere_volume m"),
    (lambda: quadrature.unit_directions(2, "x", 1), "unit directions need a count"),
    (lambda: ff.h_functional("x", 0.1), "h_functional needs a FourierBackground, not str"),
    (lambda: ff.gamma_factor(np.array(2), 0.5), "family index i"),
    (lambda: ff.f_profile(np.array(1), 0.5), "family index i"),
], ids=["interval-L-text", "interval-L-decimal", "sphere-a-text", "b-lambda-text",
        "b-lambda-decimal", "expansion-coefficient-text", "boundary-m", "boundary-dimV",
        "wedge-diagonal-m", "u0-m", "a0-m", "laplace-m", "one-form-c", "one-form-m-float",
        "wedge-expansion-m", "wedge-expansion-dimV", "circle-cosine-n", "circle-cosine-d",
        "oblique-m", "wavevector-n", "sphere-volume-m", "unit-directions-count", "h-functional-bg",
        "gamma-factor-i-0d", "f-profile-i-0d"])
def test_probe_calls_name_their_argument(call, what):
    with pytest.raises(ValidationError, match=re.escape(what)):
        call()


@pytest.mark.parametrize("call", [
    lambda t: zw.wedge_kernel(t, W1, W2),
    lambda t: zw.wedge_diagonal(t, 0.5, 0.1),
    lambda t: zw.bc_residuals(t),
    lambda t: nl.u0_trace(nl.eigenstructure(nl.one_form_symbol(3, 0.4)), 3, t),
    lambda t: ss.theta_quadrature(ss.build_symmetric_space("S2"), t=t),
], ids=["wedge_kernel", "wedge_diagonal", "bc_residuals", "u0_trace", "theta_quadrature"])
def test_gaussian_prefactor_overflow_is_a_numeric_error(call):
    # (4 pi t)^{-m/2}, a Python float power, once raised a bare OverflowError below
    # t = 1e-308; every t that it does not overflow at keeps its bits
    with pytest.raises(NumericError, match=r"^\(4 pi t\)\^\(-m/2\) overflows at t=1e-310$"):
        call(1e-310)


def _jet():
    geom = tc.build_model_geometry("flat", 2, cutoff=2)
    return hmds.build_operator_jet(geom, tc.PotentialJet.constant(2, 1, [[0.3]], cutoff=2), 2)


# every frozen dataclass that holds arrays, each made twice with equal contents
ARRAY_HOLDERS = {
    tc.SymTensor: lambda: tc.SymTensor(2, 0, 1, 1, np.ones((1, 2, 1, 1))),
    tc.PotentialJet: lambda: tc.PotentialJet.constant(2, 2, Z2, cutoff=1),
    hmds.OperatorJet: _jet,
    hmds.HmdsCoefficient: lambda: hmds.hmds_coefficients(_jet(), kmax=1, cutoff=0)[1],
    spectra.FourierBackground: lambda: spectra.FourierBackground(
        1, (1.0,), d=2, potential_modes={(1,): EPS, (-1,): EPS.T}),
    spectra.FitResult: lambda: spectra.FitResult((0.0,), np.ones(2), np.zeros(2), 1.0),
    ss.ConstantFieldStrength: lambda: ss.ConstantFieldStrength(m=2, rhat=EPS),
    ss.SymmetricSpaceData: lambda: ss.build_symmetric_space("S2"),
    nl.LeadingSymbol: lambda: nl.laplace_symbol(2),
    ob.ObliqueBoundaryData: lambda: ob.ObliqueBoundaryData(m=2, d=2, Pi=Z2, Gamma=(0.3j * np.diag([1.0, -1.0]),)),
    ob.EllipticityVerdict: lambda: ob.EllipticityVerdict(True, 1.0, np.array([1.0, 0.0])),
}


def test_array_holders_are_every_dataclass_with_an_array_field():
    modules = [importlib.import_module(f"heatkern.{info.name}")
               for info in pkgutil.iter_modules(heatkern.__path__)]
    classes = {obj for mod in modules for obj in vars(mod).values()
               if dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__}
    with_arrays = {cls for cls in classes
                   if any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    assert with_arrays <= set(ARRAY_HOLDERS) <= classes


LIBRARY = ("formfactors", "hmds", "nonlaplace", "oblique", "quadrature", "spectra", "symmspace",
           "tensorcalc", "zaremba")

# table keys that name their parameter otherwise
PARAMETER_OF = {
    "FourierBackground.potential": "FourierBackground.potential_modes",
    "FourierBackground.curvature": "FourierBackground.curvature_modes",
    "PotentialJet.constant": "PotentialJet.constant.Q0",
    "HeatTraceExpansion.exponent": "HeatTraceExpansion.terms",
    "HeatTraceExpansion.coefficient": "HeatTraceExpansion.terms",
    **{f"circle_cosine.{p}": f"FourierBackground.circle_cosine.{p}"
       for p in ("length", "n", "q", "d")},
}

# the public parameters that no sweep feeds, by the reason why
EXEMPT = {
    "a result of the package, built by the function that checked its inputs": [
        *(f"OperatorJet.{f}" for f in ("m", "d", "cutoff", "series", "connection", "Q", "basis")),
        *(f"HmdsCoefficient.{f}" for f in ("order", "cutoff", "coeffs", "basis")),
        *(f"SymbolSpectrum.{f}" for f in ("symbol", "s", "mu", "mult")),
        *(f"EllipticityVerdict.{f}" for f in ("elliptic", "min_eigenvalue", "violating_direction")),
        *(f"FitResult.{f}" for f in ("exponents", "coefficients", "errors", "condition_number")),
        *(f"ModelGeometry.{f}" for f in ("kind", "m", "cutoff", "volume", "radial_profile")),
        *(f"BesselResult.{f}" for f in ("value", "tail_bound", "terms", "warning")),
    ],
    "an object of the package, whose constructor checked it": [
        "build_operator_jet.geom", "build_operator_jet.pot", "hmds_coefficients.jet",
        "b_lambda.coeffs",
        "trace_expansion.geom", "trace_expansion.coeffs",
        "eigenstructure.sym", "a0_coefficient.spec", "u0_trace.spec", "h_endomorphism.sym",
        "h_endomorphism.spec", "x_tensor.sym", "y_tensor.sym", "torus_oracle.sym",
        "strong_ellipticity.data", "a1_quadrature.data", "a1_abelian.data", "a1_clifford.data",
        "nilpotent_trace_density.fs", "theta_series.space", "theta_quadrature.space",
        "wedge_kernel.p", "wedge_kernel.pp", "bessel_oracle.p", "bessel_oracle.pp"],
    "each a SymTensor of its order and of the series' m and d, or a ValidationError": [
        "TaylorSeries.components", "TaylorSeries.m", "TaylorSeries.d"],
    "a name, and any other value is refused by name": [
        "interval_trace.bc", "smooth_boundary_constants.bc", "build_symmetric_space.fixture",
        "build_model_geometry.kind"],
    "a method the package calls with arrays it checked or drew itself": [
        "OperatorJet.apply.P", "LeadingSymbol.symbol_matrix.xi",
        "SymbolSpectrum.eigenvectors.directions", "SymbolSpectrum.projectors_batch.directions",
        "ObliqueBoundaryData.gamma_dot.zeta", "TaylorSeries.component.n"],
    "quadrature's driver and rules, called with checked sizes (quadrature imports no spectra)": [
        *(f"converge.{f}" for f in ("n", "cap", "estimate", "error", "floor", "refusal", "size")),
        *(f"average.{f}" for f in ("rule", "first", "last", "integrand", "tol", "relative", "name",
                                   "count")),
        "gauss_hermite_rule.p", "gauss_hermite_rule.n", "cartan_rule.ad", "cartan_rule.n",
        "sphere_rule.dim", "sphere_rule.n",
        *(f"sphere_average.{f}" for f in ("dim", "first", "last", "integrand", "tol"))],
    "passed as they are to PotentialJet.constant, whose m, d and cutoff are swept": [
        "PotentialJet.zero.m", "PotentialJet.zero.d", "PotentialJet.zero.cutoff"],
    "kept with the terms for the caller; nothing computes with it": ["HeatTraceExpansion.m"],
    "read by _array and _as_t; the fit rows of test_guards_raise_their_message": [
        "fit_expansion.samples"],
    "the seed of numpy's Generator, which numpy reads": ["fit_expansion.seed"],
}


def _public_parameters():
    """'<callable>.<parameter>' for every public function, class and public method of
    the library modules, a dataclass's fields being its class's parameters."""
    names = set()
    for module in (importlib.import_module(f"heatkern.{name}") for name in LIBRARY):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else ()
            methods = [(f"{name}.{key}", getattr(obj, key)) for key, v in members
                       if not key.startswith("_")
                       and isinstance(v, (type(_jet), classmethod, staticmethod))]
            for qualname, f in [(name, obj)] + methods:
                names |= {f"{qualname}.{p}" for p in inspect.signature(f).parameters
                          if p not in ("self", "cls")}
    return names


def _t_swept(params):
    """The t parameters that tests/test_t_grid.py sweeps: its evaluators are bound
    methods or lambdas, whose names hold the callables they call."""
    import test_t_grid
    called = set()
    for f in [*test_t_grid.EVALUATORS.values(), *test_t_grid.SCALAR_ROUTES.values()]:
        called |= {f.__qualname__} if inspect.ismethod(f) else set(f.__code__.co_names)
    return {f"{name}.t" for name in called} & params


def test_every_public_parameter_is_swept_or_exempt():
    params = _public_parameters()
    tables = {PARAMETER_OF.get(key, key) for key in [*SCALARS, *SITES]}
    exempt = [p for names in EXEMPT.values() for p in names]
    assert sorted(tables - params) == []                   # every key names a parameter
    assert sorted(set(exempt) - params) == [] and len(exempt) == len(set(exempt))
    swept = tables | _t_swept(params)
    assert sorted(swept & set(exempt)) == []
    assert sorted(params - swept - set(exempt)) == []


@pytest.mark.parametrize("cls", ARRAY_HOLDERS, ids=lambda cls: cls.__name__)
def test_array_holders_compare_and_hash_by_identity(cls):
    # the generated field-wise == would ask numpy for the truth value of an array,
    # and the generated __hash__ would hash one
    a, b = ARRAY_HOLDERS[cls](), ARRAY_HOLDERS[cls]()
    assert type(a) is cls
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


# name -> (the caller's arrays, the holder built from them, its checked fields); the
# caller's arrays are complex where _array may keep them without a copy
def _frozen_cases():
    q = np.array([[0.3 + 0j]])
    rhat = EPS.copy()
    E, beta = EPS[None].copy(), np.array([[1.0]])
    jq, curv = np.zeros((3, 2, 2), dtype=complex), np.zeros((2, 2, 2, 2), dtype=complex)
    Pi = np.diag([1.0, 0.0]).astype(complex)
    G = np.array([np.diag([0.0, 0.3j])])
    S = np.diag([0.0, 0.5]).astype(complex)
    return {
        "ConstantFieldStrength": ((rhat, q), ss.ConstantFieldStrength(2, rhat, q), ("rhat", "Q")),
        "SymmetricSpaceData": ((E, beta), ss.SymmetricSpaceData(m=2, p=1, E=E, beta=beta),
                               ("E", "beta", "D", "F", "C")),
        "PotentialJet": ((jq, curv), tc.PotentialJet(2, 2, 1, jq, curv), ("Q", "curvature")),
        "ObliqueBoundaryData": ((Pi, G, S), ob.ObliqueBoundaryData(m=2, d=2, Pi=Pi, Gamma=G, S=S),
                                ("Pi", "Gamma", "S")),
    }


@pytest.mark.parametrize("name", sorted(_frozen_cases()))
def test_checked_arrays_are_read_only_copies(name):
    # an array that passed its checks cannot change afterwards, and the caller's
    # own array stays writeable and apart from it
    given, holder, fields = _frozen_cases()[name]
    kept = {f: np.array(getattr(holder, f)) for f in fields}
    for f in fields:
        value = getattr(holder, f)
        for a in value if isinstance(value, tuple) else (value,):
            assert not a.flags.writeable, f
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 7.0
    for a in given:
        assert a.flags.writeable
        a.flat[0] = 7.0
    for f in fields:
        assert np.array_equal(np.array(getattr(holder, f)), kept[f]), f
