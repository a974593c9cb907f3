"""Library refusals that no other test reaches: each bad call raises its own
exception type with its own message."""

from fractions import Fraction

import pytest

from acx.errors import InputError
from acx.forms import Form
from acx.g2 import basis_vector, cross_product, s6_plurigenus
from acx.hodge import invariant_harmonic_space, star_monomial
from acx.models import abelian_model, kt_model
from acx.linalg import mat_inverse
from acx.scalars import PiParam, SymScalar
from acx.torus import (IntInterval, PlurigeneraProfile, TrigPoly, curve_profile, kt_plurigenus,
                       rr_plurigenus)

_NOT_INT = "'%s' object cannot be interpreted as an integer"

REFUSALS = {
    "Form(1, {((0,), ()): 1})": (lambda: Form(1, {((0,), ()): 1}), ValueError,
                                 "multi-index entries must be positive ints, got 0"),
    "Form.zero(2).coefficient((0,))": (lambda: Form.zero(2).coefficient((0,)), ValueError,
                                       "multi-index entries must be positive ints, got 0"),
    "Form.zero(2).coefficient((), (2, 1))": (lambda: Form.zero(2).coefficient((), (2, 1)),
                                             ValueError,
                                             "multi-index must be strictly increasing, got (2, 1)"),
    "star_monomial(2, (), (-1,))": (lambda: star_monomial(2, (), (-1,)), ValueError,
                                    "multi-index entries must be positive ints, got -1"),
    "star_monomial(2, (1, 1), ())": (lambda: star_monomial(2, (1, 1), ()), ValueError,
                                     "multi-index must be strictly increasing, got (1, 1)"),
    "Form(-1)": (lambda: Form(-1), ValueError, "bad coframe dimension -1"),
    "Form(2, {((), (3,)): 1})": (lambda: Form(2, {((), (3,)): 1}), ValueError,
                                 "antiholomorphic index 3 exceeds n=2"),
    "Form.zero(2) + 1": (lambda: Form.zero(2) + 1, TypeError, "expected Form, got 1"),
    "cross_product().cross((1,), (1,))": (lambda: cross_product().cross((1,), (1,)),
                                          InputError, "vectors must have seven components"),
    "basis_vector(8)": (lambda: basis_vector(8), InputError,
                        "basis index 8 out of range 1..7"),
    "mat_inverse([[1, 2]])": (lambda: mat_inverse([[1, 2]]), ValueError,
                              "inverse of a non-square matrix"),
    "SymScalar((1,), ())": (lambda: SymScalar((1,), ()), ZeroDivisionError,
                            "SymScalar with zero denominator"),
    "SymScalar.symbol().constant_value()": (lambda: SymScalar.symbol().constant_value(),
                                            ValueError, "x is not constant"),
    "PiParam('bogus')": (lambda: PiParam("bogus"), ValueError,
                         "unknown PiParam kind 'bogus'"),
    "TrigPoly(0, {})": (lambda: TrigPoly(0, {}), InputError,
                        "torus dimension must be at least 1"),
    "TrigPoly(2, {(1,): 1})": (lambda: TrigPoly(2, {(1,): 1}), InputError,
                               "frequency (1,) does not match torus dimension 2"),
    "TrigPoly(2, {}) + TrigPoly(4, {})": (lambda: TrigPoly(2, {}) + TrigPoly(4, {}),
                                          InputError,
                                          "trigonometric polynomials live on different tori"),
    "invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power=Fraction(1, 2))": (
        lambda: invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power=Fraction(1, 2)),
        InputError, "bad canonical power Fraction(1, 2)"),
    "invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power='2')": (
        lambda: invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power="2"),
        InputError, "bad canonical power '2'"),
    "TrigPoly(2, {}).partial(2)": (lambda: TrigPoly(2, {}).partial(2), InputError,
                                   "coordinate index 2 out of range for k=2"),
    # bundle powers are refused before the zero power is told apart, on every
    # model: kt read 0.0 as a scale factor and failed with a TypeError
    "invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power=0.0)": (
        lambda: invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power=0.0),
        InputError, "bad canonical power 0.0"),
    "invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power=Fraction(0))": (
        lambda: invariant_harmonic_space(abelian_model(2), 0, 0, bundle_power=Fraction(0)),
        InputError, "bad canonical power Fraction(0, 1)"),
    "invariant_harmonic_space(kt_model(PiParam.rational_pi(4)), 0, 0, bundle_power=0.0)": (
        lambda: invariant_harmonic_space(kt_model(PiParam.rational_pi(4)), 0, 0,
                                         bundle_power=0.0),
        InputError, "bad canonical power 0.0"),
    # integer arguments are read through operator.index: a float, Fraction or
    # string is refused where int() truncated or parsed it, and each of these
    # calls returned a value while it did
    "kt_plurigenus(PiParam.rational_pi(4), 2.5)": (
        lambda: kt_plurigenus(PiParam.rational_pi(4), 2.5), TypeError, _NOT_INT % "float"),
    "s6_plurigenus(Fraction(2))": (lambda: s6_plurigenus(Fraction(2)), TypeError,
                                   _NOT_INT % "Fraction"),
    "rr_plurigenus(2.9, 2.9)": (lambda: rr_plurigenus(2.9, 2.9), TypeError, _NOT_INT % "float"),
    "rr_plurigenus(2, '3')": (lambda: rr_plurigenus(2, "3"), TypeError, _NOT_INT % "str"),
    "curve_profile(3.7, 4)": (lambda: curve_profile(3.7, 4), TypeError, _NOT_INT % "float"),
    "PlurigeneraProfile([1.9, 1.2, 1.5, 1], kappa=0)": (
        lambda: PlurigeneraProfile([1.9, 1.2, 1.5, 1], kappa=0), TypeError, _NOT_INT % "float"),
    "IntInterval(0.5, 1.7)": (lambda: IntInterval(0.5, 1.7), TypeError, _NOT_INT % "float"),
    "TrigPoly(4.9, {})": (lambda: TrigPoly(4.9, {}), TypeError, _NOT_INT % "float"),
    "TrigPoly(1, {(0.5,): 1})": (lambda: TrigPoly(1, {(0.5,): 1}), TypeError,
                                 _NOT_INT % "float"),
    "TrigPoly.cos2pi(1, (1.5,))": (lambda: TrigPoly.cos2pi(1, (1.5,)), TypeError,
                                   _NOT_INT % "float"),
    "TrigPoly.sin2pi(1, (Fraction(1),))": (lambda: TrigPoly.sin2pi(1, (Fraction(1),)),
                                           TypeError, _NOT_INT % "Fraction"),
}


@pytest.mark.parametrize("call", REFUSALS)
def test_refusal_type_and_message(call):
    make, exc, message = REFUSALS[call]
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message
