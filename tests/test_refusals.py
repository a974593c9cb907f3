"""Library refusals that no other test reaches: each bad call raises its own
exception type with its own message."""

from fractions import Fraction

import pytest

from acx.errors import InputError
from acx.forms import Form
from acx.g2 import basis_vector, cross_product
from acx.hodge import invariant_harmonic_space, star_monomial
from acx.models import abelian_model
from acx.linalg import mat_inverse
from acx.scalars import PiParam, SymScalar
from acx.torus import TrigPoly

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
}


@pytest.mark.parametrize("call", REFUSALS)
def test_refusal_type_and_message(call):
    make, exc, message = REFUSALS[call]
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message
