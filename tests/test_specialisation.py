"""The generic symbol, checked by specialising it.

Every generic-parameter Hodge number rests on SymScalar arithmetic over
Q(i)(x).  Here the symbol in J is replaced by a rational r before the model
is built: each entry num/den of J is evaluated at r by Horner's rule on
Fractions, so the specialised model is constant, and its coframe, operators
and elimination never enter the polynomial paths.  Rank can only drop at a
special value, so h(generic) <= h(r) for every admissible r, with equality
at all but finitely many r.  The test asserts equality at seeded 30-bit
rationals and the inequality at a few small ones, for every (p,q) at bundle
powers 0 and 1, on nil8-generic.json and the symbolic cases of
test_properties.
"""

import json
import random
from fractions import Fraction

import pytest

from acx.hodge import invariant_harmonic_space
from acx.lie import ACStructure, LieACS
from acx.models import model_from_json

from test_golden import golden
from test_properties import CASES, central_extension, conjugated_j

SMALL = [Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-5, 3)]


def nil8_generic():
    path = golden.GOLDEN_DIR / "models" / "nil8-generic.json"
    model = model_from_json(json.loads(path.read_text()))[0]
    return model.alg, model.J


def property_case(seed, base, dim, mix):
    rng = random.Random(seed)
    alg = central_extension(rng, base, dim)
    return alg, ACStructure(conjugated_j(rng, dim, True, mix))


MODELS = {
    "nil8-generic": nil8_generic,
    **{f"properties-seed{seed}": lambda case=(seed, base, dim, mix): property_case(*case)
       for seed, base, dim, generic, mix in CASES if generic},
}


def evaluate(c, r):
    """The SymScalar c = num/den at x = r, by Horner's rule on Fractions."""
    def at(coeffs):
        out = Fraction(0)
        for a in reversed(coeffs):
            assert a.im == 0
            out = out * r + a.re
        return out

    return at(c.num) / at(c.den)


def hodge_numbers(model):
    degrees = range(model.n + 1)
    return {(p, q, power): invariant_harmonic_space(model, p, q, bundle_power=power).dimension
            for p in degrees for q in degrees for power in (0, 1)}


@pytest.mark.parametrize("name", MODELS)
def test_specialising_the_symbol_keeps_or_raises_every_hodge_number(name):
    alg, J = MODELS[name]()
    assert any(not c.is_constant() for row in J.matrix for c in row)
    generic = hodge_numbers(LieACS(alg, J))
    rng = random.Random(f"specialise-{name}")
    seeded = [Fraction(rng.choice([1, -1]) * rng.getrandbits(30), rng.getrandbits(30) | 1)
              for _ in range(2)]

    def at(r):
        return hodge_numbers(LieACS(alg, ACStructure(
            [[evaluate(c, r) for c in row] for row in J.matrix])))

    for r in seeded:
        assert at(r) == generic, r
    for r in SMALL:
        assert all(generic[key] <= h for key, h in at(r).items()), r
