"""One rule for the first pluricanonical section of an invariant model.

LieACS.first_section_level reads the least level m at which K^m has a
constant section from beta_1 and lambda_1 alone.  It must agree with the
kt family's closed form (torus.kt_first_nonzero) and with the values the
harmonic path computes, P_m = dim of the invariant harmonic (0,0) space of
K^m: one section at each multiple of the level, none elsewhere.
"""

import random
from fractions import Fraction

import pytest

from acx import g2
from acx.hodge import invariant_harmonic_space
from acx.lie import ACStructure, LieACS
from acx.models import kt_model, load_model_file
from acx.scalars import PiParam
from acx.torus import kt_first_nonzero

from test_basis_flips import MODELS
from test_properties import CASES, central_extension, conjugated_j

WINDOW = 8


def plurigenus(model, m):
    return invariant_harmonic_space(model, 0, 0, bundle_power=m).dimension


def generated(seed, base, dim, generic, mix):
    rng = random.Random(seed)
    alg = central_extension(rng, base, dim)
    return LieACS(alg, ACStructure(conjugated_j(rng, dim, generic, mix)), name=alg.name)


Q_GRID = [Fraction(4), Fraction(-4), Fraction(8), Fraction(2), Fraction(4, 3), Fraction(1, 2),
          Fraction(39, 10), Fraction(1, 1000), Fraction(-7, 6)]


@pytest.mark.parametrize("q", Q_GRID, ids=str)
def test_kt_rule_is_the_closed_form(q):
    a = PiParam.rational_pi(q)
    assert kt_model(a).first_section_level == kt_first_nonzero(a) is not None


def test_generic_kt_has_no_section_level():
    a = PiParam.generic()
    assert kt_model(a).first_section_level is None is kt_first_nonzero(a)


MODEL_BUILDERS = {
    **{name: (lambda name=name: load_model_file(str(MODELS / f"{name}.json"))[0])
       for name in ("abelian4", "heis6", "nil8-generic", "kt4")},
    "sphere": g2.s6_model,
    "kt-2pi": lambda: kt_model(PiParam.rational_pi(Fraction(2))),
    "kt-4/3pi": lambda: kt_model(PiParam.rational_pi(Fraction(4, 3))),
    "kt-generic": lambda: kt_model(PiParam.generic()),
    **{f"seed{c[0]}-dim{c[2]}": (lambda c=c: generated(*c)) for c in CASES},
}


@pytest.mark.parametrize("name", MODEL_BUILDERS)
def test_rule_matches_the_harmonic_values(name):
    model = MODEL_BUILDERS[name]()
    level = model.first_section_level
    values = [plurigenus(model, m) for m in range(1, WINDOW + 1)]
    assert values == [int(level is not None and m % level == 0)
                      for m in range(1, WINDOW + 1)]


def test_a_level_beyond_the_window_holds_its_section():
    model = kt_model(PiParam.rational_pi(Fraction(39, 10)))
    assert model.first_section_level == 40
    assert plurigenus(model, 39) == 0
    assert plurigenus(model, 40) == 1
