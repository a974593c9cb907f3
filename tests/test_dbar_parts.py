"""dbar and del_op, untwisted and twisted, against the full differential
projected to one bidegree.

`ComplexCoframe.dbar` and `del_op` keep, for each monomial, only the part of
its differential that raises the bidegree by (0, 1) or (1, 0).  A character
chi with d(chi) = chi lam, lam imaginary, twists them as a flat unitary line
bundle with theta = lam^{0,1}; its (1,0) connection form is
-conj(lam^{0,1}) = lam^{1,0}.  The reference below is the definition: split
x into its bidegree components, take d(chi comp) = chi(lam ^ comp + d comp)
in full, and project to the shifted bidegree.
"""

import random

import pytest

from acx.bundles import PseudoholStructure, trivial_structure
from acx.errors import InputError
from acx.forms import Form
from acx.hodge import SectionContext
from acx.lie import ACStructure, Character, LieACS
from acx.models import kt_model
from acx.scalars import PiParam, Scalar, SymScalar

from test_leibniz import MODELS, monomials
from test_properties import CASES, central_extension, conjugated_j


def reference(cf, x, lam, dp, dq):
    out = Form.zero(cf.n)
    for p, q in x.bidegrees():
        comp = x.project(p, q)
        full = cf.d(comp) if lam is None else cf.d(comp) + lam.wedge(comp)
        out = out + full.project(p + dp, q + dq)
    return out


def rand_coeff(rng):
    return SymScalar.const(Scalar(rng.randint(-3, 3), rng.randint(-3, 3)))


def rand_imaginary_one_form(rng, n):
    """w - conj(w) for a mixed 1-form w = sum c_i phi^i + c'_i phibar^i with
    Gaussian-integer c."""
    w = Form.zero(n)
    for i in range(1, n + 1):
        w = w + Form.phi(n, i).scale(rand_coeff(rng))
        w = w + Form.phibar(n, i).scale(rand_coeff(rng))
    return w - w.conjugate()


def rand_mixed_form(rng, n, keys, size=4):
    """A form of mixed bidegree over a few of the given monomials."""
    out = Form.zero(n)
    for alpha, beta in rng.sample(keys, min(size, len(keys))):
        out = out + Form.monomial(n, alpha, beta, rand_coeff(rng))
    return out


def twisted_operators(rng, model):
    """(lam, dbar, nabla10) triples: no twist, a random imaginary 1-form as
    the theta = lam^{0,1} of a line bundle, and the model's own nontrivial
    characters (at bundle power 1) through their SectionContext blocks."""
    lam = rand_imaginary_one_form(rng, model.n)
    bundles = [(None, trivial_structure(model)),
               (lam, PseudoholStructure(model, [[lam.project(0, 1)]]))]
    out = [(lam, b.dbar_section, b.nabla10_section) for lam, b in bundles]
    for ch in model.characters(1)[1:]:
        ctx = SectionContext(model, character=ch)
        out.append((ch.lambda_form(model.coframe), lambda x, ctx=ctx: [ctx.dbar(x[0])],
                    lambda x, ctx=ctx: [ctx.nabla10(x[0])]))
    return out


def check(model, operators, rng, max_degree, mixed=6):
    cf = model.coframe
    keys = monomials(cf.n, max_degree)
    forms = [Form.monomial(cf.n, a, b) for a, b in keys]
    forms += [rand_mixed_form(rng, cf.n, keys) for _ in range(mixed)]
    for lam, dbar, nabla10 in operators:
        for x in forms:
            assert dbar([x]) == [reference(cf, x, lam, 0, 1)]
            assert nabla10([x]) == [reference(cf, x, lam, 1, 0)]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_presets_and_heis6(name):
    model = MODELS[name]()
    rng = random.Random(31)
    operators = twisted_operators(rng, model)
    if name == "kt-4pi":
        assert len(operators) == 4  # the characters l = +-1 at bundle power 1
    check(model, operators, rng, 2 * model.n)


def test_nil8_generic(nil8_generic):
    rng = random.Random(32)
    check(nil8_generic, twisted_operators(rng, nil8_generic), rng, 8)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}-dim{c[2]}")
def test_generated_coframes(case):
    seed, base, dim, generic, mix = case[:5]
    rng = random.Random(seed)
    alg = central_extension(rng, base, dim)
    model = LieACS(alg, ACStructure(conjugated_j(rng, dim, generic, mix)))
    rng = random.Random(200 + seed)
    check(model, twisted_operators(rng, model), rng, 2 * model.n)


def test_a_real_lambda_is_refused():
    # i times an imaginary character is real: chi would not be unitary
    model = kt_model(PiParam.rational_pi(4))
    ch = model.characters(1)[1]
    i_unit = SymScalar.const(Scalar(0, 1))
    real = Character(model.alg, [v * i_unit for v in ch.values])
    with pytest.raises(InputError, match="imaginary"):
        SectionContext(model, character=real)


def test_cached_parts_do_not_leak_between_shifts():
    cf = kt_model(PiParam.generic()).coframe
    x = Form.monomial(cf.n, (1,), ())
    first = cf.dbar(x)
    assert cf.del_op(x) == reference(cf, x, None, 1, 0)
    assert cf.dbar(x) == first == reference(cf, x, None, 0, 1)
    # d of a (1,0)-form has parts (2,0), (1,1) and (0,2) only
    assert cf.d(x) == cf.del_op(x) + cf.dbar(x) + cf.d(x).project(0, 2)
