"""dbar and del_op against the full differential projected to one bidegree.

`ComplexCoframe.dbar` and `del_op` keep, for each monomial, only the part of
its differential that raises the bidegree by (0, 1) or (1, 0), and add the
matching part of lam ^ x.  The reference below is the definition: split x
into its bidegree components, take d(chi comp) = chi(lam ^ comp + d comp) in
full, and project to the shifted bidegree.
"""

import random

import pytest

from acx.forms import Form
from acx.lie import ACStructure, build_coframe
from acx.models import kt_model
from acx.scalars import PiParam, Scalar, SymScalar

from test_leibniz import MODELS, monomials
from test_properties import CASES, central_extension, conjugated_j


def reference(cf, x, lam, dp, dq):
    out = Form.zero(cf.n)
    for p, q in x.bidegrees():
        out = out + cf.d(x.project(p, q), lam).project(p + dp, q + dq)
    return out


def rand_coeff(rng):
    return SymScalar.const(Scalar(rng.randint(-3, 3), rng.randint(-3, 3)))


def rand_one_form(rng, n):
    """A mixed 1-form sum c_i phi^i + c'_i phibar^i with Gaussian-integer c."""
    out = Form.zero(n)
    for i in range(1, n + 1):
        out = out + Form.phi(n, i).scale(rand_coeff(rng))
        out = out + Form.phibar(n, i).scale(rand_coeff(rng))
    return out


def rand_mixed_form(rng, n, keys, size=4):
    """A form of mixed bidegree over a few of the given monomials."""
    out = Form.zero(n)
    for alpha, beta in rng.sample(keys, min(size, len(keys))):
        out = out + Form.monomial(n, alpha, beta, rand_coeff(rng))
    return out


def lams(rng, n, model=None):
    """No twist, a random mixed 1-form, and the model's own nontrivial
    characters (at bundle power 1)."""
    out = [None, rand_one_form(rng, n)]
    if model is not None:
        out += [ch.lambda_form(model.coframe) for ch in model.characters(1)[1:]]
    return out


def check(cf, lam_list, rng, max_degree, mixed=6):
    keys = monomials(cf.n, max_degree)
    forms = [Form.monomial(cf.n, a, b) for a, b in keys]
    forms += [rand_mixed_form(rng, cf.n, keys) for _ in range(mixed)]
    for lam in lam_list:
        for x in forms:
            assert cf.dbar(x, lam) == reference(cf, x, lam, 0, 1)
            assert cf.del_op(x, lam) == reference(cf, x, lam, 1, 0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_presets_and_heis6(name):
    model = MODELS[name]()
    rng = random.Random(31)
    lam_list = lams(rng, model.n, model)
    if name == "kt-4pi":
        assert len(lam_list) == 4  # the characters l = +-1 at bundle power 1
    check(model.coframe, lam_list, rng, 2 * model.n)


def test_nil8_generic(nil8_generic):
    rng = random.Random(32)
    check(nil8_generic.coframe, lams(rng, nil8_generic.n, nil8_generic), rng, 8)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}-dim{c[2]}")
def test_generated_coframes(case):
    seed, base, dim, generic, mix = case[:5]
    rng = random.Random(seed)
    alg = central_extension(rng, base, dim)
    cf = build_coframe(alg, ACStructure(conjugated_j(rng, dim, generic, mix)))
    rng = random.Random(200 + seed)
    check(cf, lams(rng, cf.n), rng, 2 * cf.n)


def test_cached_parts_do_not_leak_between_shifts():
    cf = kt_model(PiParam.generic()).coframe
    x = Form.monomial(cf.n, (1,), ())
    first = cf.dbar(x)
    assert cf.del_op(x) == reference(cf, x, None, 1, 0)
    assert cf.dbar(x) == first == reference(cf, x, None, 0, 1)
    # d of a (1,0)-form has parts (2,0), (1,1) and (0,2) only
    assert cf.d(x) == cf.del_op(x) + cf.dbar(x) + cf.d(x).project(0, 2)
