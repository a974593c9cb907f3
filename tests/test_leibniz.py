"""d of a monomial by the graded Leibniz rule, against the rules it replaced.

`forms.d_monomial` computes d(g_1 ^ ... ^ g_k) as the sum over r of
(-1)^(r-1) d(g_r) ^ (the monomial without g_r), merging the terms of each
d(g_r) into one dict with no Form.wedge.  The references below are the
earlier forms of the same rule: a prefix and a suffix product around each
d(g_r) on the complex coframe, and a three-factor product per position on the
real basis.
"""

import random
from functools import reduce
from pathlib import Path

import pytest

from acx import g2
from acx.forms import Form, basis_monomials
from acx.lie import ACStructure, build_coframe
from acx.models import kt_model, load_model_file
from acx.scalars import PiParam

from test_lie import ce_d, rand_real_form
from test_properties import CASES, central_extension, conjugated_j

HEIS6 = Path(__file__).parent / "golden" / "models" / "heis6.json"


def product(factors, n):
    return reduce(Form.wedge, factors, Form.monomial(n))


def reference_d_monomial(cf, alpha, beta):
    """d(phi_alpha ^ phibar_beta) with d(g_r) between its prefix and suffix."""
    gens = [a - 1 for a in alpha] + [cf.n + b - 1 for b in beta]
    out = Form.zero(cf.n)
    for r, A in enumerate(gens):
        prefix = product([cf._gen_form(g) for g in gens[:r]], cf.n)
        suffix = product([cf._gen_form(g) for g in gens[r + 1:]], cf.n)
        piece = prefix.wedge(cf.d_generator(A)).wedge(suffix)
        out = out + (piece if r % 2 == 0 else -piece)
    return out


def reference_ce_d(alg, form):
    """The real-basis differential, one three-factor product per position."""
    out = Form.zero(alg.dim)
    gens = {a: alg.d_generator(a) for a in range(1, alg.dim + 1)}
    for (idx, _), c in form.terms.items():
        for r, a in enumerate(idx):
            piece = Form.monomial(alg.dim, idx[:r], (), c if r % 2 == 0 else -c)
            piece = piece.wedge(gens[a])
            piece = piece.wedge(Form.monomial(alg.dim, idx[r + 1:]))
            out = out + piece
    return out


def monomials(n, max_degree):
    return [
        key
        for p in range(n + 1)
        for q in range(n + 1)
        if p + q <= max_degree
        for key in basis_monomials(n, p, q)
    ]


MODELS = {
    "kt-4pi": lambda: kt_model(PiParam.rational_pi(4)),
    "kt-generic": lambda: kt_model(PiParam.generic()),
    "heis6": lambda: load_model_file(str(HEIS6))[0],
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_monomial_matches_the_prefix_suffix_rule(name):
    cf = MODELS[name]().coframe
    for alpha, beta in monomials(cf.n, 2 * cf.n):
        assert cf._d_monomial(alpha, beta) == reference_d_monomial(cf, alpha, beta)


def test_every_monomial_of_nil8_generic_matches(nil8_generic):
    cf = nil8_generic.coframe
    for alpha, beta in monomials(cf.n, 2 * cf.n):
        assert cf._d_monomial(alpha, beta) == reference_d_monomial(cf, alpha, beta)


def test_s6_monomials_up_to_degree_three_match():
    cf = g2.s6_model().coframe
    keys = monomials(cf.n, 3)
    assert len(keys) == 1 + 14 + 91 + 364
    for alpha, beta in keys:
        assert cf._d_monomial(alpha, beta) == reference_d_monomial(cf, alpha, beta)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}-dim{c[2]}")
def test_ce_d_matches_the_three_factor_rule(case):
    seed, base, dim = case[:3]
    alg = central_extension(random.Random(seed), base, dim)
    rng = random.Random(100 + seed)
    for degree in range(1, dim + 1):
        for _ in range(3):
            xi = rand_real_form(rng, alg, degree)
            assert ce_d(alg, xi) == reference_ce_d(alg, xi)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}-dim{c[2]}")
def test_generated_coframes_match_the_prefix_suffix_rule(case):
    # the property-test models: conjugated J, so the coframes are dense
    seed, base, dim, generic, mix = case[:5]
    rng = random.Random(seed)
    alg = central_extension(rng, base, dim)
    cf = build_coframe(alg, ACStructure(conjugated_j(rng, dim, generic, mix)))
    for alpha, beta in monomials(cf.n, 2 * cf.n):
        assert cf._d_monomial(alpha, beta) == reference_d_monomial(cf, alpha, beta)


@pytest.mark.parametrize("alpha, beta", [((2,), ()), ((1, 3), (2, 4))])
def test_degree_k_monomial_costs_k_generator_reads(nil8_generic, monkeypatch, alpha, beta):
    """d of a degree-k monomial reads d(g_r) once for each of its k
    generators and merges the terms into one dict, with no Form.wedge."""
    cf = build_coframe(nil8_generic.alg, nil8_generic.J)
    for A in range(2 * cf.n):
        cf.d_generator(A)
    reads, wedges = [], []
    d_generator, wedge = cf.d_generator, Form.wedge
    monkeypatch.setattr(cf, "d_generator", lambda *args: reads.append(args) or d_generator(*args))
    monkeypatch.setattr(Form, "wedge", lambda x, y: wedges.append(1) or wedge(x, y))
    got = cf.d(Form.monomial(cf.n, alpha, beta))
    gens = [a - 1 for a in alpha] + [cf.n + b - 1 for b in beta]
    assert reads == [(A, None) for A in gens]
    assert wedges == []
    monkeypatch.undo()
    assert got == reference_d_monomial(cf, alpha, beta)


def test_keys_from_outside_are_still_validated():
    n = 3
    with pytest.raises(ValueError, match=r"^multi-index must be strictly increasing, got \(3, 1\)$"):
        Form(n, {((), (3, 1)): 1})
    with pytest.raises(ValueError, match=r"^multi-index must be strictly increasing, got \(2, 1\)$"):
        Form.monomial(n, (2, 1), ())
    with pytest.raises(ValueError, match=r"^holomorphic index 4 exceeds n=3$"):
        Form(n, {((1, n + 1), ()): 1})


def test_merged_keys_are_multi_indices():
    x = Form.phi(4, 3).wedge(Form.phi(4, 1))
    (alpha, beta), = x.terms
    assert type(alpha) is tuple and alpha == (1, 3)
    assert type(beta) is tuple and beta == ()
