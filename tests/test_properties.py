"""Properties of generated models.

Each model is a nilpotent algebra built as iterated central extensions, with
J = P J0 P^-1 for a small-integer P; some J0 carry the generic parameter a.
Seeds are fixed, so every run checks the same models.
"""

import random
from itertools import combinations

import pytest

from acx.bundles import CanonicalPower
from acx.forms import Form
from acx.hodge import (
    HermitianData,
    invariant_harmonic_space,
    serre_pairing_check,
    star_monomial,
)
from acx.lie import ACStructure, LieACS, LieAlgebra, is_integrable, nijenhuis
from acx.linalg import kernel_basis, mat_inverse, mat_mul, rank, sparse_rows
from acx.scalars import SS_ZERO, PiParam, Scalar, SymScalar

from test_lie import ce_d
from test_scalars import assert_canonical_sym


def closed_two_forms(alg):
    """A basis of the closed real 2-forms, as {(i, j): coefficient} dicts."""
    pairs = list(combinations(range(1, alg.dim + 1), 2))
    images = [ce_d(alg, Form(alg.dim, {(pair, ()): 1})) for pair in pairs]
    keys = sorted({key for image in images for key in image.terms})
    rows = [[image.terms.get(key, SymScalar.const(0)) for image in images] for key in keys]
    return [{pair: v.get(j, SS_ZERO) for j, pair in enumerate(pairs)}
            for v in kernel_basis(sparse_rows(rows), len(pairs))]


def central_extension(rng, base, dim):
    """Extend R^base one central basis vector at a time up to dim: the new
    e_m enters [e_i, e_j] with the coefficient of a random small-integer
    combination of closed 2-forms of the algebra built so far."""
    brackets = {}
    for m in range(base + 1, dim + 1):
        cocycles = closed_two_forms(LieAlgebra(m - 1, brackets))
        weights = [rng.randint(-2, 2) for _ in cocycles]
        for (i, j) in combinations(range(1, m), 2):
            c = sum((w * cocycle[(i, j)] for w, cocycle in zip(weights, cocycles)),
                    SymScalar.const(0))
            if not c.is_zero():
                brackets.setdefault((i, j), {})[m] = c
    return LieAlgebra(dim, brackets, name=f"ext{base}-{dim}")


def conjugated_j(rng, dim, generic, mix):
    """P J0 P^-1: J0 pairs e_(2k-1), e_2k, with the parameter a on the first
    pair when generic; P is the identity plus mix off-diagonal entries +-1,
    redrawn until nonsingular."""
    a = PiParam.generic().a_value() if generic else SymScalar.const(1)
    j0 = [[SymScalar.const(0)] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        scale = a if k == 0 else SymScalar.const(1)
        j0[k][k + 1] = -SymScalar.const(1) / scale
        j0[k + 1][k] = scale
    while True:
        p = [[int(r == c) for c in range(dim)] for r in range(dim)]
        for _ in range(mix):
            r, c = rng.sample(range(dim), 2)
            p[r][c] = rng.choice([1, -1])
        if rank(sparse_rows(p)) == dim:
            break
    return mat_mul(mat_mul(p, j0), mat_inverse(p))


# (seed, base, dim, generic J0, off-diagonal entries of P); every case is
# checked in each (p,q) degree of DEGREES.
DEGREES = ((1, 0), (0, 1), (1, 1))
CASES = [
    (1, 2, 4, True, 2),
    (14, 3, 6, False, 3),
    (13, 2, 6, True, 2),
    (16, 3, 6, True, 2),
    (12, 4, 8, False, 3),
    (13, 4, 8, False, 3),
    (15, 2, 8, False, 4),
]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"seed{c[0]}-dim{c[2]}")
def generated(request):
    seed, base, dim, generic, mix = request.param
    rng = random.Random(seed)
    alg = central_extension(rng, base, dim)
    J = ACStructure(conjugated_j(rng, dim, generic, mix))
    return LieACS(alg, J, name=alg.name)


def test_extensions_are_nonabelian_and_triangular(generated):
    alg = generated.alg
    assert alg.brackets
    # [e_i, e_j] lies in the span of the e_k with k > j: the algebra is nilpotent
    assert all(k > j for (i, j), vec in alg.brackets.items() for k in vec)
    assert alg.is_unimodular()


def test_d_squares_to_zero(generated):
    cf = generated.coframe
    for A in range(2 * cf.n):
        assert cf.d(cf.d_generator(A)).is_zero()


def test_integrability_tests_agree(generated):
    model = generated
    is_integrable(nijenhuis(model.alg, model.J), model.coframe)


def test_harmonic_kernels_agree_and_serre_pairing_is_nonsingular(generated):
    model = generated
    for p, q in DEGREES:
        invariant_harmonic_space(model, p, q)
        report = serre_pairing_check(model, p, q)
        assert report.ok, (p, q, report.detail)


def test_certificate_agrees_with_elimination(generated, monkeypatch):
    # each block's certificate, against the elimination of the Laplacian and
    # the list comparison it replaces
    from acx import hodge

    model = generated
    real, asked = hodge.certify_kernel, []

    def certify(rows, ncols, basis):
        asked.append((rows, ncols, basis, real(rows, ncols, basis)))
        return asked[-1][-1]

    monkeypatch.setattr(hodge, "certify_kernel", certify)
    for p, q in DEGREES:
        invariant_harmonic_space(model, p, q)
    assert asked
    for rows, ncols, basis, verdict in asked:
        assert verdict == (kernel_basis(rows, ncols=ncols) == basis)


def test_scalars_are_canonical(generated):
    model = generated
    cf = model.coframe
    entries = [c for row in model.J.matrix + cf.C + cf.Cinv for c in row]
    entries += [c for coords in cf.complex_constants().values() for c in coords]
    for blk in invariant_harmonic_space(model, 1, 0).blocks:
        entries += [c for vec in blk.basis for c in vec.values()]
    for c in entries:
        assert_canonical_sym(c)


def random_form(rng, n, size=4):
    """Up to `size` monomials of random bidegrees with Gaussian-integer
    coefficients, some times a + 1 for the generic parameter a."""
    a = PiParam.generic().a_value()
    terms = {}
    for _ in range(size):
        alpha = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        beta = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        c = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
        terms[(tuple(alpha), tuple(beta))] = c * (a + 1) if rng.random() < 0.3 else c
    return Form(n, terms)


def assert_trusted(f):
    """A result built without Form's checks passes them: it equals its
    re-validated copy, and holds plain tuple keys and no zero coefficient."""
    assert f == Form(f.n, f.terms)
    for (alpha, beta), c in f.terms.items():
        assert type(alpha) is tuple and type(beta) is tuple
        assert type(c) is SymScalar and not c.is_zero()


def test_unchecked_results_pass_the_checks(generated):
    model = generated
    n, cf = model.n, model.coframe
    data = HermitianData(model)
    bundle = CanonicalPower(model, 1).structure()
    rng = random.Random(f"trusted-{model.name}-{n}")
    for _ in range(6):
        x, y = random_form(rng, n), random_form(rng, n)
        c = SymScalar.const(Scalar(rng.randint(-3, 3), rng.randint(1, 2)))
        results = [x + y, x - y, -x, x - x, x.scale(c), x.scale(0), x.wedge(y),
                   x.wedge(x), x.conjugate(), cf.d(x), cf.dbar(x), cf.del_op(x),
                   data.star(x)]
        results += [x.project(p, q) for p in range(n + 1) for q in range(n + 1)]
        results += bundle.dbar_section([x]) + bundle.nabla10_section([x])
        for f in results:
            assert_trusted(f)
        assert (x - x).is_zero() and x.scale(0).is_zero()
        # star maps each monomial to one monomial: fold star_monomial over
        # the single monomials of x with the checked constructor
        fold = Form.zero(n)
        for (alpha, beta), coeff in x.terms.items():
            bhat, ahat, s = star_monomial(n, alpha, beta)
            fold = fold + Form(n, {(bhat, ahat): coeff * s})
        assert data.star(x) == fold
