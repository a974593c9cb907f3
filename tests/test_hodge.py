"""Metric pairing, star operator, adjoints, and invariant harmonic spaces."""

from fractions import Fraction
from math import comb

import pytest

from acx import hodge, linalg
from acx.bundles import CanonicalPower, trivial_structure
from acx.cli import main
from acx.errors import InputError, InternalCheckError
from acx.forms import Form, basis_monomials
from acx.hodge import (
    HermitianData,
    SectionContext,
    invariant_harmonic_space,
    serre_pairing_check,
    star_monomial,
    volume_form,
)
from acx.lie import LieAlgebra, ACStructure, LieACS
from acx.linalg import row_echelon, sparse_rows
from acx.models import abelian_model, kt_model
from acx.scalars import SS_ZERO, PiParam, Scalar, SymScalar
from acx.torus import kt_irregularity, kt_plurigenus


def h(x, y):
    """The pointwise Hermitian pairing of two forms, linear in x, antilinear
    in y: monomials orthogonal, h(phi_alpha ^ phibar_beta, same) = 2^(p+q)."""
    acc = SS_ZERO
    for key, cx in x.terms.items():
        cy = y.terms.get(key)
        if cy is None:
            continue
        weight = Fraction(2) ** (len(key[0]) + len(key[1]))
        acc = acc + cx * cy.conjugate() * SymScalar.const(weight)
    return acc


def solve(rows, rhs):
    """One solution of A v = rhs, or None if inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length differs from the row count")
    if not rows:
        return None
    ncols = len(rows[0])
    ech, pivots = row_echelon(sparse_rows([list(r) + [b] for r, b in zip(rows, rhs)]))
    # inconsistent iff the right-hand-side column holds a pivot
    if pivots and pivots[-1] == ncols:
        return None
    v = [SS_ZERO] * ncols
    for row, pc in zip(ech, pivots):
        v[pc] = row.get(ncols, SS_ZERO)
    return v


def star_oracle(data, x):
    """Solve h(w, x) dV = w ^ conj(star x) for star x, monomial by monomial.

    Independent of the closed star formula; used to pin it down.
    """
    n = data.n
    if x.is_zero():
        return Form.zero(n)
    [(p, q)] = x.bidegrees()
    target = basis_monomials(n, n - q, n - p)
    probes = basis_monomials(n, p, q)
    full = tuple(range(1, n + 1))
    # unknowns: conj(coefficients) of star x over target monomials
    rows = []
    rhs = []
    for (wa, wb) in probes:
        w = Form.monomial(n, wa, wb)
        row = []
        for (ta, tb) in target:
            candidate = Form.monomial(n, ta, tb).conjugate()
            row.append(w.wedge(candidate).coefficient(full, full))
        rows.append(row)
        rhs.append(h(w, x) * data.vol_coeff)
    sol = solve(rows, rhs)
    if sol is None:
        raise InternalCheckError("star oracle", "the system is inconsistent")
    out = Form.zero(n)
    for (ta, tb), c in zip(target, sol):
        out = out + Form.monomial(n, ta, tb, c.conjugate())
    return out


A_PARAMS = [
    PiParam.rational_pi(4),
    PiParam.rational_pi(2),
    PiParam.rational_pi(1),
    PiParam.generic(),
]
KT_PARAMS = A_PARAMS + [PiParam.rational_pi(Fraction(*q))
                        for q in ((1, 2), (2, 3), (4, 3), (3, 1), (8, 1), (12, 1), (-4, 1))]


class TestStar:
    def test_frozen_low_dimensional_values(self):
        from fractions import Fraction

        bhat, ahat, c = star_monomial(1, (1,), ())
        assert (tuple(bhat), tuple(ahat), c) == ((1,), (), Scalar(0, -1))
        bhat, ahat, c = star_monomial(1, (), (1,))
        assert (tuple(bhat), tuple(ahat), c) == ((), (1,), Scalar(0, 1))
        bhat, ahat, c = star_monomial(1, (), ())
        assert (tuple(bhat), tuple(ahat), c) == ((1,), (1,), Scalar(0, Fraction(1, 2)))
        bhat, ahat, c = star_monomial(2, (1,), (1,))
        assert (tuple(bhat), tuple(ahat)) == ((2,), (2,))
        assert c == Scalar(1)

    def test_star_of_constants_and_volume(self):
        for n in (1, 2, 3):
            model = abelian_model(n)
            data = HermitianData(model)
            assert data.star(Form.monomial(n)) == volume_form(n)
            assert data.star(volume_form(n)) == Form.monomial(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_matches_defining_equation_oracle(self, n):
        data = HermitianData(abelian_model(n))
        for p in range(n + 1):
            for q in range(n + 1):
                for (al, be) in basis_monomials(n, p, q):
                    x = Form.monomial(n, al, be)
                    assert data.star(x) == star_oracle(data, x)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_equation_on_all_monomial_pairs(self, n):
        data = HermitianData(abelian_model(n))
        dV = volume_form(n)
        monos = [
            Form.monomial(n, al, be)
            for p in range(n + 1)
            for q in range(n + 1)
            for (al, be) in basis_monomials(n, p, q)
        ]
        for x in monos:
            for y in monos:
                lhs = dV.scale(h(x, y))
                rhs = x.wedge(data.star(y).conjugate()).project(n, n)
                assert lhs == rhs

    def test_pairing_weights_and_sesquilinearity(self):
        n = 2
        data = HermitianData(abelian_model(n))
        one = Form.monomial(n)
        assert h(one, one) == SymScalar.const(1)
        x = Form.phi(n, 1)
        assert h(x, x) == SymScalar.const(2)
        top = Form.monomial(n, (1, 2), (1, 2))
        assert h(top, top) == SymScalar.const(16)
        i = SymScalar.const(Scalar(0, 1))
        assert h(x.scale(i), x) == i * SymScalar.const(2)
        assert h(x, x.scale(i)) == -i * SymScalar.const(2)
        assert h(x, Form.phibar(n, 1)) == SymScalar.const(0)

    def test_integral_normalization(self):
        for n in (1, 2, 3):
            data = HermitianData(abelian_model(n))
            assert data.integral(volume_form(n)) == SymScalar.const(1)


def _all_monomial_forms(n, p, q):
    return [Form.monomial(n, al, be) for (al, be) in basis_monomials(n, p, q)]


class TestAdjointness:
    @pytest.mark.parametrize("a", A_PARAMS)
    def test_dbar_star_is_the_exact_adjoint_on_kt(self, a):
        model = kt_model(a)
        ctx = SectionContext(model)
        n = model.n
        for p in range(n + 1):
            for q in range(n):
                for x in _all_monomial_forms(n, p, q):
                    for y in _all_monomial_forms(n, p, q + 1):
                        lhs = h(ctx.dbar(x), y)
                        rhs = h(x, ctx.dbar_star(y))
                        assert lhs == rhs

    def test_dbar_star_is_the_exact_adjoint_on_abelian(self):
        model = abelian_model(2)
        ctx = SectionContext(model)
        for p in range(3):
            for q in range(2):
                for x in _all_monomial_forms(2, p, q):
                    for y in _all_monomial_forms(2, p, q + 1):
                        assert h(ctx.dbar(x), y) == h(x, ctx.dbar_star(y))

    def test_adjointness_inside_a_character_block(self):
        model = kt_model(PiParam.rational_pi(4))
        chars = model.characters(bundle_power=1)
        nontrivial = [ch for ch in chars if not ch.is_trivial()]
        assert nontrivial, "rational-branch model must supply Fourier blocks"
        for ch in nontrivial:
            ctx = SectionContext(model, character=ch)
            for x in _all_monomial_forms(2, 0, 0):
                for y in _all_monomial_forms(2, 0, 1):
                    assert h(ctx.dbar(x), y) == h(x, ctx.dbar_star(y))

    def test_laplacian_is_self_adjoint_and_nonnegative_diagonal(self):
        model = kt_model(PiParam.generic())
        ctx = SectionContext(model)
        for x in _all_monomial_forms(2, 1, 1):
            for y in _all_monomial_forms(2, 1, 1):
                assert h(ctx.laplacian(x), y) == h(x, ctx.laplacian(y))


class TestHarmonicSpaces:
    def test_abelian_dimensions_are_binomial_products(self):
        from math import comb

        model = abelian_model(2)
        for p in range(3):
            for q in range(3):
                space = invariant_harmonic_space(model, p, q)
                assert space.dimension == comb(2, p) * comb(2, q)

    @pytest.mark.parametrize("a", KT_PARAMS)
    def test_kt_pluricanonical_kernels_match_the_closed_form(self, a):
        """The blocks come from K and torus.kt_plurigenus from the mode
        equation, so each checks the other, across the jump in a."""
        model = kt_model(a)
        for m in range(1, 13):
            space = invariant_harmonic_space(model, 0, 0, bundle_power=m)
            assert space.dimension == kt_plurigenus(a, m)

    @pytest.mark.parametrize("a", KT_PARAMS)
    def test_kt_irregularity_matches_the_kernel(self, a):
        space = invariant_harmonic_space(kt_model(a), 1, 0)
        assert space.dimension == kt_irregularity(a) == 1

    def test_section_count_matches_the_monomial_list(self, nil8_generic):
        from acx.g2 import s6_model

        for model in (abelian_model(3), kt_model(PiParam.rational_pi(4)), nil8_generic,
                      s6_model()):
            for p in range(model.n + 2):
                for q in range(model.n + 2):
                    want = len(hodge._section_monomials(model, p, q))
                    assert hodge.section_count(model, p, q) == want

    def test_a_negative_bidegree_is_refused(self):
        with pytest.raises(InputError, match=r"bidegree \(-1,0\) must be non-negative"):
            invariant_harmonic_space(abelian_model(2), -1, 0)

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -2)])
    def test_section_count_refuses_a_negative_bidegree(self, p, q):
        # math.comb's bare ValueError would read as a fault of acx
        with pytest.raises(InputError, match=rf"bidegree \({p},{q}\) must be non-negative"):
            hodge.section_count(abelian_model(2), p, q)

    def test_a_negative_serre_target_is_refused(self):
        # the target bidegree (n-p, n-q) of (3,0) on a 2-dim model
        with pytest.raises(InputError, match=r"bidegree \(-1,2\) must be non-negative"):
            serre_pairing_check(abelian_model(2), 3, 0)

    @pytest.mark.parametrize("p,q,power", [(1, 1, 0), (2, 1, 1)])
    def test_operator_matrix_rows_hold_only_nonzero_entries(self, nil8_generic, p, q, power):
        # one dict row per monomial key of the images, each entry a nonzero
        # image term in a column below ncols, and no image term lost
        model = nil8_generic
        bundle = CanonicalPower(model).structure(power) if power else None
        monomials = hodge._section_monomials(model, p, q)
        sections = [Form.monomial(model.n, a, b) for a, b in monomials]
        for ch in model.characters(power):
            ctx = SectionContext(model, bundle, ch)
            for op in (ctx.dbar, ctx.dbar_star, ctx.laplacian):
                rows, ncols = hodge._operator_matrix(sections, op)
                assert ncols == len(monomials) and rows
                assert all(row and all(0 <= j < ncols and not c.is_zero() for j, c in row.items())
                           for row in rows)
                terms = sum(len(op(Form.monomial(model.n, a, b)).terms) for a, b in monomials)
                assert sum(map(len, rows)) == terms

    def test_non_unimodular_input_is_refused(self):
        alg = LieAlgebra(2, {(1, 2): {2: 1}})
        J = ACStructure([[0, -1], [1, 0]])
        model = LieACS(alg, J, name="affine")
        with pytest.raises(InputError):
            invariant_harmonic_space(model, 0, 0)

    def test_serre_pairing_on_flat_models(self):
        model = abelian_model(2)
        for (p, q) in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            report = serre_pairing_check(model, p, q)
            assert report.ok, report.detail

    def test_serre_pairing_on_kt(self):
        model = kt_model(PiParam.rational_pi(4))
        for (p, q) in [(0, 0), (1, 0), (2, 2)]:
            report = serre_pairing_check(model, p, q)
            assert report.ok, report.detail

    def test_blocks_carry_their_characters(self):
        model = kt_model(PiParam.rational_pi(4))
        space = invariant_harmonic_space(model, 0, 0, bundle_power=1)
        keys = {blk.character.key() for blk in space.blocks}
        assert len(keys) == len(space.blocks)
        assert sum(blk.dimension for blk in space.blocks) == space.dimension

    @pytest.mark.parametrize("m", [1, -1, 2])
    def test_twisted_serre_pairing_on_kt(self, m):
        """K^m against K^-m on kt(4 pi): the source and target blocks carry
        nontrivial conjugate characters."""
        model = kt_model(PiParam.rational_pi(4))
        dims = {}
        for p in range(3):
            for q in range(3):
                report = serre_pairing_check(model, p, q, bundle_power=m)
                assert report.ok, (p, q, report.detail)
                dims[(p, q)] = report.dim_source
        if m == 1:
            assert dims[(1, 1)] == 3
        if m == -1:
            assert dims[(2, 1)] == 2
        space = invariant_harmonic_space(model, 1, 1, bundle_power=m)
        assert any(b.dimension for b in space.blocks if not b.character.is_trivial())


class TestLineBundles:
    """Harmonic sections are valued in line bundles: a section is a Form."""

    @pytest.mark.parametrize("twisted", [False, True], ids=["untwisted", "character"])
    def test_a_bundle_of_rank_two_is_refused(self, twisted):
        model = kt_model(PiParam.rational_pi(4))
        ch = model.characters(1)[1] if twisted else None
        assert ch is None or not ch.is_trivial()
        with pytest.raises(InputError, match="line bundles"):
            SectionContext(model, trivial_structure(model, 2), ch)

    def test_operators_take_and_return_a_form(self):
        model = kt_model(PiParam.rational_pi(4))
        ctx = SectionContext(model, character=model.characters(1)[1])
        x = Form.monomial(2, (1,), ())
        for op in (ctx.dbar, ctx.nabla10, ctx.dbar_star, ctx.laplacian):
            assert isinstance(op(x), Form)


class TestCrossChecksFail:
    """The harmonic-kernel comparison and each verdict of the Serre check,
    made to fail by tampering with one of the computations they compare."""

    @staticmethod
    def tamper_both_kernel(monkeypatch, tamper):
        # each block asks for ker dbar intersect ker dbar* first: tamper with
        # that answer, which then fails the certificate, so the block
        # eliminates the Laplacian too and compares the two kernels
        real = hodge.kernel_basis
        calls = []

        def fake(rows, ncols=None):
            basis = real(rows, ncols=ncols)
            calls.append(rows)
            return tamper(basis, ncols) if len(calls) == 1 else basis

        monkeypatch.setattr(hodge, "kernel_basis", fake)

    @staticmethod
    def standard_vectors(basis, ncols):
        # as many standard basis vectors as the true kernel has: on kt (1,1)
        # they span another 3-dim subspace of the 4 monomials
        return [{j: SymScalar.const(1)} for j in range(len(basis))]

    def test_kernels_of_different_sizes(self, monkeypatch):
        self.tamper_both_kernel(monkeypatch, lambda basis, ncols: basis[:-1])
        with pytest.raises(InternalCheckError, match="Laplacian kernel disagrees"):
            invariant_harmonic_space(kt_model(PiParam.generic()), 1, 1)

    def test_kernels_with_different_spans(self, monkeypatch):
        self.tamper_both_kernel(monkeypatch, self.standard_vectors)
        with pytest.raises(InternalCheckError, match="they span different spaces"):
            invariant_harmonic_space(kt_model(PiParam.generic()), 1, 1)

    @pytest.mark.parametrize("which", ["size", "span"])
    def test_kernel_disagreement_exits_three(self, monkeypatch, capsys, which):
        tamper = self.standard_vectors if which == "span" else (lambda basis, ncols: basis[:-1])
        self.tamper_both_kernel(monkeypatch, tamper)
        assert main(["hodge", "--model", "kt", "--a", "generic", "--p", "1", "--q", "1"]) == 3
        assert capsys.readouterr().err.startswith("internal check failed: harmonic kernels: ")

    @staticmethod
    def tamper_target(monkeypatch, tamper):
        # serre_pairing_check computes the source space first, then the
        # target: tamper with the target's blocks
        real = hodge.invariant_harmonic_space
        calls = []

        def fake(model, p, q, **kwargs):
            space = real(model, p, q, **kwargs)
            calls.append(space)
            if len(calls) == 2:
                tamper(space.blocks)
            return space

        monkeypatch.setattr(hodge, "invariant_harmonic_space", fake)

    def test_serre_image_outside_the_target_space(self, monkeypatch):
        def other_span(blocks):  # same block sizes, another span
            for blk in blocks:
                blk.basis = self.standard_vectors(blk.basis, len(blk.monomials))

        self.tamper_target(monkeypatch, other_span)
        report = serre_pairing_check(kt_model(PiParam.generic()), 1, 1)
        assert not report.ok
        assert (report.dim_source, report.dim_target) == (3, 3)
        assert report.detail == "Serre image is not harmonic"

    # On kt(4 pi) the blocks come trivial, +l, -l, and the source's +l
    # block pairs with the target's -l block: at (1,1) and K^1 their
    # dimensions are (0, 3, 0) and (0, 0, 3); at (2,1) and K^0, (1, 1, 0)
    # against the (0,1) target's (1, 0, 1).

    def test_serre_target_of_another_dimension(self, monkeypatch):
        self.tamper_target(monkeypatch, lambda blocks: blocks[0].basis.pop())
        report = serre_pairing_check(kt_model(PiParam.generic()), 1, 1)
        assert not report.ok
        assert (report.dim_source, report.dim_target) == (3, 2)
        assert report.detail == "dimension mismatch"

    def test_serre_target_without_the_conjugate_block(self, monkeypatch):
        def keep_plus_l(blocks):  # the -l sections filed under +l
            trivial, plus, minus = blocks
            plus.basis = minus.basis
            blocks.remove(minus)

        self.tamper_target(monkeypatch, keep_plus_l)
        report = serre_pairing_check(kt_model(PiParam.rational_pi(4)), 1, 1, bundle_power=1)
        assert not report.ok
        assert (report.dim_source, report.dim_target) == (3, 3)
        assert report.detail == "missing conjugate character block in target"

    def test_serre_blocks_of_other_dimensions(self, monkeypatch):
        def move_one(blocks):  # a trivial-block vector moves to the -l block
            blocks[2].basis = blocks[2].basis + [blocks[0].basis.pop()]

        self.tamper_target(monkeypatch, move_one)
        report = serre_pairing_check(kt_model(PiParam.rational_pi(4)), 2, 1)
        assert not report.ok
        assert (report.dim_source, report.dim_target) == (2, 2)
        assert report.detail == "character block dimensions differ"

    def test_serre_pairing_of_zero_integrals(self, monkeypatch):
        monkeypatch.setattr(HermitianData, "integral", lambda self, x: SS_ZERO)
        report = serre_pairing_check(kt_model(PiParam.generic()), 1, 1)
        assert not report.ok
        assert (report.dim_source, report.dim_target) == (3, 3)
        assert report.detail == "pairing matrix is singular"

    def test_perturbed_laplacian(self, monkeypatch):
        # one Laplacian entry changes in a column where the first kernel
        # vector is 1, so Laplacian v != 0 there: the certificate must reject
        # it and the elimination must find the disagreement (in a column
        # where every kernel vector vanishes, the kernel could stay the same)
        real_kernel, real_matrix, real_certify = (hodge.kernel_basis, hodge._operator_matrix,
                                                  hodge.certify_kernel)
        kernels, verdicts = [], []

        def kernel(rows, ncols=None):
            kernels.append(real_kernel(rows, ncols=ncols))
            return kernels[-1]

        def matrix(sections, op):
            rows, ncols = real_matrix(sections, op)
            if op.__name__ == "laplacian":
                column = max(j for j, c in kernels[0][0].items() if c.num)
                rows[0][column] = rows[0].get(column, SS_ZERO) + 1
            return rows, ncols

        def certify(*args):
            verdicts.append(real_certify(*args))
            return verdicts[-1]

        monkeypatch.setattr(hodge, "kernel_basis", kernel)
        monkeypatch.setattr(hodge, "_operator_matrix", matrix)
        monkeypatch.setattr(hodge, "certify_kernel", certify)
        with pytest.raises(InternalCheckError,
                           match="Laplacian kernel disagrees|they span different spaces"):
            invariant_harmonic_space(kt_model(PiParam.generic()), 1, 1)
        assert verdicts == [False]


class TestComputeOnce:
    """One elimination per linear-algebra question, whatever the kernel size."""

    @staticmethod
    def count_eliminations(monkeypatch):
        calls = []
        real = linalg.row_echelon

        def counting(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(linalg, "row_echelon", counting)
        return calls

    @pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (2, 2)])
    def test_flat_blocks_make_no_elimination(self, monkeypatch, p, q):
        # every operator vanishes on the torus, so both kernels come from
        # matrices without rows: the one elimination has no row to reduce,
        # and the Laplacian's kernel is certified with none
        model = abelian_model(3)
        calls = self.count_eliminations(monkeypatch)
        space = invariant_harmonic_space(model, p, q)
        assert space.dimension == comb(3, p) * comb(3, q)
        assert len(space.blocks) == 1
        assert calls == [0]

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1)])
    def test_one_elimination_per_certified_block(self, monkeypatch, nil8_generic, p, q):
        # ker dbar intersect ker dbar* is eliminated; the Laplacian's kernel
        # is certified equal to it with no elimination
        calls = self.count_eliminations(monkeypatch)
        space = invariant_harmonic_space(nil8_generic, p, q)
        assert space.dimension >= 8
        assert len(calls) == len(space.blocks) == 1

    def test_two_eliminations_per_undecided_block(self, monkeypatch, nil8_generic):
        # an undecided block eliminates the Laplacian too and compares the
        # two canonical bases entry by entry
        monkeypatch.setattr(hodge, "certify_kernel", lambda rows, ncols, basis: False)
        calls = self.count_eliminations(monkeypatch)
        space = invariant_harmonic_space(nil8_generic, 2, 1)
        assert len(calls) == 2 * len(space.blocks) == 2

    @pytest.mark.parametrize("case", ["nil8", "kt-4pi"])
    def test_each_section_is_built_once_per_call(self, monkeypatch, nil8_generic, case):
        # the sections are built once and shared by the three operators of
        # every character block: one Form.monomial per section monomial
        if case == "nil8":
            model, p, q, power, blocks = nil8_generic, 2, 1, 1, 1
        else:
            model, p, q, power, blocks = kt_model(PiParam.rational_pi(4)), 1, 1, 2, 5
        monomials = hodge._section_monomials(model, p, q)
        calls = []
        real = Form.monomial
        monkeypatch.setattr(Form, "monomial", staticmethod(
            lambda n, alpha=(), beta=(), coeff=1: calls.append((alpha, beta))
            or real(n, alpha, beta, coeff)))
        space = invariant_harmonic_space(model, p, q, bundle_power=power)
        assert len(space.blocks) == blocks
        assert sorted(c for c in calls if c in monomials) == sorted(monomials)

    def test_no_block_builds_a_volume_form(self, monkeypatch):
        # each of the 5 blocks builds its metric data, which reads dV's one
        # coefficient in closed form and builds no Form for it
        calls = []
        real = hodge.volume_form
        monkeypatch.setattr(hodge, "volume_form", lambda n: calls.append(n) or real(n))
        space = invariant_harmonic_space(kt_model(PiParam.rational_pi(4)), 1, 1, bundle_power=2)
        assert len(space.blocks) == 5
        assert calls == []

    def test_undecided_blocks_keep_the_golden_output(self, monkeypatch):
        # every hodge case of the golden corpus, with each block left to the
        # elimination and list comparison: the same bytes, two kernels a block
        from test_golden import CASES, golden

        asked, kernels = [], []
        real = hodge.kernel_basis
        monkeypatch.setattr(hodge, "certify_kernel",
                            lambda rows, ncols, basis: asked.append(ncols) or False)
        monkeypatch.setattr(hodge, "kernel_basis",
                            lambda rows, ncols=None: kernels.append(ncols) or real(rows, ncols))
        cases = [case for case in CASES if case["argv"][0] == "hodge"]
        for case in cases:
            code, out = golden.run_case(case["argv"])
            assert (code, out) == (case["exit"], golden.out_path(case["name"]).read_bytes())
        assert len(cases) >= 20 and asked
        assert len(kernels) == 2 * len(asked)


class TestReport:
    def test_findings_are_attributes_and_failure_lists_print_as_lengths(self):
        report = hodge.Report(False, {"checked": 3, "shown": ["[a,b]"]},
                              failures=[(1, 2), (3, 4)])
        assert (report.checked, report.shown, report.failures) == (3, ["[a,b]"], [(1, 2), (3, 4)])
        assert report.summary() == {"checked": 3, "shown": ["[a,b]"], "failures": 2, "ok": False}
        assert list(report.summary())[-1] == "ok"

    def test_a_finding_stated_twice_is_refused(self):
        with pytest.raises(TypeError):
            hodge.Report(True, {"failures": 0}, failures=[])
