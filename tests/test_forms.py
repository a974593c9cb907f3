"""Bigraded exterior algebra on the complex coframe."""

import itertools
import math
import random

import pytest

from acx.forms import (
    Form,
    basis_monomials,
    complement,
    merge_indices,
    perm_sign,
)
from acx.scalars import Scalar, SymScalar


def rand_form(rng, n, p, q, density=3):
    monos = basis_monomials(n, p, q)
    out = Form.zero(n)
    for (a, b) in rng.sample(monos, min(density, len(monos))):
        c = Scalar(rng.randint(-5, 5), rng.randint(-5, 5))
        out = out + Form.monomial(n, a, b, c)
    return out


class TestMultiIndex:
    def test_strictly_increasing_required(self):
        assert Form(3, {((1, 3), ()): 1}).monomials() == [((1, 3), ())]
        for key in ((3, 1), (2, 2)):
            with pytest.raises(ValueError) as info:
                Form(3, {(key, ()): 1})
            assert str(info.value) == f"multi-index must be strictly increasing, got {key}"

    def test_merge_sign_counts_transpositions(self):
        merged, sign = merge_indices((2,), (1,))
        assert merged == (1, 2) and sign == -1
        merged, sign = merge_indices((1, 3), (2,))
        assert merged == (1, 2, 3) and sign == -1
        merged, sign = merge_indices((1, 2), (3, 4))
        assert merged == (1, 2, 3, 4) and sign == 1

    def test_merge_repeated_index_vanishes(self):
        assert merge_indices((1, 2), (2,)) is None

    def test_complement(self):
        assert complement((1, 3), 4) == (2, 4)
        assert complement((), 2) == (1, 2)


class TestForm:
    def test_monomial_requires_sorted_indices(self):
        n = 3
        with pytest.raises(ValueError):
            Form.monomial(n, (2, 1), ())
        with pytest.raises(ValueError):
            Form.monomial(n, (1, 1), ())
        assert Form.phi(n, 2).wedge(Form.phi(n, 1)) == -Form.monomial(n, (1, 2), ())
        assert Form.phi(n, 1).wedge(Form.phi(n, 1)).is_zero()

    def test_wedge_is_associative_and_graded_commutative(self):
        rng = random.Random(31)
        n = 3
        for _ in range(40):
            px, qx = rng.randint(0, 2), rng.randint(0, 2)
            py, qy = rng.randint(0, 2), rng.randint(0, 2)
            x = rand_form(rng, n, px, qx)
            y = rand_form(rng, n, py, qy)
            z = rand_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
            sign = -1 if ((px + qx) * (py + qy)) % 2 else 1
            assert x.wedge(y) == y.wedge(x).scale(sign)
            assert x.wedge(y.wedge(z)) == x.wedge(y).wedge(z)

    def test_wedge_degree_overflow_is_zero(self):
        n = 2
        top = Form.monomial(n, (1, 2), (1, 2))
        assert top.wedge(Form.phi(n, 1)).is_zero()

    def test_conjugate_swaps_bidegree(self):
        rng = random.Random(32)
        n = 3
        for _ in range(40):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            x = rand_form(rng, n, p, q)
            y = rand_form(rng, n, rng.randint(0, 2), rng.randint(0, 2))
            assert x.conjugate().conjugate() == x
            assert x.wedge(y).conjugate() == x.conjugate().wedge(y.conjugate())
            if not x.is_zero():
                assert x.conjugate().bidegrees() == [(q, p)]

    def test_conjugate_of_phi_is_phibar(self):
        n = 2
        assert Form.phi(n, 1).conjugate() == Form.phibar(n, 1)
        x = Form.monomial(n, (1,), (2,), Scalar(0, 1))
        assert x.conjugate() == Form.monomial(n, (2,), (1,), Scalar(0, 1))

    def test_projection_partitions_the_form(self):
        rng = random.Random(33)
        n = 3
        x = Form.zero(n)
        for p in range(3):
            for q in range(3):
                x = x + rand_form(rng, n, p, q, density=2)
        total = Form.zero(n)
        for p, q in x.bidegrees():
            piece = x.project(p, q)
            assert piece.bidegrees() == [(p, q)]
            total = total + piece
        assert total == x

    def test_coefficient_lookup(self):
        n = 3
        x = Form.monomial(n, (1, 2), (), Scalar(5))
        assert x.coefficient((1, 2), ()) == SymScalar.const(5)
        assert x.coefficient((1, 3), ()) == SymScalar.const(0)

    def test_mixed_frame_sizes_rejected(self):
        with pytest.raises(ValueError):
            Form.phi(2, 1) + Form.phi(3, 1)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            Form.phi(2, 3)

    def test_rendering(self):
        n = 2
        x = Form.monomial(n, (1,), (2,), Scalar(0, 1)) - Form.monomial(n, (1, 2), ())
        assert x.to_str() == "i*phi1^phibar2 - phi1^phi2"

    def test_immutable(self):
        x = Form.phi(3, 1).wedge(Form.phibar(3, 2)) + Form.monomial(3)
        for name, value in (("n", 2), ("terms", {}), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert x.n == 3 and len(x.terms) == 2

    def test_attributes_cannot_be_deleted(self):
        x = Form.phi(3, 1) + Form.monomial(3)
        for name in ("n", "terms", "extra"):
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x.n == 3 and len(x.terms) == 2


class TestHelpers:
    def test_wedge_all(self):
        n = 3
        fs = [Form.phi(n, 1), Form.phibar(n, 2), Form.phi(n, 3)]
        assert fs[0].wedge(fs[1]).wedge(fs[2]) == Form.monomial(n, (1, 3), (2,), -1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_monomial_counts(self, n):
        for p in range(n + 1):
            for q in range(n + 1):
                got = basis_monomials(n, p, q)
                assert len(got) == math.comb(n, p) * math.comb(n, q)
                assert len(set(got)) == len(got)

    def test_perm_sign_is_the_inversion_parity(self):
        # reference: a permutation with c cycles on k points has sign (-1)^(k - c)
        for perm in itertools.permutations(range(4)):
            seen, cycles = set(), 0
            for start in range(4):
                if start not in seen:
                    cycles += 1
                    k = start
                    while k not in seen:
                        seen.add(k)
                        k = perm[k]
            assert perm_sign(perm) == (-1) ** (4 - cycles)

    def test_perm_sign_of_sparse_entries(self):
        # only the relative order counts, not the values
        assert perm_sign([0, 2, 1, 3]) == perm_sign([0, 5, 3, 9]) == -1
        assert perm_sign([]) == perm_sign([7]) == 1
