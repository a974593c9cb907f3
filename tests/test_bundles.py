"""Pseudoholomorphic bundle structures: Leibniz signs, canonical powers,
connections, and duals."""

import pytest

from acx.bundles import (
    CanonicalPower,
    PseudoholStructure,
    trivial_structure,
)
from acx.errors import InputError
from acx.forms import Form, basis_monomials
from acx.models import abelian_model, kt_model
from acx.scalars import PiParam, Scalar, SymScalar


A_GENERIC = PiParam.generic()
A_4PI = PiParam.rational_pi(4)


class TestPseudoholStructure:
    def test_theta_entries_must_be_zero_one_forms(self):
        model = abelian_model(2)
        bad = Form.phi(2, 1)
        with pytest.raises(InputError):
            PseudoholStructure(model, [[bad]])
        with pytest.raises(InputError):
            PseudoholStructure(model, [[Form.zero(2), Form.phibar(2, 1)]])

    def test_leibniz_sign_alternates_with_total_degree(self):
        model = kt_model(A_GENERIC)
        n = model.n
        theta = Form.phibar(n, 1).scale(SymScalar.const(Scalar(2, 1)))
        ps = PseudoholStructure(model, [[theta]])
        for p in range(n + 1):
            for q in range(n + 1):
                for (al, be) in basis_monomials(n, p, q):
                    x = Form.monomial(n, al, be)
                    sign = -1 if (p + q) % 2 else 1
                    expected = model.coframe.dbar(x) + x.wedge(theta).scale(sign)
                    assert ps.dbar_section([x]) == [expected]

    def test_trivial_structure_is_plain_dbar(self):
        model = kt_model(A_4PI)
        ps = trivial_structure(model, rank=2)
        x = Form.phi(2, 1)
        y = Form.monomial(2, (2,), (1,))
        got = ps.dbar_section([x, y])
        assert got == [model.coframe.dbar(x), model.coframe.dbar(y)]

    def test_rank_validation(self):
        model = abelian_model(1)
        with pytest.raises(InputError):
            PseudoholStructure(model, [])
        with pytest.raises(InputError):
            PseudoholStructure(model, [[Form.zero(1), Form.zero(1)]])


class TestCanonicalPower:
    @pytest.mark.parametrize("a", [A_4PI, A_GENERIC])
    def test_beta_one_is_the_volume_twist(self, a):
        model = kt_model(a)
        can = CanonicalPower(model)
        quarter_a = a.a_value() / SymScalar.const(4)
        assert can.beta(1) == Form.monomial(2, (), (1,), quarter_a)
        vol = Form.monomial(2, (1, 2), ())
        assert model.coframe.dbar(vol) == can.beta(1).wedge(vol)

    @pytest.mark.parametrize("m", [-3, -1, 0, 1, 2, 5])
    def test_power_twists_scale_linearly(self, m):
        model = kt_model(A_GENERIC)
        can = CanonicalPower(model)
        assert can.beta(m) == can.beta1.scale(m)

    def test_abelian_canonical_bundle_is_flat(self):
        can = CanonicalPower(abelian_model(2))
        assert can.beta(3).is_zero()

    def test_structure_wraps_beta(self):
        can = CanonicalPower(kt_model(A_4PI))
        ps = can.structure(2)
        assert ps.rank == 1
        assert ps.theta[0][0] == can.beta(2)

    def test_non_integer_power_rejected(self):
        with pytest.raises(InputError):
            CanonicalPower(kt_model(A_4PI)).beta("2")


class TestConnectionAndDual:
    def _structures(self):
        yield CanonicalPower(kt_model(A_4PI)).structure(1)
        yield CanonicalPower(kt_model(A_GENERIC)).structure(2)
        model = kt_model(A_GENERIC)
        z = Form.zero(2)
        theta = [
            [Form.phibar(2, 1), Form.phibar(2, 2).scale(SymScalar.const(Scalar(0, 1)))],
            [z, Form.phibar(2, 1) - Form.phibar(2, 2)],
        ]
        yield PseudoholStructure(model, theta)

    def test_connection_is_skew_hermitian_with_01_part_theta(self):
        for ps in self._structures():
            omega = ps.connection()
            r = ps.rank
            for i in range(r):
                for j in range(r):
                    assert (omega[i][j] + omega[j][i].conjugate()).is_zero()
                    assert omega[i][j].project(0, 1) == ps.theta[i][j]
                    assert omega[i][j] == ps.theta[i][j] + ps.theta10[i][j]

    def test_nabla10_conjugates_nothing(self, monkeypatch):
        # theta10 is built with the structure, so the covariant derivative
        # reads it and conjugates no entry of theta
        structures = list(self._structures())
        calls = []
        real = Form.conjugate
        monkeypatch.setattr(Form, "conjugate", lambda x: calls.append(x) or real(x))
        for ps in structures:
            n = ps.model.n
            for x in (Form.phi(n, 1), Form.monomial(n, (2,), (1,)), Form.phibar(n, 2)):
                out = ps.nabla10_section([x] * ps.rank)
                assert len(out) == ps.rank
        assert calls == []

    def test_dual_is_an_involution(self):
        for ps in self._structures():
            dd = ps.dual().dual()
            assert dd.theta == ps.theta

    def test_dual_satisfies_the_pairing_identity(self):
        for ps in self._structures():
            dual = ps.dual()
            r = ps.rank
            for i in range(r):
                for j in range(r):
                    assert (dual.theta[i][j] + ps.theta[j][i]).is_zero()
