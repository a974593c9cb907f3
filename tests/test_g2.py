"""The seven-dimensional matrix model, cross product, and sphere census.

The expensive sweeps run once per session (see conftest.py); these tests
read the reports and additionally spot-check frozen values directly.
"""

import contextlib
import io
import json
import math
import random
import types

import pytest

from acx import g2
from acx.cli import main
from acx.bundles import CanonicalPower, PseudoholStructure
from acx.errors import InputError, RefusalError
from acx.forms import Form
from acx.hodge import serre_pairing_check
from acx.lie import ACStructure
from acx.models import abelian_model
from acx.scalars import Scalar, SymScalar


def s6_coframe_bundle():
    """The rank-three bundle spanned by the basic coframe, with the operator
    read off the structure equations.

    Writing dbar(phi^i) = sum_{j,k} c^i_{jk} phi^j ^ phibar^k, the frame
    section s_i = phi^i satisfies dbar s_i = sum_j theta[i][j] tensor s_j
    with theta[i][j] = -sum_k c^i_{jk} phibar^k, and the assembled matrix is
    re-checked against the structure equations term by term.
    """
    model = g2.s6_model()
    d_phi = model.coframe.d_phi
    zero = Form.zero(model.n)
    theta = [[zero for _ in range(3)] for _ in range(3)]
    for i in range(1, 4):
        for (alpha, beta), c in d_phi(i).project(1, 1).terms.items():
            (j,), (k,) = alpha, beta
            if j > 3:
                raise RefusalError(
                    "the coframe span is not preserved: "
                    f"dbar phi^{i} has a phi^{j} component"
                )
            theta[i - 1][j - 1] = theta[i - 1][j - 1] - Form.monomial(
                model.n, (), (k,), c
            )
    for i in range(1, 4):
        total = Form.zero(model.n)
        for j in range(1, 4):
            total = total + theta[i - 1][j - 1].wedge(Form.phi(model.n, j))
        if not (total - d_phi(i).project(1, 1)).is_zero():
            raise RefusalError(
                f"coframe-bundle operator does not reproduce dbar phi^{i}"
            )
    return PseudoholStructure(model, theta)


def rand_element(rng):
    coords = [rng.randint(-4, 4) for _ in range(14)]
    return g2.G2Element(coords[:6], coords[6:])


class TestElements:
    def test_matrix_roundtrip(self):
        rng = random.Random(11)
        for _ in range(8):
            elem = rand_element(rng)
            assert g2.G2Element.from_matrix(elem.matrix) == elem

    def test_matrix_outside_span_is_rejected(self):
        elem = g2.g2_basis()["f1"]
        rows = [list(row) for row in elem.matrix]
        rows[0][0] = Scalar(1)
        with pytest.raises(InputError):
            g2.G2Element.from_matrix(rows)

    def test_skew_but_non_member_matrix_is_rejected(self):
        rows = [[Scalar(0)] * 7 for _ in range(7)]
        rows[1][2] = Scalar(1)
        rows[2][1] = Scalar(-1)
        with pytest.raises(InputError):
            g2.G2Element.from_matrix(rows)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            g2.G2Element((1, 2), (3,))
        with pytest.raises(InputError):
            g2.G2Element.from_matrix([[Scalar(0)] * 6 for _ in range(6)])
        # lifting a matrix, as from_matrix does, refuses every other shape alike
        for rows, cols in ((3, 3), (7, 8), (8, 7)):
            with pytest.raises(InputError, match="^matrix must be 7x7$"):
                g2._lift_matrix([[Scalar(0)] * cols for _ in range(rows)])

    def test_immutable(self):
        elem = g2.G2Element((0,) * 6, (0,) * 8)
        with pytest.raises(AttributeError):
            elem.den = 2

    def test_attributes_cannot_be_deleted(self):
        elem = g2.G2Element((0,) * 6, (0,) * 8)
        for name in ("den", "_coords", "entries", "extra"):
            with pytest.raises(AttributeError):
                delattr(elem, name)
        assert elem == g2.G2Element((0,) * 6, (0,) * 8)

    def test_bracket_closes_and_is_antisymmetric(self):
        rng = random.Random(12)
        for _ in range(6):
            a, b = rand_element(rng), rand_element(rng)
            ab = g2.bracket(a, b)
            assert isinstance(ab, g2.G2Element)
            assert ab == -g2.bracket(b, a)

    def test_bracket_bilinearity(self):
        rng = random.Random(13)
        a, b, c = (rand_element(rng) for _ in range(3))
        lhs = g2.bracket(a, b + c + c + c)
        ac = g2.bracket(a, c)
        rhs = g2.bracket(a, b) + ac + ac + ac
        assert lhs == rhs


class TestBracketTable:
    def test_every_catalogue_entry_is_recomputed(self, bracket_report):
        assert bracket_report.checked == 76

    def test_no_mismatches_and_empty_errata(self, bracket_report):
        assert bracket_report.mismatches == []
        assert bracket_report.unregistered_mismatches == []
        assert g2.BRACKET_TABLE_ERRATA == {}

    def test_jacobi_sweep_is_clean(self, bracket_report):
        assert bracket_report.jacobi_failures == []
        assert math.comb(14, 3) == 364

    def test_h_span_closes_and_dimension(self, bracket_report):
        assert bracket_report.h_closed
        assert bracket_report.dimension == 14

    def test_report_ok_and_summary(self, bracket_report):
        assert bracket_report.ok
        summary = bracket_report.summary()
        assert summary["checked"] == 76
        assert summary["jacobi_failures"] == 0
        assert summary["dimension"] == 14
        assert summary["ok"] is True


    def test_catalogue_mismatches_and_errata(self, monkeypatch):
        # one wrong entry with a registered erratum, one without
        table = dict(g2.REFERENCE_BRACKET_TABLE)
        table[("f1", "f4")] = {"f5": 2}
        table[("f2", "f4")] = {"h4": 1}
        monkeypatch.setattr(g2, "REFERENCE_BRACKET_TABLE", table)
        monkeypatch.setattr(g2, "BRACKET_TABLE_ERRATA", {("f1", "f4"): {"f5": 1}})
        report = g2.verify_bracket_table()
        assert report.checked == 76
        assert [d["pair"] for d in report.mismatches] == [("f1", "f4"), ("f2", "f4")]
        assert report.mismatches[1]["computed"] == {"h4": "-1"}
        assert [d["pair"] for d in report.unregistered_mismatches] == [("f2", "f4")]
        assert report.summary()["mismatches"] == 2
        assert report.summary()["unregistered_mismatches"] == 1
        assert not report.ok


class TestCrossProduct:
    def test_report(self, cross_report):
        assert cross_report.orthogonality_failures == []
        assert cross_report.double_cross_failures == []
        assert cross_report.e1_cross_e6 is True
        assert cross_report.j_at_e1_table is True
        assert cross_report.ok

    def test_e1_cross_e6_is_e7(self):
        e1, e6, e7 = (g2.basis_vector(k) for k in (1, 6, 7))
        assert g2.cross_product().cross(e1, e6) == e7

    def test_calibration_form_spot_value(self):
        cp = g2.cross_product()
        e1, e2, e3 = (g2.basis_vector(k) for k in (1, 2, 3))
        assert cp.phi(e1, e2, e3) == Scalar(1)

    def test_identities_on_random_vectors(self):
        cp = g2.cross_product()
        rng = random.Random(14)
        for _ in range(6):
            u = tuple(Scalar(rng.randint(-3, 3)) for _ in range(7))
            v = tuple(Scalar(rng.randint(-3, 3)) for _ in range(7))
            uv = cp.cross(u, v)
            assert cp.dot(uv, u).is_zero()
            assert cp.dot(uv, v).is_zero()
            lhs = cp.cross(u, uv)
            dot_uv, dot_uu = cp.dot(u, v), cp.dot(u, u)
            rhs = tuple(dot_uv * a - dot_uu * b for a, b in zip(u, v))
            assert lhs == rhs

    def test_commutator_of_members_is_member(self):
        cp = g2.cross_product()
        rng = random.Random(15)
        a, b = rand_element(rng), rand_element(rng)
        assert cp.is_member(a._entries)
        assert cp.is_member(g2.bracket(a, b)._entries)

    def test_plain_rotation_is_not_a_member(self):
        cp = g2.cross_product()
        rows = [[Scalar(0)] * 7 for _ in range(7)]
        rows[1][2] = Scalar(1)
        rows[2][1] = Scalar(-1)
        assert not cp.is_member(g2._lift_matrix(rows)[0])

    def test_plain_rotation_does_not_preserve_the_form(self):
        cp = g2.cross_product()
        rows = [[Scalar(0)] * 7 for _ in range(7)]
        rows[1][2] = Scalar(1)
        rows[2][1] = Scalar(-1)
        assert not cp.preserves_form(g2._lift_matrix(rows)[0])
        basis = g2.g2_basis()
        assert cp.preserves_form((basis["f1"] + basis["h3"] + basis["h3"])._entries)

    def test_epsilon_table(self):
        eps = g2._epsilon()
        assert len(eps) == 42
        want = {}
        for (i, j, k), v in g2.PHI_TERMS.items():
            for even in ((i, j, k), (j, k, i), (k, i, j)):
                want[even] = v
            for odd in ((j, i, k), (i, k, j), (k, j, i)):
                want[odd] = -v
        assert eps == want
        assert eps[(1, 2, 3)] == 1 and eps[(2, 1, 3)] == -1
        assert eps[(7, 5, 2)] == 1 and eps[(5, 3, 6)] == 1

    def test_membership_sample_report(self, membership_report):
        assert membership_report.members_checked == 100
        assert membership_report.nonmembers_checked == 10
        assert membership_report.member_failures == []
        assert membership_report.nonmember_failures == []
        assert membership_report.seed == 20260815
        assert membership_report.ok


class TestProjection:
    def test_report(self, projection_report):
        assert projection_report.kernel_is_h_span is True
        assert projection_report.f_image_table is True
        assert projection_report.intertwine_failures == []
        assert projection_report.form_preservation_failures == []
        assert projection_report.ok

    def test_differential_spot_values(self):
        basis = g2.g2_basis()
        e2 = g2.basis_vector(2)
        assert g2.projection_differential(basis["f1"]) == tuple(-c for c in e2)
        zero7 = tuple(Scalar(0) for _ in range(7))
        assert g2.projection_differential(basis["h3"]) == zero7

    def test_intertwining_reads_J_from_g2_J(self, monkeypatch):
        # swapping the entries of the pair (f1, f2) gives J(f1) = f2 and
        # J(f2) = -f1: still J^2 = -I, but not the rotation at e1
        matrix = [row[:] for row in g2.g2_J().matrix]
        matrix[0][1], matrix[1][0] = matrix[1][0], matrix[0][1]
        monkeypatch.setattr(g2, "g2_J", lambda: ACStructure(matrix))
        report = g2.verify_projection()
        assert report.intertwine_failures == ["f1", "f2"]
        assert not report.ok


class TestSphereStructure:
    def test_model_shape(self):
        model = g2.s6_model()
        assert model.alg.dim == 14
        assert model.n == 7
        assert model.indices == (1, 2, 3)

    def test_structure_displays(self, structure_report):
        assert structure_report.df_failures == []
        assert structure_report.dbar_phi_failures == []
        assert structure_report.dbar_20_failures == []
        assert structure_report.top_form_closed
        assert structure_report.dual_frame is True
        assert structure_report.ok

    def test_reduction_brackets(self, reduction_report):
        assert reduction_report.checked == 6
        assert reduction_report.unregistered_mismatches == []
        assert reduction_report.mismatches == ["[Xb2,Xb7]"]
        assert reduction_report.ok
        assert reduction_report.summary()["mismatches"] == ["[Xb2,Xb7]"]
        assert set(g2.REDUCTION_BRACKET_ERRATA) == {("Xb2", "Xb7")}


class TestFailingVerdicts:
    """Verdicts that no correct table reaches: each fails on one perturbed
    image or display, in the library report and in the CLI's, which exits 1
    with that check alone failing."""

    @staticmethod
    def failing_checks(argv, check, finding):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 1
        report = json.loads(out.getvalue())
        assert [name for name, r in report.items() if isinstance(r, dict) and not r["ok"]] == [
            check]
        return report[check][finding]

    def test_wrong_image_of_f3(self, monkeypatch):
        # f3's image moved by e1, which the intertwining check cannot see,
        # as e1 x e1 = 0
        real, f3, e1 = g2.projection_differential, g2.g2_basis()["f3"], g2.basis_vector(1)
        monkeypatch.setattr(g2, "projection_differential", lambda elem: tuple(
            c + d for c, d in zip(real(elem), e1)) if elem is f3 else real(elem))
        report = g2.verify_projection()
        assert report.f_image_table is False and not report.ok
        assert report.kernel_is_h_span and report.intertwine_failures == []
        assert report.form_preservation_failures == []
        argv = ["g2-verify", "--samples", "2", "--negatives", "1"]
        assert self.failing_checks(argv, "projection", "f_image_table") is False

    def test_wrong_dbar_phi_display(self, monkeypatch):
        monkeypatch.setattr(g2, "S6_DBAR_PHI", {**g2.S6_DBAR_PHI, 2: -g2.S6_DBAR_PHI[2]})
        report = g2.s6_structure_package()
        assert report.dbar_phi_failures == [2] and not report.ok
        assert report.df_failures == [] and report.dbar_20_failures == []
        argv = ["s6-report", "--levels", "4"]
        assert self.failing_checks(argv, "structure", "dbar_phi_failures") == [2]

    def test_wrong_dbar_20_display(self, monkeypatch):
        displays = {**g2.S6_DBAR_20, (2, 3): -g2.S6_DBAR_20[(2, 3)]}
        monkeypatch.setattr(g2, "S6_DBAR_20", displays)
        report = g2.s6_structure_package()
        assert report.dbar_20_failures == [[2, 3]] and not report.ok
        assert report.df_failures == [] and report.dbar_phi_failures == []
        argv = ["s6-report", "--levels", "4"]
        assert self.failing_checks(argv, "structure", "dbar_20_failures") == [[2, 3]]


class TestFailingSweeps:
    """The 14-dim model's sweep verdicts, each failing on one perturbed
    cross-product, contraction or invariance table entry, or on a sampler
    that draws only zeros, in the library and in `g2-verify`, which exits 1."""

    @staticmethod
    def g2_verify():
        """g2-verify's exit code and its report's failing checks, in order."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["g2-verify"])
        report = json.loads(out.getvalue())
        return code, [name for name, r in report.items()
                      if isinstance(r, dict) and not r["ok"]], report

    @pytest.mark.parametrize("key, terms, finding, failures, checks", [
        # e2 x e1 = e2 is not orthogonal to e2
        ((1, 0), [(1, 1)], "orthogonality_failures", [(2, 1)], ["cross_product"]),
        # e2 x e1 = e3 breaks the double cross product at u = e2 only
        ((1, 0), [(2, 1)], "double_cross_failures", [(2, 1), (2, 3)], ["cross_product"]),
        # e1 x e2 = -e3 turns the rotation at e1 the wrong way on (e2, e3),
        # which g2_J no longer intertwines
        ((0, 1), [(2, -1)], "j_at_e1_table", False, ["cross_product", "projection"]),
    ])
    def test_cross_identities(self, monkeypatch, key, terms, finding, failures, checks):
        monkeypatch.setitem(g2.cross_product()._cross, key, terms)
        report = g2.verify_cross_identities()
        assert getattr(report, finding) == failures and not report.ok
        code, failing, printed = self.g2_verify()
        assert (code, failing) == (1, checks)
        shown = failures if isinstance(failures, bool) else len(failures)
        assert printed["cross_product"][finding] == shown

    def test_member_rejected(self, monkeypatch):
        # a term A[1][2] in the first contraction rejects every member with
        # that entry nonzero
        cp = g2.cross_product()
        rows = cp._contractions
        monkeypatch.setattr(cp, "_contractions", [rows[0] + [(0, 1, 1)], *rows[1:]])
        report = g2.membership_sample_check()
        assert report.member_failures and report.nonmember_failures == []
        code, failing, printed = self.g2_verify()
        assert (code, failing) == (1, ["membership"])
        assert printed["membership"]["member_failures"] == len(report.member_failures)

    def test_non_member_accepted(self, monkeypatch):
        # with no contraction left, every skew matrix passes as a member
        cp = g2.cross_product()
        monkeypatch.setattr(cp, "_contractions", [[] for _ in cp._contractions])
        report = g2.membership_sample_check()
        assert report.member_failures == [] and len(report.nonmember_failures) == 10
        code, failing, printed = self.g2_verify()
        assert (code, failing) == (1, ["membership"])
        assert printed["membership"]["nonmember_failures"] == 10

    def test_sampler_of_zeros_is_refused(self, monkeypatch, capsys):
        # randint(a, b) = max(a, 0) draws the zero matrix every time: it lies
        # in the span, so each attempt is skipped until the attempts run out
        class ZeroRng:
            def __init__(self, seed):
                self.draws = 0

            def randint(self, a, b):
                self.draws += 1
                assert self.draws < 100_000, "the sampler does not stop"
                return max(a, 0)

        monkeypatch.setattr(g2, "random", types.SimpleNamespace(Random=ZeroRng))
        with pytest.raises(RefusalError, match="could not sample enough off-span"):
            g2.membership_sample_check()
        assert main(["g2-verify"]) == 1
        assert capsys.readouterr().err == (
            "refused: could not sample enough off-span skew matrices\n")

    def test_form_not_preserved(self, monkeypatch):
        # a term A[1][2] in the (e1, e2, e3) invariance row: f1, the one
        # basis matrix with that entry nonzero, fails
        cp = g2.cross_product()
        rows = cp._invariance
        monkeypatch.setattr(cp, "_invariance", [rows[0] + [(0, 1, 1)], *rows[1:]])
        report = g2.verify_projection()
        assert report.form_preservation_failures == ["f1"] and not report.ok
        code, failing, printed = self.g2_verify()
        assert (code, failing) == (1, ["projection"])
        assert printed["projection"]["form_preservation_failures"] == 1


class TestSphereCanonical:
    def test_twist_vanishes(self):
        canonical = CanonicalPower(g2.s6_model(), 1)
        assert canonical.vol == Form.phi(7, 1).wedge(Form.phi(7, 2)).wedge(Form.phi(7, 3))
        assert canonical.beta1.is_zero()

    def test_plurigenus_levels(self):
        for m in range(1, 9):
            assert g2.s6_plurigenus(m) == 1
        with pytest.raises(InputError):
            g2.s6_plurigenus(0)

    def test_basic_star_spot_values(self):
        gen = Form.phi(7, 1).wedge(Form.phi(7, 2)).wedge(Form.phi(7, 3))
        assert g2.s6_basic_star(gen) == gen.scale(SymScalar.const(Scalar(0, -1)))
        vol_basic = gen.wedge(gen.conjugate()).scale(
            SymScalar.const(Scalar(0, "1/8"))
        )
        assert g2.s6_basic_star(Form.monomial(7)) == vol_basic

    def test_basic_star_rejects_nonbasic(self):
        with pytest.raises(InputError):
            g2.s6_basic_star(Form.phi(7, 4))


class TestCoframeBundle:
    def test_operator_entries(self):
        bundle = s6_coframe_bundle()
        assert len(bundle.theta) == 3
        for row in bundle.theta:
            for entry in row:
                assert entry == entry.project(0, 1)
        assert bundle.theta[0][0] == Form.phibar(7, 4).scale(
            SymScalar.const(Scalar(0, "1/2"))
        )
        assert bundle.theta[2][2] == Form.phibar(7, 4).scale(
            SymScalar.const(Scalar("-1/2"))
        )

    def test_frame_sections_reproduce_operator(self):
        bundle = s6_coframe_bundle()
        for i in range(3):
            comps = [
                Form.monomial(7) if j == i else Form.zero(7) for j in range(3)
            ]
            out = bundle.dbar_section(comps)
            assert out == list(bundle.theta[i])

    def test_connection_is_skew_hermitian(self):
        bundle = s6_coframe_bundle()
        omega = bundle.connection()
        for i in range(3):
            for j in range(3):
                assert omega[i][j] == -omega[j][i].conjugate()
                assert omega[i][j].project(0, 1) == bundle.theta[i][j]

    def test_dual_is_involutive(self):
        bundle = s6_coframe_bundle()
        dual = bundle.dual()
        for i in range(3):
            for j in range(3):
                assert dual.theta[i][j] == bundle.theta[j][i].scale(
                    SymScalar.const(-1)
                )
                assert dual.dual().theta[i][j] == bundle.theta[i][j]


class TestSphereCensus:
    def test_kernel_dimensions(self, sphere_census):
        assert sphere_census.h10 == 0
        assert sphere_census.h20 == 0
        assert sphere_census.h13 == 0
        assert sphere_census.h23 == 0

    def test_plurigenera_and_kodaira(self, sphere_census):
        assert list(sphere_census.plurigenera) == [1] * 8
        assert sphere_census.kodaira_dimension == 0

    def test_duality_transport(self, sphere_census):
        assert sphere_census.serre_bijections is True
        assert sphere_census.star_on_generator is True

    def test_report_ok(self, sphere_census):
        assert sphere_census.ok
        summary = sphere_census.summary()
        assert summary["kodaira_dimension"] == 0
        assert summary["ok"] is True


@pytest.fixture(scope="module")
def serre_report():
    return serre_pairing_check(abelian_model(2), 1, 1)


@pytest.mark.parametrize("check", [
    "bracket_report", "cross_report", "membership_report", "projection_report",
    "structure_report", "reduction_report", "sphere_census", "serre_report",
])
def test_each_printed_finding_is_an_attribute_under_its_key(request, check):
    report = request.getfixturevalue(check)
    summary = report.summary()
    assert list(summary)[-1] == "ok" and summary["ok"] is report.ok
    for key, printed in summary.items():
        value = getattr(report, key)
        if isinstance(value, list) and isinstance(printed, int):
            assert len(value) == printed, key
        else:
            assert value == printed, key
