"""Acceptance gate: the headline exact results, one test per claim.

Every expected value is either a frozen literal or recomputed inline from an
independent closed form; nothing is read back from the code under test.  All
comparisons are exact — there are no tolerances anywhere in this file.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

from acx import g2
from acx.bundles import CanonicalPower
from acx.cli import run
from acx.forms import Form, basis_monomials
from acx.hodge import (
    HermitianData,
    SectionContext,
    invariant_harmonic_space,
    volume_form,
)
from acx.linalg import kernel_basis, span_test, sparse_rows
from acx.models import abelian_model, kt_model
from acx.scalars import PiParam, Scalar, SymScalar
from acx.torus import (
    IntInterval,
    curve_profile,
    kodaira_dimension,
    kt_first_nonzero,
    kt_irregularity,
    kt_plurigenus,
    kt_profile,
    kunneth,
    rr_plurigenus,
    rr_profile,
    t4_family_pair,
    t4_irregularity,
    t4_obstruction,
    t4_plurigenus,
    t4_standard_pair,
    torus_profile,
)

from test_g2 import s6_coframe_bundle
from test_hodge import h, star_oracle


def pi_param(q) -> PiParam:
    return PiParam.rational_pi(Fraction(q))


def closed_form_count(q: Fraction, m: int) -> int:
    """Independent oracle: the level-m section count for the parameter q*pi."""
    return 1 if (Fraction(m) * q / 4).denominator == 1 else 0


def test_criterion_01_kt_plurigenus_closed_form_table():
    frozen = {
        Fraction(4): [1] * 12,
        Fraction(2): [0, 1] * 6,
        Fraction(4, 3): [0, 0, 1] * 4,
        Fraction(1): [0, 0, 0, 1] * 3,
    }
    for q, expected in frozen.items():
        param = pi_param(q)
        values = [kt_plurigenus(param, m) for m in range(1, 13)]
        assert values == expected
        assert values == [closed_form_count(q, m) for m in range(1, 13)]
    generic = PiParam.generic()
    assert [kt_plurigenus(generic, m) for m in range(1, 13)] == [0] * 12
    # a = 4*pi/n: the first nonzero count sits exactly at level n
    for n in range(1, 7):
        param = pi_param(Fraction(4, n))
        assert kt_first_nonzero(param) == n
        assert [kt_plurigenus(param, m) for m in range(1, n + 1)] == [0] * (
            n - 1
        ) + [1]


def test_criterion_02_kt_kodaira_dimension_rational_vs_generic():
    rationals = [
        Fraction(k) for k in range(1, 9)
    ] + [
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(4, 3),
        Fraction(3, 4), Fraction(5, 2), Fraction(7, 3), Fraction(9, 4),
        Fraction(4, 5), Fraction(11, 6), Fraction(13, 7), Fraction(22, 7),
    ]
    assert len(rationals) == 20
    for q in rationals:
        assert kodaira_dimension(kt_profile(pi_param(q))) == 0
    assert kodaira_dimension(kt_profile(PiParam.generic())) == float("-inf")


def test_criterion_03_irregularity_values():
    params = [pi_param(4), pi_param(2), pi_param(Fraction(4, 3)), pi_param(1),
              PiParam.generic()]
    assert len(params) == 5
    for param in params:
        assert kt_irregularity(param) == 1
    alpha, beta = t4_standard_pair()
    assert t4_irregularity(alpha, beta) == 1
    const_alpha, const_beta = t4_family_pair(0, 0)
    assert t4_irregularity(const_alpha, const_beta) == 2


def test_criterion_04_four_torus_vanishing():
    alpha, beta = t4_standard_pair()
    for m in range(1, 9):
        assert t4_plurigenus(alpha, beta, m) == 0
    obstruction = t4_obstruction(alpha, beta)
    assert not obstruction.is_zero()
    minus_2i_pi2 = SymScalar.symbol(coeff=Scalar(0, -2), power=2)
    assert obstruction.coefficient((-1, -1, 0, 0)) == minus_2i_pi2
    const_alpha, const_beta = t4_family_pair(0, 0)
    assert t4_obstruction(const_alpha, const_beta).is_zero()
    for m in range(1, 9):
        assert t4_plurigenus(const_alpha, const_beta, m) == 1


def test_criterion_05_curve_fibration_counts():
    for g in (2, 3, 4):
        for m in range(2, 7):
            assert rr_plurigenus(g, m) == (2 * m - 1) * (g - 1)
        assert rr_plurigenus(g, 1) == IntInterval(g - 1, g)
        assert kodaira_dimension(rr_profile(g)) == 1


def test_criterion_06_product_profiles_and_additivity():
    kt0 = kt_profile(pi_param(4))
    kt_neg = kt_profile(PiParam.generic())
    rr2 = rr_profile(2)
    curve2 = curve_profile(2)
    torus = torus_profile()

    def product(*factors):
        acc = factors[0]
        for nxt in factors[1:]:
            acc = kunneth(acc, nxt)
        return acc

    def kappa_sum(*factors):
        parts = [kodaira_dimension(f) for f in factors]
        if any(k == float("-inf") for k in parts):
            return float("-inf")
        return sum(parts)

    # five products of one- and two-dimensional factors, each of total
    # complex dimension four
    cases = [
        ((kt_neg, kt0), float("-inf"), [0] * 12),
        ((kt0, kt0), 0, [1] * 12),
        (
            (kt0, rr2, torus),
            1,
            [IntInterval(1, 2)] + [2 * m - 1 for m in range(2, 13)],
        ),
        (
            (rr2, rr2, kt0),
            2,
            [IntInterval(1, 4)] + [(2 * m - 1) ** 2 for m in range(2, 13)],
        ),
        (
            (curve2, curve2, rr2, torus),
            3,
            [IntInterval(4, 8)] + [(2 * m - 1) ** 3 for m in range(2, 13)],
        ),
    ]
    seen = set()
    for factors, expected_kappa, expected_values in cases:
        prod = product(*factors)
        assert list(prod.values) == expected_values
        kappa = kodaira_dimension(prod)
        assert kappa == expected_kappa
        assert kappa == kappa_sum(*factors)
        seen.add(kappa)
    assert seen == {float("-inf"), 0, 1, 2, 3}


def test_criterion_07_seven_dim_bracket_and_cross(
    bracket_report, membership_report
):
    assert bracket_report.checked == 76
    assert bracket_report.unregistered_mismatches == []
    assert all(
        d["pair"] in g2.BRACKET_TABLE_ERRATA for d in bracket_report.mismatches
    )
    assert bracket_report.jacobi_failures == []
    assert math.comb(14, 3) == 364
    assert bracket_report.dimension == 14

    assert membership_report.members_checked == 100
    assert membership_report.nonmembers_checked == 10
    assert membership_report.member_failures == []
    assert membership_report.nonmember_failures == []

    # both cross-product identities, recomputed here on all 49 basis pairs
    cp = g2.cross_product()
    basis = [g2.basis_vector(k) for k in range(1, 8)]
    for u in basis:
        for v in basis:
            uv = cp.cross(u, v)
            assert cp.dot(uv, u) == Scalar(0)
            lhs = cp.cross(u, uv)
            dot_uv, dot_uu = cp.dot(u, v), cp.dot(u, u)
            rhs = tuple(dot_uv * a - dot_uu * b for a, b in zip(u, v))
            assert lhs == rhs
    assert cp.cross(basis[0], basis[5]) == basis[6]


def test_criterion_08_sphere_structure_and_census(
    structure_report, reduction_report, sphere_census
):
    assert structure_report.df_failures == []
    assert structure_report.dbar_phi_failures == []
    assert structure_report.dbar_20_failures == []
    assert structure_report.top_form_closed

    coframe = g2.s6_model().coframe
    top = Form.phi(7, 1).wedge(Form.phi(7, 2)).wedge(Form.phi(7, 3))
    assert coframe.dbar(top).is_zero()

    assert reduction_report.checked == 6
    assert reduction_report.unregistered_mismatches == []
    assert set(reduction_report.mismatches) <= {
        f"[{a},{b}]" for a, b in g2.REDUCTION_BRACKET_ERRATA
    }

    assert sphere_census.h10 == 0
    assert sphere_census.h20 == 0
    assert list(sphere_census.plurigenera) == [1] * 8
    assert sphere_census.kodaira_dimension == 0
    assert sphere_census.serre_bijections is True
    assert sphere_census.h13 == 0
    assert sphere_census.h23 == 0


def _operator_matrix(ctx, monomials, op):
    n = ctx.model.n
    images = [op(Form.monomial(n, a, b)) for (a, b) in monomials]
    keys = sorted({key for img in images for key in img.terms})
    rows = [
        [img.terms.get(key, SymScalar.const(0)) for img in images]
        for key in keys
    ]
    return rows, len(images)


def test_criterion_09_pairing_star_adjointness_and_kernels():
    # pairing identity and the closed-form star against its defining oracle
    for n in (1, 2, 3):
        model = abelian_model(n)
        data = HermitianData(model)
        dv = volume_form(n)
        monos = [
            Form.monomial(n, a, b)
            for p in range(n + 1)
            for q in range(n + 1)
            for (a, b) in basis_monomials(n, p, q)
        ]
        for y in monos:
            assert data.star(y) == star_oracle(data, y)
        for x in monos:
            for y in monos:
                lhs = dv.scale(h(x, y))
                rhs = x.wedge(data.star(y).conjugate())
                assert lhs == rhs.project(n, n)
                if x.bidegree() == y.bidegree():
                    assert rhs == rhs.project(n, n)

    # exact adjointness of dbar and its star conjugate on every invariant form
    adjoint_models = [
        kt_model(pi_param(4)),
        kt_model(pi_param(2)),
        kt_model(pi_param(Fraction(4, 3))),
        kt_model(pi_param(1)),
        kt_model(PiParam.generic()),
        abelian_model(2),
    ]
    for model in adjoint_models:
        n = model.n
        ctx = SectionContext(model)
        for p in range(n + 1):
            for q in range(n):
                for a, b in basis_monomials(n, p, q):
                    x = Form.monomial(n, a, b)
                    for c, d in basis_monomials(n, p, q + 1):
                        y = Form.monomial(n, c, d)
                        assert h(ctx.dbar(x), y) == h(x, ctx.dbar_star(y))

    # the Laplacian kernel equals ker(dbar) intersect ker(dbar*), both
    # computed from scratch here, block by block
    kernel_models = [(kt_model(pi_param(4)), (0, 1)), (abelian_model(2), (0,))]
    for model, powers in kernel_models:
        for power in powers:
            bundle = (
                None
                if power == 0
                else CanonicalPower(model, power).structure()
            )
            for p, q in ((0, 0), (1, 0), (1, 1)):
                monomials = basis_monomials(model.n, p, q)
                total = 0
                for ch in model.characters(power):
                    ctx = SectionContext(model, bundle, ch)
                    lap_rows, ncols = _operator_matrix(
                        ctx, monomials, ctx.laplacian
                    )
                    lap_kernel = kernel_basis(sparse_rows(lap_rows), ncols)
                    db_rows, _ = _operator_matrix(ctx, monomials, ctx.dbar)
                    ds_rows, _ = _operator_matrix(
                        ctx, monomials, ctx.dbar_star
                    )
                    both_kernel = kernel_basis(sparse_rows(db_rows + ds_rows), ncols)
                    assert len(lap_kernel) == len(both_kernel)
                    in_lap_kernel = span_test(lap_kernel)
                    for vec in both_kernel:
                        assert in_lap_kernel(vec)
                    in_both_kernel = span_test(both_kernel)
                    for vec in lap_kernel:
                        assert in_both_kernel(vec)
                    total += len(both_kernel)
                space = invariant_harmonic_space(
                    model, p, q, bundle_power=power
                )
                assert space.dimension == total


def _check_connection(bundle):
    theta = bundle.theta
    rank = bundle.rank
    omega = bundle.connection()
    for i in range(rank):
        for j in range(rank):
            assert omega[i][j] == theta[i][j] - theta[j][i].conjugate()
            assert omega[i][j] == -omega[j][i].conjugate()
            assert omega[i][j].project(0, 1) == theta[i][j]
    dual = bundle.dual()
    for i in range(rank):
        for j in range(rank):
            assert dual.theta[i][j] == theta[j][i].scale(SymScalar.const(-1))
            assert dual.dual().theta[i][j] == theta[i][j]


def test_criterion_10_connection_and_dual_involution():
    for param in (pi_param(4), PiParam.generic()):
        bundle = CanonicalPower(kt_model(param), 1).structure()
        assert bundle.rank == 1
        _check_connection(bundle)
    coframe_bundle = s6_coframe_bundle()
    assert coframe_bundle.rank == 3
    _check_connection(coframe_bundle)


def test_criterion_11_parameter_jump_through_cli():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["plurigenera", "--model", "kt", "--a", "39/10*pi,4*pi,41/10*pi",
                    "--m", "1"])
    assert code == 0
    report = json.loads(out.getvalue())
    observed = [row["values"][0] for row in report["rows"]]
    assert observed == [0, 1, 0]
    # the same jump from the independent closed form
    expected = [
        closed_form_count(q, 1)
        for q in (Fraction(39, 10), Fraction(4), Fraction(41, 10))
    ]
    assert observed == expected == [0, 1, 0]
