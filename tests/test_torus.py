"""Deformation-family section counts: closed forms, Fourier-mode oracles,
trigonometric obstructions, curve counts, products, and growth classes."""

from fractions import Fraction

import pytest

from acx import scalars, torus
from acx.errors import InputError, RefusalError
from acx.forms import Form
from acx.g2 import G2Element
from acx.scalars import PiParam, Scalar, SymScalar
from acx.torus import (
    ALL_ZERO,
    BOUNDED,
    POLYNOMIAL,
    DEFAULT_PROFILE_LENGTH,
    IntInterval,
    PlurigeneraProfile,
    TrigPoly,
    curve_profile,
    kodaira_dimension,
    kt_first_nonzero,
    kt_irregularity,
    kt_mode_oracle,
    kt_plurigenus,
    kt_profile,
    kt_solvable_modes,
    kunneth,
    rr_plurigenus,
    rr_profile,
    t4_family_pair,
    t4_irregularity,
    t4_obstruction,
    t4_plurigenus,
    t4_profile,
    t4_standard_pair,
    torus_profile,
)


def exponential(k, freq, coeff=1):
    """coeff * exp(2*pi*i freq.x) on the k-torus."""
    return TrigPoly(k, {tuple(freq): SymScalar.coerce(coeff)})


A_4PI = PiParam.rational_pi(4)
A_2PI = PiParam.rational_pi(2)
A_4PI3 = PiParam.rational_pi(Fraction(4, 3))
A_PI = PiParam.rational_pi(1)
A_GEN = PiParam.generic()

KT_TABLE = {
    A_4PI: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    A_2PI: [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    A_4PI3: [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1],
    A_PI: [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    A_GEN: [0] * 12,
}


class TestKTPlurigenera:
    def test_frozen_table(self):
        for a, row in KT_TABLE.items():
            assert [kt_plurigenus(a, m) for m in range(1, 13)] == row

    def test_closed_form_is_integrality_of_mq_over_four(self):
        for a in (A_4PI, A_2PI, A_4PI3, A_PI, PiParam.rational_pi(Fraction(39, 10))):
            for m in range(1, 25):
                expected = 1 if (m * Fraction(a.q.re) / 4).denominator == 1 else 0
                assert kt_plurigenus(a, m) == expected

    def test_first_nonzero_level(self):
        for n in range(1, 7):
            a = PiParam.rational_pi(Fraction(4, n))
            assert kt_first_nonzero(a) == n
            assert kt_plurigenus(a, n) == 1
            assert all(kt_plurigenus(a, m) == 0 for m in range(1, n))
        assert kt_first_nonzero(PiParam.rational_pi(Fraction(39, 10))) == 40
        assert kt_first_nonzero(A_GEN) is None

    def test_mode_oracle_agrees_with_closed_form(self):
        # the oracle always enumerates the fixed window of torus.MODE_WINDOW
        assert torus.MODE_WINDOW == torus.mode_window() == 32
        for a in (A_4PI, A_2PI, A_PI, A_GEN):
            for m in (1, 2, 3, 4):
                coeff = Fraction(m, 4)
                closed = {
                    mode
                    for mode in kt_solvable_modes(a, coeff)
                    if all(abs(c) <= torus.MODE_WINDOW for c in mode)
                }
                assert closed == set(kt_mode_oracle(a, coeff))

    def test_solvable_modes_shape(self):
        assert kt_solvable_modes(A_4PI, Fraction(1, 4)) == [(0, 1)]
        assert kt_solvable_modes(A_4PI, Fraction(1, 2)) == [(0, 2)]
        assert kt_solvable_modes(A_PI, Fraction(1, 4)) == []
        assert kt_solvable_modes(A_GEN, Fraction(1, 4)) == []
        assert kt_solvable_modes(A_GEN, Fraction(0)) == [(0, 0)]

    def test_level_validation(self):
        with pytest.raises(InputError):
            kt_plurigenus(A_4PI, 0)

    def test_mode_oracle_coerces_its_coefficient_once(self, monkeypatch):
        # a string coefficient is parsed once per call, not once per mode,
        # and no coefficient builds a Fraction
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse(text)

        def boom(*args):
            raise AssertionError("a Fraction was built")

        parse = scalars.parse_rational
        want = kt_mode_oracle(A_4PI, Fraction(1, 2))
        assert want == [(0, 2)]
        monkeypatch.setattr(scalars, "parse_rational", counting)
        monkeypatch.setattr(scalars, "_fraction", boom)
        assert kt_mode_oracle(A_4PI, Fraction(1, 2)) == want
        assert kt_mode_oracle(A_4PI, Scalar(1) / 2) == want
        assert parsed == []
        assert kt_mode_oracle(A_4PI, "1/2") == want
        assert kt_mode_oracle(A_GEN, 0) == [(0, 0)]
        assert parsed == ["1/2"]

    def test_binary_float_coefficients_are_refused(self):
        # as by Scalar: Fraction(0.1) would silently take the float's binary value
        for call in (lambda: kt_solvable_modes(A_4PI, 0.25),
                     lambda: kt_mode_oracle(A_4PI, 0.5),
                     lambda: t4_family_pair(0.5, 0)):
            with pytest.raises(TypeError, match="binary float"):
                call()


class TestIrregularity:
    def test_kt_is_always_one(self):
        for a in (A_4PI, A_2PI, A_4PI3, A_PI, A_GEN):
            assert kt_irregularity(a) == 1


class TestTrigPoly:
    def test_ring_and_derivations(self):
        f = TrigPoly.cos2pi(4, (1, 1, 0, 0))
        g = TrigPoly.sin2pi(4, (1, 1, 0, 0))
        # cos^2 + sin^2 = 1
        assert (f * f + g * g) == TrigPoly.constant(4, 1)
        # d/dx1 cos(2 pi u) = -2 pi sin(2 pi u) for u = x1 + x2
        two_pi = SymScalar.symbol(coeff=2)
        assert f.partial(0) == g.scale(-two_pi)
        assert g.partial(0) == f.scale(two_pi)
        assert f.partial(3).is_zero()

    def test_reality_and_conjugation(self):
        f = TrigPoly.cos2pi(4, (1, 2, 0, 0))
        assert f.is_real()
        assert f.conjugate() == f
        h = exponential(4, (1, 0, 0, 0))
        assert not h.is_real()
        assert h.conjugate() == exponential(4, (-1, 0, 0, 0))

    def test_wirtinger_derivatives(self):
        f = exponential(4, (1, -1, 0, 0))
        half = SymScalar.const(Fraction(1, 2))
        i = SymScalar.const(Scalar(0, 1))
        expected_w = (f.partial(0) - f.partial(1).scale(i)).scale(half)
        expected_wbar = (f.partial(0) + f.partial(1).scale(i)).scale(half)
        assert f.wirtinger() == expected_w
        assert f.wirtinger_bar() == expected_wbar
        # w, wbar derivatives commute and compose to the flat Laplacian
        quarter = SymScalar.const(Fraction(1, 4))
        flat = (f.partial(0).partial(0) + f.partial(1).partial(1)).scale(quarter)
        assert f.wirtinger().wirtinger_bar() == flat
        assert f.wirtinger_bar().wirtinger() == flat


class TestT4Family:
    def test_obstruction_is_a_single_frozen_fourier_mode(self):
        alpha, beta = t4_standard_pair()
        ob = t4_obstruction(alpha, beta)
        assert not ob.is_zero()
        minus_2i_pi2 = SymScalar.symbol(coeff=Scalar(0, -2), power=2)
        assert ob.coefficient((-1, -1, 0, 0)) == minus_2i_pi2
        assert ob.coefficient((1, 1, 0, 0)) == SymScalar.const(0)
        assert len(ob.terms) == 1

    def test_standard_member_has_no_sections(self):
        alpha, beta = t4_standard_pair()
        for m in range(1, 9):
            assert t4_plurigenus(alpha, beta, m) == 0

    def test_flat_member_has_one_section_per_level(self):
        alpha, beta = t4_family_pair(0, 0)
        assert t4_obstruction(alpha, beta).is_zero()
        for m in range(1, 9):
            assert t4_plurigenus(alpha, beta, m) == 1

    def test_family_interpolates(self):
        alpha, beta = t4_family_pair(1, 0)
        assert t4_plurigenus(alpha, beta, 1) == 0

    def test_irregularity(self):
        assert t4_irregularity(*t4_standard_pair()) == 1
        assert t4_irregularity(*t4_family_pair(0, 0)) == 2

    def test_uncovered_members_are_refused(self):
        alpha = TrigPoly.constant(4, 0)
        beta = TrigPoly.sin2pi(4, (0, 0, 1, 1))
        with pytest.raises(RefusalError):
            t4_plurigenus(alpha, beta, 1)
        with pytest.raises(RefusalError):
            t4_irregularity(alpha, beta)

    def test_pair_validation(self):
        bad = exponential(4, (1, 0, 0, 0))
        with pytest.raises(InputError):
            t4_obstruction(bad, TrigPoly.constant(4, 0))
        with pytest.raises(InputError):
            t4_obstruction(TrigPoly.constant(2, 1), TrigPoly.constant(4, 0))
        with pytest.raises(InputError):
            t4_obstruction(TrigPoly.constant(3, 1), TrigPoly.constant(3, 0))


class TestIntInterval:
    def test_ordering_and_equality(self):
        v = IntInterval(1, 2)
        assert v == IntInterval(1, 2) and v != IntInterval(1, 3)
        assert IntInterval(3, 3) == 3
        assert v != 1
        with pytest.raises(InputError):
            IntInterval(2, 1)
        with pytest.raises(InputError):
            IntInterval(-1, 0)

    def test_a_point_hashes_as_its_int(self):
        assert len({IntInterval(2, 2), 2}) == 1
        assert len({IntInterval(1, 2), 1, 2}) == 3


# (build, attribute names): each exact value type, built by a call that makes
# a new value each time
VALUES = pytest.mark.parametrize("build, names", [
    (PiParam.generic, ("kind", "q")),
    (lambda: PiParam.rational_pi(4), ("kind", "q")),
    (lambda: t4_standard_pair()[0], ("k", "terms")),
    (lambda: IntInterval(1, 2), ("lo", "hi")),
    (lambda: curve_profile(2, 8), ("values", "kappa")),
    (lambda: Scalar(1, Fraction(1, 2)), ("a", "b", "d")),
    (lambda: SymScalar.symbol(2) + 1, ("num", "den")),
    (lambda: Form.phi(3, 1) + Form.phibar(3, 2), ("n", "terms")),
    (lambda: G2Element((1,) * 6, (0, 2) * 4), ("x", "y", "entries")),
], ids=["PiParam-generic", "PiParam-rational", "TrigPoly", "IntInterval",
        "PlurigeneraProfile", "Scalar", "SymScalar", "Form", "G2Element"])


@VALUES
def test_attributes_cannot_be_deleted(build, names):
    """Every exact value type refuses assignment and deletion with its own
    name in the message, and has no __dict__ (the shared base has empty
    __slots__)."""
    value = build()
    message = f"^{type(value).__name__} is immutable$"
    before = {name: getattr(value, name) for name in names}
    for name in names + ("extra",):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert {name: getattr(value, name) for name in names} == before
    assert not hasattr(value, "__dict__")


@VALUES
def test_equal_values_hash_alike(build, names):
    """Every exact value type equals an equal copy built anew, and the two
    hash alike; a value of another type is not equal to it."""
    value, copy = build(), build()
    assert value is not copy
    assert value == copy and not value != copy
    assert hash(value) == hash(copy)
    assert len({value, copy}) == 1
    assert value != object() and value != "value"


class TestRiemannRoch:
    def test_exact_counts(self):
        for g in (2, 3, 4):
            assert rr_plurigenus(g, 1) == IntInterval(g - 1, g)
            for m in range(2, 7):
                assert rr_plurigenus(g, m) == (2 * m - 1) * (g - 1)

    def test_input_gates(self):
        with pytest.raises(InputError):
            rr_plurigenus(1, 2)
        with pytest.raises(InputError):
            rr_plurigenus(2, 0)


class TestProfiles:
    def test_classification_of_simple_shapes(self):
        assert PlurigeneraProfile([0, 0, 0, 0]).kind == ALL_ZERO
        assert PlurigeneraProfile([1, 1, 1, 1]).kind == BOUNDED
        p = PlurigeneraProfile([1, 3, 5, 7, 9, 11])
        assert p.kind == POLYNOMIAL and p.degree == 1
        q = PlurigeneraProfile([1, 9, 25, 49, 81, 121])
        assert q.kind == POLYNOMIAL and q.degree == 2

    def test_declared_kind_is_checked(self):
        with pytest.raises(InputError):
            PlurigeneraProfile([0, 1, 0, 1], float("-inf"))
        with pytest.raises(InputError):
            PlurigeneraProfile([1, 3, 5, 7], 2)
        for bad in ("mystery", -1, 0.5, float("inf")):
            with pytest.raises(InputError):
                PlurigeneraProfile([1, 1, 1, 1], bad)

    def test_declared_bounded_growth_is_not_refuted_by_a_finite_window(self):
        # kt at a = 4/3*pi is bounded, yet its stored tail fits degree 2
        p = kt_profile(PiParam.rational_pi(Fraction(4, 3)), 6)
        assert p.values == (0, 0, 1, 0, 0, 1)
        assert torus._poly_degree(PlurigeneraProfile._tail(p.values)) == 2
        assert (p.kappa, p.kind) == (0, BOUNDED)
        assert PlurigeneraProfile(p.values, 0) == p

    def test_kappa_is_the_one_growth_field(self):
        assert PlurigeneraProfile.__slots__ == ("values", "kappa")
        cases = [([0] * 4, float("-inf"), ALL_ZERO, None), ([1] * 4, 0, BOUNDED, None),
                 ([1, 3, 5, 7], 1, POLYNOMIAL, 1)]
        for values, kappa, kind, degree in cases:
            p = PlurigeneraProfile(values)
            assert (p.kappa, p.kind, p.degree) == (kappa, kind, degree)
            assert p == PlurigeneraProfile(values, kappa)
        with pytest.raises(TypeError):
            PlurigeneraProfile([1, 1, 1, 1], kind=BOUNDED)

    def test_non_polynomial_tail_is_refused(self):
        with pytest.raises(RefusalError):
            PlurigeneraProfile([1, 2, 4, 8, 16, 32, 64, 128])

    def test_interval_in_tail_is_refused(self):
        with pytest.raises(RefusalError):
            PlurigeneraProfile([1, 2, 3, IntInterval(4, 5)])

    def test_interval_in_head_is_tolerated(self):
        p = PlurigeneraProfile([IntInterval(1, 2), 3, 5, 7, 9, 11])
        assert p.kind == POLYNOMIAL and p.degree == 1

    def test_profiles_need_four_values(self):
        with pytest.raises(InputError):
            PlurigeneraProfile([1, 1, 1])

    def test_preset_profiles(self):
        assert kt_profile(A_4PI).kind == BOUNDED
        assert kt_profile(A_GEN).kind == ALL_ZERO
        assert kt_profile(A_PI).values[:4] == (0, 0, 0, 1)
        assert rr_profile(2).kind == POLYNOMIAL and rr_profile(2).degree == 1
        assert curve_profile(2).values[:3] == (2, 3, 5)
        assert torus_profile().kind == BOUNDED
        assert t4_profile(*t4_standard_pair()).kind == ALL_ZERO
        assert len(kt_profile(A_4PI).values) == DEFAULT_PROFILE_LENGTH

    @pytest.mark.parametrize("pair", [t4_standard_pair(), t4_family_pair(0, 0)])
    def test_t4_profile_solves_the_obstruction_once(self, monkeypatch, pair):
        solves = []
        obstruction = torus.t4_obstruction
        monkeypatch.setattr(
            torus, "t4_obstruction", lambda a, b: solves.append(1) or obstruction(a, b)
        )
        profile = t4_profile(*pair, 50)
        assert len(solves) == 1
        monkeypatch.undo()
        assert list(profile.values) == [t4_plurigenus(*pair, m) for m in range(1, 51)]


class TestKunnethAndKodaira:
    def test_kodaira_dimension_of_each_kind(self):
        assert kodaira_dimension(PlurigeneraProfile([0, 0, 0, 0])) == float("-inf")
        assert kodaira_dimension(PlurigeneraProfile([0, 1, 0, 1], 0)) == 0
        assert kodaira_dimension(rr_profile(3)) == 1

    def test_pointwise_products_with_intervals(self):
        prod = kunneth(rr_profile(2, 6), rr_profile(2, 6))
        assert prod.values[0] == IntInterval(1, 4)
        assert prod.values[1:] == (9, 25, 49, 81, 121)
        assert prod.kind == POLYNOMIAL and prod.degree == 2

    def test_zero_absorbs(self):
        prod = kunneth(kt_profile(A_GEN), rr_profile(4))
        assert prod.kind == ALL_ZERO
        assert all(v == 0 for v in prod.values)

    def test_bounded_is_neutral(self):
        prod = kunneth(kt_profile(A_4PI), rr_profile(3))
        assert prod.kind == POLYNOMIAL and prod.degree == 1
        assert prod.values[1:] == rr_profile(3).values[1:]

    def test_kodaira_additivity_grid(self):
        profiles = [
            kt_profile(A_GEN),
            kt_profile(A_4PI),
            kt_profile(A_2PI),
            rr_profile(2),
            curve_profile(3),
        ]
        for pa in profiles:
            for pb in profiles:
                prod = kunneth(pa, pb)
                assert kodaira_dimension(prod) == kodaira_dimension(
                    pa
                ) + kodaira_dimension(pb)

    @pytest.mark.parametrize("length", [12, 50])
    def test_kappa_additivity_against_a_refit(self, length):
        """kunneth adds the factors' kappa; refitting the product's values
        alone (no declared kappa) must give the same growth order."""
        factors = [rr_profile(2, length), curve_profile(3, length),
                   torus_profile(length), kt_profile(A_4PI, length),
                   kt_profile(A_GEN, length)]
        for pa in factors:
            for pb in factors:
                prod = kunneth(pa, pb)
                assert PlurigeneraProfile(prod.values).kappa == prod.kappa

    def test_contradicted_sum_is_refitted(self):
        # curve values with a fabricated kappa = 0 pass their own check; the
        # product with rr grows quadratically, so the sum 1 is not its kappa
        fabricated = PlurigeneraProfile(curve_profile(2, 8).values, 0)
        prod = kunneth(fabricated, rr_profile(2, 8))
        assert prod.kappa == 2 == PlurigeneraProfile(prod.values).kappa

    def test_mismatched_lengths_are_rejected(self):
        with pytest.raises(InputError):
            kunneth(rr_profile(2, 8), rr_profile(2, 6))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PlurigeneraProfile([1, 0, 0, 0]), RefusalError,
         "tail window is identically zero but earlier values are not; "
         "growth cannot be inferred from the window"),
        (lambda: PlurigeneraProfile([-1, 0, 0, 0]), InputError, "plurigenera are nonnegative"),
        (lambda: curve_profile(1), InputError, "curve profiles require genus at least 2"),
        (lambda: t4_plurigenus(*t4_standard_pair(), 0), InputError,
         "plurigenus level m must be at least 1"),
        (lambda: kt_plurigenus("4*pi", 1), InputError, "parameter must be a PiParam"),
        (lambda: kt_irregularity("4*pi"), InputError, "parameter must be a PiParam"),
        (lambda: t4_obstruction(1, 2), InputError,
         "coefficients must be trigonometric polynomials"),
    ],
    ids=["zero-tail", "negative", "genus-1-curve", "t4-level-0", "kt-plurigenus-string",
         "kt-irregularity-string", "t4-obstruction-ints"],
)
def test_library_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
