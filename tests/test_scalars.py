"""Field arithmetic on Gaussian rationals, one-symbol rational functions,
and the structure-parameter wrapper."""

import random
from fractions import Fraction
from math import gcd

import pytest

from acx import cli, g2, linalg, scalars
from acx.scalars import (
    _P_ONE,
    S_ONE,
    S_ZERO,
    SS_ONE,
    PiParam,
    Scalar,
    SymScalar,
    _pgcd,
    _pmul,
    _pneg,
    _pquo,
    parse_rational,
    scalar_str,
)


def rand_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_scalar(rng):
    return Scalar(rand_fraction(rng), rand_fraction(rng))


def rand_poly(rng, deg=2):
    acc = SymScalar.const(rand_scalar(rng))
    for k in range(1, rng.randint(1, deg) + 1):
        acc = acc + SymScalar.symbol(coeff=1, power=k) * SymScalar.const(rand_scalar(rng))
    return acc


def rand_sym(rng, deg=2):
    num = rand_poly(rng, deg)
    den = rand_poly(rng, deg)
    if den.is_zero():
        den = SymScalar.const(1)
    return num / den


class TestScalar:
    def test_complex_multiplication_matches_component_formula(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b = rand_fraction(rng), rand_fraction(rng)
            c, d = rand_fraction(rng), rand_fraction(rng)
            z = Scalar(a, b) * Scalar(c, d)
            assert z == Scalar(a * c - b * d, a * d + b * c)

    def test_inverse_and_division(self):
        rng = random.Random(12)
        for _ in range(200):
            z = rand_scalar(rng)
            if z.is_zero():
                continue
            assert z * z.inverse() == Scalar(1)
            w = rand_scalar(rng)
            assert (w / z) * z == w
        with pytest.raises(ZeroDivisionError):
            Scalar(0).inverse()

    def test_conjugation_is_a_ring_morphism(self):
        rng = random.Random(13)
        for _ in range(100):
            z, w = rand_scalar(rng), rand_scalar(rng)
            assert (z * w).conjugate() == z.conjugate() * w.conjugate()
            assert (z + w).conjugate() == z.conjugate() + w.conjugate()
            assert z.conjugate().conjugate() == z

    def test_norm_is_positive_definite(self):
        rng = random.Random(14)
        for _ in range(100):
            z = rand_scalar(rng)
            nrm = z * z.conjugate()
            assert nrm.im == 0
            assert (nrm.re > 0) == (not z.is_zero())

    def test_coercion_and_equality(self):
        assert Scalar(Fraction(1, 2)) + Fraction(1, 2) == Scalar(1)
        assert Scalar(3) == 3
        assert Scalar(0, 1) != 1
        assert bool(Scalar(0)) is False

    def test_binary_floats_are_refused(self):
        for args in [(0.1,), (0, 0.5), (1.0,)]:
            with pytest.raises(TypeError):
                Scalar(*args)
        assert Scalar("-1/2", "1/3") == Scalar(Fraction(-1, 2), Fraction(1, 3))

    def test_string_forms(self):
        assert scalar_str(Scalar(0)) == "0"
        assert scalar_str(Scalar(1)) == "1"
        assert scalar_str(Scalar(0, 1)) == "i"
        assert scalar_str(Scalar(0, -1)) == "-i"
        assert scalar_str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"

    def test_parse_rational(self):
        assert parse_rational("39/10") == Fraction(39, 10)
        assert parse_rational("-4") == -4
        with pytest.raises(ValueError):
            parse_rational("x")

    def test_immutable(self):
        # values built by the constructor and by the operators' fast path
        for s in (Scalar(Fraction(1, 2), 3), Scalar(1) + Scalar(2), -Scalar(0, 1),
                  Scalar(2) * Scalar(Fraction(1, 3))):
            for name in ("a", "b", "d", "re", "extra"):
                with pytest.raises(AttributeError):
                    setattr(s, name, 5)
        s = Scalar(3, 4)
        assert (s.a, s.b, s.d) == (3, 4, 1)

    def test_attributes_cannot_be_deleted(self):
        s = Scalar(Fraction(1, 2), 3)
        for name in ("a", "b", "d", "re", "extra"):
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert (s.a, s.b, s.d) == (1, 6, 2)


class TestSymScalar:
    def test_field_axioms_randomized(self):
        rng = random.Random(21)
        for _ in range(60):
            u, v, w = rand_sym(rng), rand_sym(rng), rand_sym(rng)
            assert (u + v) * w == u * w + v * w
            assert u + v == v + u
            assert (u * v) * w == u * (v * w)
            if not v.is_zero():
                assert (u / v) * v == u

    def test_common_factors_cancel(self):
        x = SymScalar.symbol()
        g = x * x + SymScalar.const(Scalar(0, 1))
        u = (x + 1) / (x * x + 3)
        assert (g * (x + 1)) / (g * (x * x + 3)) == u

    def test_constants_and_symbol(self):
        x = SymScalar.symbol()
        assert SymScalar.const(5).is_constant()
        assert SymScalar.const(5).constant_value() == Scalar(5)
        assert not x.is_constant()
        assert SymScalar.symbol(coeff=Fraction(3, 2), power=2) == SymScalar.const(Fraction(3, 2)) * x * x

    def test_conjugation_fixes_the_real_symbol(self):
        x = SymScalar.symbol()
        i = SymScalar.const(Scalar(0, 1))
        u = (x + i) / (x - i)
        bar = u.conjugate()
        assert bar == (x - i) / (x + i)
        assert bar.conjugate() == u

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            SymScalar.const(1) / SymScalar.const(0)

    def test_rendering(self):
        x = SymScalar.symbol()
        u = SymScalar.const(Scalar(0, -2)) * x * x
        assert u.to_str("pi") == "-2i*pi^2"
        assert SymScalar.const(0).to_str() == "0"

    def test_immutable(self):
        x = SymScalar.symbol()
        for u in (SymScalar((1, 2), (3, 1)), x * x + 1, (x + 1) / (x - 1),
                  SymScalar.const(Scalar(0, 1)), -x):
            for name in ("num", "den", "extra"):
                with pytest.raises(AttributeError):
                    setattr(u, name, ())
        assert (x / (x + 1)).den == (S_ONE, S_ONE)

    def test_product_by_one_is_the_other_factor(self):
        rng = random.Random(17)
        x = SymScalar.symbol()
        ones = (SS_ONE, SymScalar.const(1), SymScalar.const(Fraction(3, 3)), x / x)
        values = [SymScalar.const(rand_scalar(rng)) for _ in range(10)]
        values += [rand_sym(rng) for _ in range(10)]
        # 1 * 1 returns one of two equal operands, not a chosen one
        values = [z for z in values if z != SS_ONE]
        assert len(values) >= 15
        for z in values:
            for one in ones:
                assert z * one is z
                assert one * z is z

    def test_attributes_cannot_be_deleted(self):
        u = SymScalar.symbol() + 1
        for name in ("num", "den", "extra"):
            with pytest.raises(AttributeError):
                delattr(u, name)
        assert (u.num, u.den) == ((S_ONE, S_ONE), (S_ONE,))


class TestPiParam:
    def test_parse_forms(self):
        assert PiParam.parse("4*pi") == PiParam.rational_pi(4)
        assert PiParam.parse("39/10*pi") == PiParam.rational_pi(Fraction(39, 10))
        assert PiParam.parse("pi") == PiParam.rational_pi(1)
        assert PiParam.parse("-pi") == PiParam.rational_pi(-1)
        assert PiParam.parse("generic") == PiParam.generic()
        assert str(PiParam.parse(" 2/3*PI ")) == "2/3*pi"

    @pytest.mark.parametrize("bad", ["", "4pi", "pi*4", "0*pi", "tau", "1/0*pi"])
    def test_parse_rejections(self, bad):
        with pytest.raises(ValueError):
            PiParam.parse(bad)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            PiParam.rational_pi(0)

    def test_binary_floats_are_refused(self):
        with pytest.raises(TypeError):
            PiParam.rational_pi(0.1)
        with pytest.raises(TypeError):
            PiParam("rational_pi", 4.0)
        assert PiParam.rational_pi("1/10") == PiParam.rational_pi(Fraction(1, 10))

    def test_symbol_semantics(self):
        a = PiParam.rational_pi(Fraction(4, 3))
        assert a.symbol_name == "pi"
        assert a.a_value() == SymScalar.symbol(coeff=Fraction(4, 3))
        g = PiParam.generic()
        assert g.symbol_name == "a"
        assert g.a_value() == SymScalar.symbol()

    def test_immutability_and_hash(self):
        a = PiParam.rational_pi(2)
        with pytest.raises(AttributeError):
            a.q = 3
        assert len({PiParam.rational_pi(2), PiParam.rational_pi(2)}) == 1


# --- the constant fast path against reference arithmetic


def ref_str(re: Fraction, im: Fraction) -> str:
    """Rendering of a Gaussian rational held as a plain Fraction pair."""
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}i")
    mag = abs(im)
    return f"{re}{'+' if im > 0 else '-'}{'i' if mag == 1 else f'{mag}i'}"


def ref_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


REF_OPS = {
    "+": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "-": lambda x, y: (x[0] - y[0], x[1] - y[1]),
    "*": lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    "/": ref_div,
}
OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def assert_exact_component(c):
    assert type(c) in (int, Fraction)
    if type(c) is Fraction:
        assert c.denominator != 1


def assert_canonical_scalar(z):
    assert isinstance(z, Scalar)
    assert_exact_component(z.re)
    assert_exact_component(z.im)


def assert_canonical_sym(z):
    """Monic denominator, gcd 1, the shared unit denominator on constants,
    and exact components throughout."""
    for c in z.num + z.den:
        assert_canonical_scalar(c)
    assert z.den and z.den[-1] == Scalar(1)
    if z.num and z.num[-1].is_zero():
        raise AssertionError(f"trailing zero in {z!r}")
    if len(z.den) == 1:
        assert z.den is _P_ONE
        assert z.is_constant() == (len(z.num) <= 1)
    else:
        assert len(ref_pgcd(z.num, z.den)) == 1
        assert not z.is_constant()
    if not z.num:
        assert z.den is _P_ONE


# --- reference polynomial arithmetic over Q(i): one Scalar operation per
# coefficient pair, and a plain Euclidean gcd on the full operands


def ref_pstrip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def ref_padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return ref_pstrip([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def ref_pmul(a, b):
    if not a or not b:
        return ()
    out = [S_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_pstrip(out)


def ref_pdivmod(a, b):
    nb = len(b)
    q = [S_ZERO] * max(0, len(a) - nb + 1)
    r = list(a)
    binv = b[-1].inverse()
    while True:
        while r and r[-1].is_zero():
            r.pop()
        if len(r) < nb:
            return ref_pstrip(q), tuple(r)
        c = r.pop() * binv
        k = len(r) + 1 - nb
        q[k] = c
        for j in range(nb - 1):
            r[k + j] = r[k + j] - c * b[j]


def ref_pgcd(a, b):
    a, b = ref_pstrip(a), ref_pstrip(b)
    while b:
        _, r = ref_pdivmod(a, b)
        a, b = b, r
    if a:
        lead_inv = a[-1].inverse()
        a = tuple(c * lead_inv for c in a)
    return a


def ref_reduce(num, den):
    """num/den in canonical form, as the SymScalar constructor once built
    every sum, product and quotient: divide by the gcd, then make the
    denominator monic."""
    num, den = ref_pstrip(num), ref_pstrip(den)
    if not num:
        return (), (S_ONE,)
    g = ref_pgcd(num, den)
    num, den = ref_pdivmod(num, g)[0], ref_pdivmod(den, g)[0]
    inv = den[-1].inverse()
    return tuple(c * inv for c in num), tuple(c * inv for c in den)


def rand_gaussian(rng):
    pick = rng.random()
    if pick < 0.15:
        return (Fraction(0), Fraction(0))
    if pick < 0.45:
        return (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
    return (rand_fraction(rng), rand_fraction(rng))


def rand_operand(rng):
    """Zero, constants, polynomials and rational functions, plus raw ints,
    Fractions and Scalars that go through coercion."""
    pick = rng.random()
    re, im = rand_gaussian(rng)
    if pick < 0.1:
        return SymScalar.const(0)
    if pick < 0.45:
        return SymScalar.const(Scalar(re, im))
    if pick < 0.55:
        return rng.choice([re, Scalar(re, im), int(re)])
    if pick < 0.75:
        return rand_poly(rng)
    return rand_sym(rng)


def general_path(op, x, y):
    """The operation computed on unreduced polynomial pairs and reduced by
    one Euclidean gcd over Q(i), all with the reference routines: the
    canonical (num, den) pair."""
    if op == "+":
        return ref_reduce(ref_padd(ref_pmul(x.num, y.den), ref_pmul(y.num, x.den)),
                          ref_pmul(x.den, y.den))
    if op == "-":
        return ref_reduce(ref_padd(ref_pmul(x.num, y.den), _pneg(ref_pmul(y.num, x.den))),
                          ref_pmul(x.den, y.den))
    if op == "*":
        return ref_reduce(ref_pmul(x.num, y.num), ref_pmul(x.den, y.den))
    return ref_reduce(ref_pmul(x.num, y.den), ref_pmul(x.den, y.num))


class TestFastPathReference:
    def test_scalar_matches_fraction_pairs(self):
        rng = random.Random(101)
        for _ in range(400):
            x, y = rand_gaussian(rng), rand_gaussian(rng)
            sx, sy = Scalar(*x), Scalar(*y)
            assert_canonical_scalar(sx)
            assert (sx.re, sx.im) == x
            for op, ref in REF_OPS.items():
                if op == "/" and y == (0, 0):
                    with pytest.raises(ZeroDivisionError):
                        OPS[op](sx, sy)
                    continue
                z = OPS[op](sx, sy)
                want = ref(x, y)
                assert_canonical_scalar(z)
                assert (z.re, z.im) == want
                assert z == Scalar(*want)
                assert hash(z) == hash(Scalar(*want))
                assert str(z) == ref_str(*want)
            neg = -sx
            assert_canonical_scalar(neg)
            assert (neg.re, neg.im) == (-x[0], -x[1])
            assert (sx == sy) == (x == y)
            assert str(sx) == ref_str(*x)

    def test_scalar_division_never_makes_a_float(self):
        one_inv = Scalar(1).inverse()
        assert type(one_inv.re) is int and one_inv == Scalar(1)
        half = Scalar(3) / 2
        assert type(half.re) is Fraction and half.re == Fraction(3, 2)
        assert type((Scalar(4) / 2).re) is int
        assert Scalar(0, 2).inverse() == Scalar(0, Fraction(-1, 2))
        assert type(Scalar(0, 1).inverse().im) is int
        assert_canonical_scalar(Scalar(Fraction(6, 3), Fraction(1, 2)))
        assert_canonical_scalar(Scalar(Fraction(1, 2)) + Fraction(1, 2))
        assert 1 / Scalar(2) == Scalar(Fraction(1, 2))

    def test_symscalar_matches_general_path(self):
        rng = random.Random(102)
        for _ in range(300):
            x, y = rand_operand(rng), rand_operand(rng)
            sx, sy = SymScalar.coerce(x), SymScalar.coerce(y)
            # a raw left operand needs a SymScalar on the right, and a
            # Scalar does not defer to SymScalar's reflected operators
            if isinstance(x, Scalar) or not isinstance(y, SymScalar):
                x = sx
            for op in OPS:
                if op == "/" and sy.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        OPS[op](x, y)
                    continue
                z = OPS[op](x, y)
                want = general_path(op, sx, sy)
                assert_canonical_sym(z)
                assert (z.num, z.den) == want
                want = SymScalar(*want)
                assert z == want and hash(z) == hash(want)
                assert str(z) == str(want)
            neg = -sx
            assert_canonical_sym(neg)
            assert neg == SymScalar(_pneg(sx.num), sx.den)
            assert neg.conjugate() == SymScalar(
                tuple(c.conjugate() for c in neg.num),
                tuple(c.conjugate() for c in neg.den),
            )
            assert (sx == sy) == (not general_path("-", sx, sy)[0])

    def test_constants_are_recognised_however_built(self):
        rng = random.Random(103)
        x = SymScalar.symbol()
        for _ in range(100):
            c = Scalar(*rand_gaussian(rng))
            direct = SymScalar.const(c)
            general = SymScalar((c,), (Scalar(1),))
            via_symbol = (x + c) - x
            via_quotient = (x * c + c) / (x + 1)
            for z in (direct, general, via_symbol, via_quotient):
                assert_canonical_sym(z)
                assert z.is_constant()
                assert z.constant_value() == c
                assert z == direct and hash(z) == hash(direct)
                assert z == c and str(z) == scalar_str(c)


class TestMixedOperands:
    """A Scalar on the left of a SymScalar defers to the SymScalar operator."""

    def test_scalar_left_of_symscalar(self):
        rng = random.Random(104)
        x = SymScalar.symbol()
        operands = [x, SymScalar.symbol(coeff=Scalar(1, 2), power=2), x / (x + 1),
                    SymScalar.const(Scalar(3, -1))]
        operands += [rand_sym(rng) for _ in range(10)]
        for y in operands:
            for op in OPS:
                if op == "/" and y.is_zero():
                    continue
                got = OPS[op](Scalar(1), y)
                assert type(got) is SymScalar
                assert got == OPS[op](SymScalar.const(1), y)
                c = rand_scalar(rng)
                assert OPS[op](c, y) == OPS[op](SymScalar.const(c), y)

    def test_unsupported_operands_still_raise(self):
        with pytest.raises(TypeError):
            Scalar.coerce(SymScalar.symbol())
        for op in OPS:
            with pytest.raises(TypeError):
                OPS[op](Scalar(1), "x")
            with pytest.raises(TypeError):
                OPS[op]("x", Scalar(1))


# --- the normalised integer triple (a + b*i)/d


def assert_triple(z):
    """d > 0, gcd(a, b, d) = 1, and zero is exactly (0, 0, 1)."""
    assert isinstance(z, Scalar)
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0
    assert gcd(z.a, z.b, z.d) == 1
    if not z.a and not z.b:
        assert (z.a, z.b, z.d) == (0, 0, 1)
    assert Fraction(z.a, z.d) == z.re and Fraction(z.b, z.d) == z.im


def rand_big_fraction(rng, bits=60):
    return Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) | 1)


class TestTriple:
    def test_every_result_is_normalised(self):
        rng = random.Random(105)
        for _ in range(400):
            x, y = Scalar(*rand_gaussian(rng)), Scalar(*rand_gaussian(rng))
            assert_triple(x)
            for op in OPS:
                if op == "/" and y.is_zero():
                    continue
                assert_triple(OPS[op](x, y))
            assert_triple(-x)
            assert_triple(x.conjugate())
            if not x.is_zero():
                assert_triple(x.inverse())

    def test_zero_is_one_triple_however_built(self):
        rng = random.Random(106)
        for _ in range(100):
            x = Scalar(*rand_gaussian(rng))
            for z in (x - x, x + (-x), x * 0, Scalar(0) * x, Scalar(Fraction(0, 7), 0)):
                assert (z.a, z.b, z.d) == (0, 0, 1)
                assert z == Scalar(0) and not z

    def test_sixty_bit_operands_match_fraction_pairs(self):
        rng = random.Random(107)
        for _ in range(300):
            x = (rand_big_fraction(rng), rand_big_fraction(rng))
            y = (rand_big_fraction(rng), rand_big_fraction(rng))
            if rng.random() < 0.2:
                y = (y[0], Fraction(0))
            sx, sy = Scalar(*x), Scalar(*y)
            assert (sx.re, sx.im) == x
            for op, ref in REF_OPS.items():
                z = OPS[op](sx, sy)
                want = ref(x, y)
                assert_triple(z)
                assert_canonical_scalar(z)
                assert (z.re, z.im) == want
                assert str(z) == ref_str(*want)
            inv = sx.inverse()
            assert_triple(inv)
            assert inv * sx == Scalar(1)


class TestHashAgreesWithEquality:
    def test_one_element_set(self):
        assert len({1, Scalar(1), SymScalar.const(1)}) == 1
        assert len({Fraction(1, 2), Scalar(Fraction(1, 2)), SymScalar.const(Fraction(1, 2))}) == 1
        assert len({0, Scalar(0), SymScalar.const(0)}) == 1

    def test_equal_values_built_differently_hash_equal(self):
        assert hash(Scalar(Fraction(4, 2))) == hash(Scalar(3) / 3 * 2) == hash(2)
        rng = random.Random(108)
        for _ in range(200):
            x, y = rand_scalar(rng), rand_scalar(rng)
            if y.is_zero():
                continue
            z = x * y / y
            assert z == x and hash(z) == hash(x)
            assert hash(SymScalar.const(z)) == hash(x)
            if x.im == 0:
                assert x == x.re and hash(x) == hash(x.re)
            else:
                assert hash(x) == hash((x.re, x.im))

    def test_symbolic_values_still_hash_by_num_and_den(self):
        x = SymScalar.symbol()
        u = (x + 1) / (x - 1)
        assert hash(u) == hash((u.num, u.den))
        assert hash(u * (x - 1) / (x - 1)) == hash(u)


# --- Henrici cancellation and the integer polynomial kernels


def poly(*coeffs):
    """A polynomial tuple from its coefficients, low degree first."""
    return ref_pstrip(tuple(Scalar.coerce(c) for c in coeffs))


X = poly(0, 1)
# a denominator seen in the 8-dim generic model, and two of its relatives
NIL8_DEN = poly(Fraction(-1, 3), 0, Fraction(1, 3), 0, 1)


def rand_coeff(rng):
    pick = rng.random()
    if pick < 0.2:
        return S_ZERO
    if pick < 0.5:
        return Scalar(rng.randint(-3, 3))
    return Scalar(rand_fraction(rng, 5), rand_fraction(rng, 5) if rng.random() < 0.5 else 0)


def rand_ppoly(rng, deg):
    coeffs = [rand_coeff(rng) for _ in range(deg)] + [Scalar(*rand_gaussian(rng)) or S_ONE]
    return ref_pstrip(coeffs)


def rand_monic(rng, deg):
    return ref_pstrip([rand_coeff(rng) for _ in range(deg)] + [S_ONE])


def rand_den_pair(rng):
    """Two denominators of one of the shapes elimination meets."""
    shape = rng.choice(["xk", "shared", "coprime", "common", "nil8"])
    if shape == "xk":
        return (poly(*[0] * rng.randint(1, 3), 1), poly(*[0] * rng.randint(0, 3), 1))
    if shape == "shared":
        p = rand_monic(rng, rng.randint(1, 3))
        return p, p
    if shape == "coprime":
        return poly(rng.randint(-3, 3), 1), poly(rng.randint(4, 6), 0, 1)
    if shape == "common":
        f = rand_monic(rng, rng.randint(1, 2))
        return (ref_pmul(f, rand_monic(rng, rng.randint(0, 2))),
                ref_pmul(f, rand_monic(rng, rng.randint(0, 2))))
    others = [NIL8_DEN, ref_pmul(X, NIL8_DEN), ref_pmul(X, X), poly(1, 0, 1), X]
    return NIL8_DEN, rng.choice(others)


def rand_fraction_over(rng, den):
    """A canonical num/den over den or a divisor of it: the numerator is
    sometimes built with a factor x, x + 1 or den itself."""
    num = rand_ppoly(rng, rng.randint(0, 4))
    if rng.random() < 0.4:
        num = ref_pmul(num, rng.choice([X, poly(1, 1), den]))
    return SymScalar(*ref_reduce(num, den))


class TestHenrici:
    def test_sums_products_and_quotients_match_the_reference(self):
        rng = random.Random(131)
        for _ in range(250):
            p, q = rand_den_pair(rng)
            u, v = rand_fraction_over(rng, p), rand_fraction_over(rng, q)
            if rng.random() < 0.3:
                # v = w - u, so that u + v = w cancels part or all of the
                # denominators
                w = rand_fraction_over(rng, rng.choice([(S_ONE,), X]))
                v = SymScalar(*general_path("-", w, u))
            for op in OPS:
                if op == "/" and v.is_zero():
                    continue
                z = OPS[op](u, v)
                num, den = general_path(op, u, v)
                assert z.num == num and z.den == den
                assert z.den[-1] == S_ONE
                assert len(ref_pgcd(z.num, z.den)) == 1
                assert_canonical_sym(z)

    def test_pmul_matches_the_reference(self):
        rng = random.Random(132)
        for _ in range(300):
            a, b = rand_ppoly(rng, rng.randint(0, 5)), rand_ppoly(rng, rng.randint(0, 5))
            assert _pmul(a, b) == ref_pmul(a, b)
        assert _pmul((), X) == () and _pmul(X, ()) == ()

    def test_exact_quotient_matches_the_reference(self):
        rng = random.Random(133)
        for _ in range(200):
            g = ref_pmul(poly(*[0] * rng.randint(0, 2), 1), rand_monic(rng, rng.randint(0, 3)))
            a = ref_pmul(rand_ppoly(rng, rng.randint(0, 4)), g)
            assert _pquo(a, g) == ref_pdivmod(a, g)[0]

    def test_pgcd_matches_the_reference(self):
        rng = random.Random(134)
        for _ in range(200):
            f = rand_monic(rng, rng.randint(0, 3))
            a = ref_pmul(f, rand_ppoly(rng, rng.randint(0, 3)))
            b = ref_pmul(f, rand_ppoly(rng, rng.randint(0, 3)))
            if rng.random() < 0.3:
                a = ref_pmul(a, poly(*[0] * rng.randint(1, 3), 1))
            assert _pgcd(a, b) == ref_pgcd(a, b)

    def test_pgcd_cases(self):
        x1 = poly(1, 1)
        assert _pgcd(poly(0, 0, 0, 1), poly(0, 1, 1)) == X
        assert _pgcd(ref_pmul(poly(0, 0, 1), x1), ref_pmul(X, ref_pmul(x1, x1))) == ref_pmul(X, x1)
        assert _pgcd((), poly(2, 2)) == x1
        assert _pgcd(poly(0, Scalar(0, 3)), ()) == X
        assert _pgcd((), ()) == ()
        assert _pgcd(poly(3), poly(1, 0, 1)) == (S_ONE,)
        assert _pgcd(poly(0, 0, 1), poly(Fraction(-5, 2))) == (S_ONE,)
        assert _pgcd(NIL8_DEN, ref_pmul(NIL8_DEN, poly(0, 0, 7))) == NIL8_DEN

    def test_inverse_needs_no_gcd(self, monkeypatch):
        u = SymScalar(*ref_reduce(poly(1, 2, Scalar(0, 3)), NIL8_DEN))
        monkeypatch.setattr(scalars, "_pgcd", _refuse)
        inv = u.inverse()
        assert (inv.num, inv.den) == ref_reduce(u.den, u.num)
        assert SymScalar.const(Scalar(2, 1)).inverse() == SymScalar.const(Scalar(2, -1) / 5)
        with pytest.raises(ZeroDivisionError):
            SymScalar.const(0).inverse()


def laurent(terms):
    """sum c x^k over the {k: c} items, built by the checked constructor."""
    low = min(terms)
    num = [S_ZERO] * (max(terms) - low + 1)
    for k, c in terms.items():
        num[k - low] = c
    return SymScalar(num, poly(*[0] * -low, 1) if low < 0 else (S_ONE,))


def rand_laurent_terms(rng):
    """c x^k, or a sum of up to four such terms, k from -3 to 3, with
    Gaussian-rational coefficients over non-unit denominators."""
    def coeff():
        re = Fraction(rng.choice([-7, -5, -3, -1, 1, 2, 3, 5]), rng.randint(2, 6))
        return Scalar(re, Fraction(rng.randint(-5, 5), rng.randint(2, 5)))

    count = 1 if rng.random() < 0.4 else rng.randint(2, 4)
    return {rng.randint(-3, 3): coeff() for _ in range(count)}


class TestLaurentPath:
    """Over denominators that are powers of x, sums and products take no
    gcd, yet give exactly what the checked constructor makes of the
    unreduced numerator and denominator."""

    def test_matches_the_checked_constructor(self, monkeypatch):
        rng = random.Random(135)
        cases = []
        for _ in range(300):
            t = rand_laurent_terms(rng)
            pick = rng.random()
            if pick < 0.2:
                # v = -u + c x^k: the sum cancels to one term
                s = rand_laurent_terms(rng)
                s = {k: -c for k, c in t.items()} | {max(t) + 1: next(iter(s.values()))}
            elif pick < 0.35:
                # the inverse power: the product is a constant
                (k, c), = list(t.items())[:1]
                t, s = {k: c}, {-k: next(iter(rand_laurent_terms(rng).values()))}
            else:
                s = rand_laurent_terms(rng)
            u, v = laurent(t), laurent(s)
            den = ref_pmul(u.den, v.den)
            cases.append((u, v, {
                "*": SymScalar(ref_pmul(u.num, v.num), den),
                "+": SymScalar(ref_padd(ref_pmul(u.num, v.den), ref_pmul(v.num, u.den)), den),
                "-": SymScalar(ref_padd(ref_pmul(u.num, v.den),
                                        _pneg(ref_pmul(v.num, u.den))), den),
            }))
        for name in ("_pgcd", "_pquo"):
            monkeypatch.setattr(scalars, name, _no_gcd)
        for u, v, want in cases:
            for op, w in want.items():
                z = OPS[op](u, v)
                assert (z.num, z.den) == (w.num, w.den)
                assert z == w and hash(z) == hash(w)
                assert (z.den is _P_ONE) == (len(w.den) == 1)

    def test_common_power_of_x_cancels(self):
        x = SymScalar.symbol()
        inv = SymScalar.symbol(power=-1)
        assert x * inv == 1 and (x * inv).den is _P_ONE
        assert (x + 1) * inv * inv == SymScalar((1, 1), (0, 0, 1))
        assert (inv + x) - inv == x and ((inv + x) - inv).den is _P_ONE
        assert (inv + 1) - inv == 1 and ((inv + 1) - inv).is_constant()
        assert inv * inv - inv * inv == 0


def _no_gcd(*args):
    raise AssertionError("the Laurent path took a polynomial gcd")


def _refuse(*args):
    raise AssertionError("constant values must not enter polynomial arithmetic")


POLY_KERNELS = ("_pmul", "_padd", "_pcomb", "_pgcd", "_pquo")


class TestConstantPathStaysScalar:
    """Constants never enter polynomial arithmetic, so every kernel of the
    polynomial path can be made to fail without failing a constant run."""

    @pytest.fixture
    def refuse_polynomials(self, monkeypatch):
        for name in POLY_KERNELS:
            monkeypatch.setattr(scalars, name, _refuse)

    def test_row_echelon_on_a_constant_matrix(self, refuse_polynomials):
        rng = random.Random(141)
        rows = [[SymScalar.const(Scalar(*rand_gaussian(rng))) for _ in range(7)]
                for _ in range(5)]
        ech, pivots = linalg.row_echelon(linalg.sparse_rows(rows))
        assert len(ech) == len(pivots) > 0
        assert all(c.is_constant() for row in ech for c in row.values())

    def test_nijenhuis_g2(self, refuse_polynomials, capsys):
        g2.g2_algebra.cache_clear()
        try:
            assert cli.main(["nijenhuis", "--model", "g2"]) == 0
        finally:
            g2.g2_algebra.cache_clear()
        assert capsys.readouterr().out
