"""Exact scalars: Gaussian rationals and rational functions in one formal symbol.

Scalar is Q(i).  A value (a + b*i)/d is held as three ints a, b, d with
d > 0 and gcd(a, b, d) = 1, so every value has exactly one representation
and zero is (0, 0, 1); no float ever appears.  Sums and products of
integral values (d = 1) skip the gcd, and every other result is normalised
by one three-argument gcd.  The components re and im are read-only views:
an int when integral and a fractions.Fraction otherwise.  _fraction builds
every Fraction acx builds, for a non-integral re or im only, and imports
fractions (and with it decimal and numbers) on the first.  parse_rational
reads a literal (model files, --a, --t) in one pass into a real Scalar,
PiParam.q is one, and the kt and t4 arithmetic runs on them, so no acx
invocation builds a Fraction or loads fractions.

SymScalar is the field Q(i)(x) of rational functions in a single formal
symbol x, which stands for pi in rational-multiple-of-pi contexts and for a
generic structure parameter otherwise; a given model only ever uses one
meaning, so zero testing is a polynomial identity test.  Its canonical form
is num/den with den monic and gcd(num, den) = 1.  Constant-path invariant:
a constant (num of length at most one) always carries the one shared unit
denominator _P_ONE, so is_constant() is an identity test, and arithmetic
between constants is Scalar arithmetic that never enters the polynomial
gcd.  The polynomial path runs only for values that involve the symbol.

Laurent path: when both denominators are powers of x (the Laurent
polynomials of Q(i)[x, 1/x], such as the entries of a J with a generic
parameter), a product is one integer convolution of the numerators with
their powers of x split off, a sum adds coefficients over the larger
power, and only the common power of x then cancels, so no gcd is taken.
Other reduced operands are combined by Henrici's (1956) cross-cancellation
(Knuth, TAOCP vol. 2, 4.5.1), so no gcd is ever taken of a full product.
For a/p * b/q, with g1 = gcd(a, q) and g2 = gcd(b, p), (a/g1)(b/g2) /
((p/g2)(q/g1)) is already reduced; division multiplies by the inverse q/b,
rescaled to a monic denominator with no gcd.  For a/p + b/q, with g =
gcd(p, q) (g = p when p == q), the sum is (a q + b p)/(p q) and reduced
when g = 1; otherwise only gcd(t, g) of t = a q/g + b p/g is taken.  A gcd
first splits off the power of x, gcd(a, b) = x^min(ord a, ord b)
gcd(a/x^ord a, b/x^ord b), which is a monomial when either stripped part
is constant; the rest is Euclid on Gaussian-integer coefficients over one
common denominator.  Products, linear combinations and exact quotients run
on such integer coefficients too, and each output coefficient is
normalised once.

Construction.  The exact value types are hashed and used as dict keys, so
each subclasses the one immutable base _Frozen and declares __slots__:
assigning or deleting an attribute raises AttributeError("<Type> is
immutable"), and no value has a __dict__.  Each module says how its own
types fill their slots.  Scalar and SymScalar, hot, use the slot
descriptors' __set__ (_seta, _setb, _setd, _setnum, _setden, fetched once
at import), cheaper than object.__setattr__, which PiParam calls.

Identity comes from a per-type _key(), a tuple: _Frozen's __eq__ compares
the keys of two values of one type, and its __hash__ hashes the key, a dict
in it as the frozenset of its items.  Scalar and SymScalar, hot, keep their
own pair, which compares across int, Fraction and Scalar; a real Scalar
hashes as the number it equals, computed from its ints by _ratio_hash.
"""

from __future__ import annotations

import sys
from math import gcd, lcm

from .errors import echo

_new = object.__new__


# Most digits in the numerator or the denominator of a rational literal, a
# decimal exponent e counting as |e| more digits.
MAX_LITERAL_DIGITS = 1000


def _fraction(*args):
    """fractions.Fraction(*args), importing fractions on the first call."""
    from fractions import Fraction

    return Fraction(*args)


def _is_fraction(value) -> bool:
    """Whether value is a Fraction, decided without importing fractions: no
    Fraction exists before the module is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _is_digits(s: str) -> bool:
    """Whether s is decimal digits with single underscores between them (PEP
    515), the form in which int() reads them."""
    return all(part.isdecimal() for part in s.split("_"))


def _bad_literal(text: str) -> ValueError:
    """The refusal of a malformed literal."""
    return ValueError(f"bad rational literal {echo(text)}")


def _literal_ints(whole, frac, q, x):
    """(n, d), not reduced and d >= 0, with n/d = whole.frac/q * 10**x for the
    parts parse_rational checked: whole carries the sign, frac or q is ''."""
    n, d = int(whole + frac), int(q or 1) * 10 ** len(frac.replace("_", ""))
    return (n * 10**x, d) if x >= 0 else (n, d * 10**-x)


def parse_rational(text: str) -> "Scalar":
    """A real Scalar from a literal in the grammar of fractions.Fraction on
    Python 3.11: whitespace around, an optional sign, then 'p/q' or digits
    with an optional fraction and exponent; a digit is any Unicode decimal
    digit, and single underscores may join digits.  The literal is split once
    into parts: the grammar is checked on them, then MAX_LITERAL_DIGITS, and
    only then are ints built, so a malformed literal is refused as such at
    any length and a long one before any int is built."""
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {echo(text)}")
    s = text.strip()
    sign = s[:1] if s[:1] in ("+", "-") else ""
    head, slash, q = s[len(sign):].partition("/")
    whole, e, exp = head.replace("E", "e").partition("e")
    whole, _, frac = whole.partition(".")
    if not ((whole or frac) and _is_digits(whole or "0") and _is_digits(frac or "0")
            and (not e or _is_digits(exp[1:] if exp[:1] in ("+", "-") else exp))
            and (not slash or whole == head and _is_digits(q))):
        raise _bad_literal(text)
    # |x| from nine digits after its zeros of any script: more exceed 10**8
    digits = exp.lstrip("+-").replace("_", "")
    digits = digits[next((k for k, c in enumerate(digits) if int(c)), len(digits)):][:9]
    x = int(digits or 0) * (-1 if exp[:1] == "-" else 1)
    size = len((whole + frac).replace("_", "")) + abs(x)
    if max(size, len(q.replace("_", ""))) > MAX_LITERAL_DIGITS:
        raise ValueError(f"rational literal over {MAX_LITERAL_DIGITS} digits")
    n, d = _literal_ints(sign + whole, frac, q, x)
    if not d:
        raise _bad_literal(text)
    return _norm(n, 0, d)


def _ratio(value):
    """A real value as the ints (n, d) of n/d in lowest terms, d > 0: an int,
    a real Scalar, a rational string (parse_rational), or a value with an
    exact as_integer_ratio(), such as a Fraction or a Decimal.  A binary
    float is refused: 0.1 would silently become
    3602879701896397/36028797018963968."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        value = parse_rational(value)
    if isinstance(value, Scalar):
        if value.b:
            raise TypeError(f"{value} is not real")
        return value.a, value.d
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a binary float; pass an int, Fraction or string")
    try:
        return value.as_integer_ratio()
    except AttributeError:
        raise TypeError(f"cannot make a Scalar from {value!r}") from None


def _scalar(a, b, d):
    """The Scalar (a + b*i)/d from a triple already in canonical form."""
    s = _new(Scalar)
    _seta(s, a)
    _setb(s, b)
    _setd(s, d)
    return s


def _norm(a, b, d):
    """The Scalar (a + b*i)/d for any d > 0."""
    g = gcd(a, b, d)
    return _scalar(a // g, b // g, d // g)


def _ratio_hash(n, d):
    """hash(Fraction(n, d)) for d > 0, computed from the ints as
    Fraction.__hash__ does."""
    g, m = gcd(n, d), sys.hash_info.modulus
    n, d = n // g, d // g
    h = abs(n) * pow(d, -1, m) % m if d % m else sys.hash_info.inf
    return h if n >= 0 else -2 if h == 1 else -h


class _Frozen:
    """Base of the immutable value types: assigning or deleting an attribute
    raises AttributeError.  Subclasses fill their slots while being built
    through the slot descriptors' __set__ or object.__setattr__, both of
    which bypass this guard.  __eq__ and __hash__ read _key()."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(tuple(frozenset(v.items()) if type(v) is dict else v for v in self._key()))


class Scalar(_Frozen):
    """A Gaussian rational re + im*i, stored as (a + b*i)/d (see the module
    docstring for the invariant)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        (a, p), (b, q) = _ratio(re), _ratio(im)
        d = lcm(p, q)
        # gcd(a, b, d) = 1 since each of re and im is in lowest terms
        _seta(self, a * (d // p))
        _setb(self, b * (d // q))
        _setd(self, d)

    @property
    def re(self):
        return _fraction(self.a, self.d) if self.a % self.d else self.a // self.d

    @property
    def im(self):
        return _fraction(self.b, self.d) if self.b % self.d else self.b // self.d

    @staticmethod
    def coerce(value) -> "Scalar":
        s = _operand(value)
        if s is NotImplemented:
            raise TypeError(f"cannot coerce {value!r} to Scalar")
        return s

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            if d == 1:
                return _scalar(self.a + other.a, self.b + other.b, 1)
            return _norm(self.a + other.a, self.b + other.b, d)
        return _norm(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            if d == 1:
                return _scalar(self.a - other.a, self.b - other.b, 1)
            return _norm(self.a - other.a, self.b - other.b, d)
        return _norm(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        d = self.d * other.d
        return _scalar(a, b, 1) if d == 1 else _norm(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b, d = self.a, self.b, self.d
        if not a and not b:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _norm(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is NotImplemented else other * self.inverse()

    def conjugate(self) -> "Scalar":
        return _scalar(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # that of the int or Fraction a real Scalar equals, else of (re, im)
        a, b, d = self.a, self.b, self.d
        return hash((_ratio_hash(a, d), _ratio_hash(b, d))) if b else _ratio_hash(a, d)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return scalar_str(self)


# the slot setters (see _Frozen)
_seta = Scalar.__dict__["a"].__set__
_setb = Scalar.__dict__["b"].__set__
_setd = Scalar.__dict__["d"].__set__


def _operand(value):
    """An operand of a Scalar operator as a Scalar, or NotImplemented for a
    type Scalar does not absorb (so that, e.g., SymScalar's reflected
    operator runs)."""
    if isinstance(value, Scalar):
        return value
    if type(value) is int:
        return _scalar(value, 0, 1)
    if isinstance(value, int) or _is_fraction(value):
        return Scalar(value)
    return NotImplemented


S_ZERO = Scalar(0)
S_ONE = Scalar(1)
S_I = Scalar(0, 1)


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms as str(Fraction(n, d)) renders it, for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def scalar_str(s: Scalar) -> str:
    """Canonical compact rendering, e.g. '3/4', '-i', '1+2i', '2-1/3i'."""
    a, b, d = s.a, s.b, s.d
    if not b:
        return _ratio_str(a, d)
    imag = "i" if b == d else "-i" if b == -d else f"{_ratio_str(b, d)}i"
    if not a:
        return imag
    return f"{_ratio_str(a, d)}{'' if imag[0] == '-' else '+'}{imag}"


# --- polynomials over Scalar, coefficients low degree -> high, no trailing zeros


def _pstrip(coeffs):
    i = len(coeffs)
    while i > 0 and not (coeffs[i - 1].a or coeffs[i - 1].b):
        i -= 1
    return tuple(coeffs[:i])


def _pneg(a):
    return tuple(-c for c in a)


def _padd(a, b):
    """a + b coefficient by coefficient; where one side is zero, the other
    side's Scalar is kept as it is."""
    if len(a) < len(b):
        a, b = b, a
    t = [x if not (y.a or y.b) else y if not (x.a or x.b) else x + y for x, y in zip(a, b)]
    return _pstrip(t + list(a[len(b):]))


def _lift(a):
    """a as Gaussian-integer coefficients over one common denominator:
    (re, im, d) with a[k] = (re[k] + im[k]*i)/d."""
    d = lcm(*[c.d for c in a])
    if d == 1:
        return [c.a for c in a], [c.b for c in a], 1
    return [c.a * (d // c.d) for c in a], [c.b * (d // c.d) for c in a], d


def _conv(a, b):
    """The product of two lifted polynomials, lifted."""
    ar, ai, da = a
    br, bi, db = b
    re = [0] * (len(ar) + len(br) - 1)
    if any(ai) or any(bi):
        im = re[:]
        for i, (x, y) in enumerate(zip(ar, ai)):
            if x or y:
                for j, (u, v) in enumerate(zip(br, bi), i):
                    re[j] += x * u - y * v
                    im[j] += x * v + y * u
    else:
        im = [0] * len(re)
        for i, x in enumerate(ar):
            if x:
                for j, u in enumerate(br, i):
                    re[j] += x * u
    return re, im, da * db


def _unlift(re, im, d):
    """The polynomial with coefficients (re[k] + im[k]*i)/d, each
    normalised once; trailing zeros are dropped."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if d == 1:
        return tuple(_scalar(x, y, 1) for x, y in zip(re[:n], im[:n]))
    return tuple(_norm(x, y, d) if x or y else S_ZERO for x, y in zip(re[:n], im[:n]))


def _is_one(a):
    return len(a) == 1 and a[0] == S_ONE


def _pmul(a, b):
    """a*b: one integer convolution over the product of the two common
    denominators, and one normalisation per coefficient."""
    if len(a) == 1:
        return b if a[0] == S_ONE else tuple(a[0] * y for y in b)
    if len(b) == 1:
        return a if b[0] == S_ONE else tuple(x * b[0] for x in a)
    return _unlift(*_conv(_lift(a), _lift(b)))


def _pcomb(a, x, b, y, negate):
    """a*x + b*y, or a*x - b*y when negate, over one common denominator;
    x or y may be the unit polynomial."""
    u = _lift(a) if _is_one(x) else _conv(_lift(a), _lift(x))
    v = _lift(b) if _is_one(y) else _conv(_lift(b), _lift(y))
    ur, ui, du = u
    vr, vi, dv = v
    d = lcm(du, dv)
    su, sv = d // du, d // dv
    if negate:
        sv = -sv
    n = max(len(ur), len(vr))
    re, im = [0] * n, [0] * n
    for k, (p, q) in enumerate(zip(ur, ui)):
        re[k] = p * su
        im[k] = q * su
    for k, (p, q) in enumerate(zip(vr, vi)):
        re[k] += p * sv
        im[k] += q * sv
    return _unlift(re, im, d)


def _order(a):
    """The power of x dividing the nonzero polynomial a."""
    k = 0
    while not (a[k].a or a[k].b):
        k += 1
    return k


def _xpow(p):
    """k when the monic polynomial p is x^k, else -1."""
    k = len(p) - 1
    return -1 if k and any(p[:k]) else k


def _lmonic(a):
    """The lifted nonzero polynomial a divided by its leading coefficient,
    with the content of the ints and the denominator divided out; its
    leading coefficient is then (d, 0).  The old denominator cancels."""
    re, im, _ = a
    x, y = re[-1], im[-1]
    if y:
        # (u + v i)/(x + y i) = (u + v i)(x - y i)/(x^2 + y^2)
        n = x * x + y * y
        re, im = ([u * x + v * y for u, v in zip(re, im)],
                  [v * x - u * y for u, v in zip(re, im)])
    else:
        n = x
        if x < 0:
            n, re, im = -x, [-u for u in re], [-v for v in im]
    g = gcd(n, *re, *im)
    if g == 1:
        return re, im, n
    return [u // g for u in re], [v // g for v in im], n // g


def _ldivide(a, b):
    """Long division of the lifted a by the lifted monic b, as (quotient
    coefficients from the top down, each an unnormalised triple (re, im, e),
    and the lifted remainder with no trailing zeros).  With the remainder
    over a common denominator e and b = B/d, one step is
    r - (t/e) x^k b = (r*d - t x^k B)/(e*d), so every step stays in the
    integers."""
    br, bi, d = b
    rr, ri, e = a[0][:], a[1][:], a[2]
    nb = len(br) - 1
    quo = []
    for k in range(len(rr) - 1 - nb, -1, -1):
        # the leading term cancels exactly, so it is popped, not computed
        t, u = rr.pop(), ri.pop()
        quo.append((t, u, e))
        if not t and not u:
            continue
        if d != 1:
            rr, ri, e = [x * d for x in rr], [y * d for y in ri], e * d
        for j in range(nb):
            x, y = br[j], bi[j]
            rr[k + j] -= t * x - u * y
            ri[k + j] -= t * y + u * x
    while rr and not rr[-1] and not ri[-1]:
        rr.pop()
        ri.pop()
    return quo, (rr, ri, e)


def _pquo(a, g):
    """The exact quotient a/g for a monic divisor g of a."""
    k = _order(g)
    a, g = a[k:], g[k:]
    if len(g) == 1:
        return a
    if len(a) == len(g):
        return a[-1:]
    quo, _ = _ldivide(_lift(a), _lift(g))
    return tuple(_norm(*c) for c in reversed(quo))


def _monic(a, b):
    """a and b divided by the leading coefficient of the nonzero a."""
    if a[-1] == S_ONE:
        return a, b
    inv = a[-1].inverse()
    return tuple(c * inv for c in a), tuple(c * inv for c in b)


def _pgcd(a, b):
    """The monic gcd of the nonzero a and b.  The power of x is split off
    first: gcd(a, b) = x^min(ord a, ord b) gcd(a/x^ord a, b/x^ord b),
    and when either stripped part is constant the gcd is that monomial.
    Otherwise Euclid runs on lifted integer coefficients, each remainder
    made monic and stripped of its content."""
    i, j = _order(a), _order(b)
    a, b = a[i:], b[j:]
    g = _P_ONE
    if len(a) > 1 and len(b) > 1:
        if len(a) < len(b):
            a, b = b, a
        u, v = _lift(a), _lmonic(_lift(b))
        while len(v[0]) > 1:
            _, r = _ldivide(u, v)
            if not r[0]:
                g = _unlift(*v)
                break
            u, v = v, _lmonic(r)
    k = min(i, j)
    return (S_ZERO,) * k + g if k else g


_P_ONE = (S_ONE,)


def _sym(num, den):
    """A SymScalar from a num/den pair already in canonical form."""
    s = _new(SymScalar)
    _setnum(s, num)
    _setden(s, den)
    return s


def _poly(num, den):
    """num/den with gcd(num, den) = 1, den monic and num nonzero: every sum,
    product and inverse that ends here has a nonzero numerator."""
    return _sym(num, _P_ONE if len(den) == 1 else den)


def _const(c: Scalar) -> "SymScalar":
    """The constant c as a SymScalar, bypassing the polynomial path."""
    if c.is_zero():
        return SS_ZERO
    return _sym((c,), _P_ONE)


def _laurent(num, k):
    """num/x^k in canonical form, for k of either sign: only the common
    power of x cancels."""
    if not num:
        return SS_ZERO
    if k > 0:
        m = min(_order(num), k)
        num, k = num[m:], k - m
    if k > 0:
        return _sym(num, (S_ZERO,) * k + _P_ONE)
    return _sym((S_ZERO,) * -k + num, _P_ONE)


def _sum(u, v, negate):
    """u + v, or u - v when negate.  Over denominators x^i and x^j the
    coefficients add over x^max(i, j); otherwise Henrici's rule: with
    g = gcd(p, q) for u = a/p and v = b/q, only gcd(t, g) of
    t = a q/g + b p/g is taken, and none at all when g = 1."""
    a, b = u.num, v.num
    if not b:
        return u
    if not a:
        return -v if negate else v
    p, q = u.den, v.den
    if p is _P_ONE and q is _P_ONE:
        if len(a) == 1 and len(b) == 1:
            return _const(a[0] - b[0] if negate else a[0] + b[0])
    i, j = _xpow(p), _xpow(q)
    if i >= 0 and j >= 0:
        k = max(i, j)
        if negate:
            b = _pneg(b)
        return _laurent(_padd((S_ZERO,) * (k - i) + a, (S_ZERO,) * (k - j) + b), k)
    if p == q:
        g, p1, q1 = p, _P_ONE, _P_ONE
    else:
        g = _pgcd(p, q)
        if len(g) == 1:
            return _poly(_pcomb(a, q, b, p, negate), _pmul(p, q))
        p1, q1 = _pquo(p, g), _pquo(q, g)
    t = _pcomb(a, q1, b, p1, negate)
    if not t:
        return SS_ZERO
    g = _pgcd(t, g)
    if len(g) > 1:
        t, q = _pquo(t, g), _pquo(q, g)
    return _poly(t, _pmul(p1, q))


class SymScalar(_Frozen):
    """An element of Q(i)(x): num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        num = _pstrip(tuple(Scalar.coerce(c) for c in num))
        den = _pstrip(tuple(Scalar.coerce(c) for c in den))
        if not den:
            raise ZeroDivisionError("SymScalar with zero denominator")
        if num:
            # a constant denominator shares no factor with num
            if len(den) > 1:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num, den = _pquo(num, g), _pquo(den, g)
            den, num = _monic(den, num)
        if not num or len(den) == 1:
            den = _P_ONE
        _setnum(self, num)
        _setden(self, den)

    @staticmethod
    def const(value) -> "SymScalar":
        return _const(Scalar.coerce(value))

    @staticmethod
    def symbol(coeff=1, power: int = 1) -> "SymScalar":
        """coeff * x^power (power may be negative: Laurent via the denominator)."""
        c = Scalar.coerce(coeff)
        if power >= 0:
            return SymScalar((S_ZERO,) * power + (c,))
        return SymScalar((c,), (S_ZERO,) * (-power) + (S_ONE,))

    @staticmethod
    def coerce(value) -> "SymScalar":
        if isinstance(value, SymScalar):
            return value
        return _const(Scalar.coerce(value))

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den is _P_ONE

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num[0] if self.num else S_ZERO

    def __add__(self, other):
        if type(other) is not SymScalar:
            other = SymScalar.coerce(other)
        return _sum(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        # negation keeps the canonical form
        if not self.num:
            return self
        return _sym(_pneg(self.num), self.den)

    def __sub__(self, other):
        if type(other) is not SymScalar:
            other = SymScalar.coerce(other)
        return _sum(self, other, True)

    def __rsub__(self, other):
        return _sum(SymScalar.coerce(other), self, True)

    def __mul__(self, other):
        if type(other) is not SymScalar:
            other = SymScalar.coerce(other)
        a, b = self.num, other.num
        if not a or not b:
            return SS_ZERO
        p, q = self.den, other.den
        # the constant 1 (numerator and denominator the polynomial 1) returns
        # the other factor itself
        if p is _P_ONE and a == _P_ONE:
            return other
        if q is _P_ONE and b == _P_ONE:
            return self
        if len(a) == 1 and p is _P_ONE:
            # a nonzero constant factor keeps the canonical form
            if len(b) == 1 and q is _P_ONE:
                return _const(a[0] * b[0])
            return _sym(_pmul(a, b), q)
        if len(b) == 1 and q is _P_ONE:
            return _sym(_pmul(a, b), p)
        i, j = _xpow(p), _xpow(q)
        if i >= 0 and j >= 0:
            # Laurent factors: with the powers of x split off the numerators,
            # one product, and a monomial factor scales the other
            m, n = _order(a), _order(b)
            return _laurent(_pmul(a[m:], b[n:]), i + j - m - n)
        # Henrici: with g1 = gcd(a, q) and g2 = gcd(b, p), the product
        # (a/g1)(b/g2) / ((p/g2)(q/g1)) is already reduced; a unit
        # denominator (power 0) shares no factor
        if j:
            g = _pgcd(a, q)
            if len(g) > 1:
                a, q = _pquo(a, g), _pquo(q, g)
        if i:
            g = _pgcd(b, p)
            if len(g) > 1:
                b, p = _pquo(b, g), _pquo(p, g)
        return _poly(_pmul(a, b), _pmul(p, q))

    __rmul__ = __mul__

    def inverse(self) -> "SymScalar":
        """den/num, rescaled so that the new denominator is monic."""
        num, den = self.num, self.den
        if not num:
            raise ZeroDivisionError("division by zero SymScalar")
        if den is _P_ONE and len(num) == 1:
            return _sym((num[0].inverse(),), _P_ONE)
        num, den = _monic(num, den)
        return _poly(den, num)

    def __truediv__(self, other):
        if type(other) is not SymScalar:
            other = SymScalar.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return SymScalar.coerce(other) * self.inverse()

    def conjugate(self) -> "SymScalar":
        # The symbol is real (pi, or a real structure parameter), so
        # conjugation is a ring automorphism and keeps the canonical form.
        den = self.den
        if den is not _P_ONE:
            den = tuple(c.conjugate() for c in den)
        return _sym(tuple(c.conjugate() for c in self.num), den)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if type(other) is not SymScalar:
            try:
                other = SymScalar.coerce(other)
            except TypeError:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as its Scalar, which it equals
        return hash(self.constant_value() if self.is_constant() else (self.num, self.den))

    def __repr__(self):
        return f"SymScalar({self.num!r}, {self.den!r})"

    def __str__(self):
        return self.to_str()

    def to_str(self, symbol: str = "x") -> str:
        num = _poly_str(self.num, symbol)
        if self.den is _P_ONE:
            return num
        return f"({num})/({_poly_str(self.den, symbol)})"


_setnum = SymScalar.__dict__["num"].__set__
_setden = SymScalar.__dict__["den"].__set__


def _term(cs: str, factor: str) -> str:
    """The rendered coefficient cs times factor: 1 and -1 drop before a
    factor, and a sum (a sign past the first character) is parenthesised,
    also alone when factor is ''."""
    if factor and cs in ("1", "-1"):
        return cs[:-1] + factor
    if "+" in cs[1:] or "-" in cs[1:]:
        cs = f"({cs})"
    return f"{cs}*{factor}" if factor else cs


def _signed_sum(parts) -> str:
    """The rendered terms joined by ' + ', or by ' - ' before a negative one."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _poly_str(coeffs, symbol: str) -> str:
    """The polynomial from its top degree down; the degree-0 term is bare."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c.is_zero():
            continue
        cs = scalar_str(c)
        parts.append(_term(cs, symbol if k == 1 else f"{symbol}^{k}") if k else cs)
    return _signed_sum(parts)


SS_ZERO = SymScalar(())
SS_ONE = _const(S_ONE)


class PiParam(_Frozen):
    """The structure parameter a: either a rational multiple of pi or generic.

    RationalPi(q) carries a = q*pi with the formal symbol meaning pi;
    Generic carries a itself as the formal symbol.  a = 0 is rejected.  q is
    a real Scalar, which equals, hashes and renders as the Fraction of its
    value; a binary float or a non-real q raises TypeError.
    """

    __slots__ = ("kind", "q")

    def __init__(self, kind: str, q=None):
        if kind not in ("rational_pi", "generic"):
            raise ValueError(f"unknown PiParam kind {kind!r}")
        if kind == "rational_pi":
            q = Scalar(q)
            if not q:
                raise ValueError("a = 0 is not an almost complex structure parameter")
        else:
            q = None
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "q", q)

    @staticmethod
    def rational_pi(q) -> "PiParam":
        return PiParam("rational_pi", q)

    @staticmethod
    def generic() -> "PiParam":
        return PiParam("generic")

    @staticmethod
    def parse(text: str) -> "PiParam":
        """Parse 'q*pi', 'pi', '-pi', or 'generic'."""
        t = text.strip().lower()
        if t == "generic":
            return PiParam.generic()
        if t.endswith("*pi"):
            return PiParam.rational_pi(parse_rational(t[:-3]))
        if t == "pi":
            return PiParam.rational_pi(1)
        if t == "-pi":
            return PiParam.rational_pi(-1)
        raise ValueError(f"bad parameter literal {echo(text)}; want 'q*pi' or 'generic'")

    @property
    def symbol_name(self) -> str:
        return "pi" if self.kind == "rational_pi" else "a"

    def a_value(self) -> SymScalar:
        """The parameter as a SymScalar in this parameter's symbol."""
        if self.kind == "rational_pi":
            return SymScalar.symbol(coeff=self.q)
        return SymScalar.symbol()

    def _key(self):
        return self.kind, self.q

    def __repr__(self):
        if self.kind == "rational_pi":
            return f"PiParam.rational_pi({self.q.re!r})"
        return "PiParam.generic()"

    def __str__(self):
        if self.kind == "rational_pi":
            return f"{self.q}*pi"
        return "generic"
