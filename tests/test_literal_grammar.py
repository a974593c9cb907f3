"""scalars.parse_rational against fractions.Fraction, literal by literal.

parse_rational builds its ints itself, in the grammar fractions.Fraction
accepts on Python 3.11.  Each literal here must give the value and the str
of Fraction(literal), or be refused with ValueError("bad rational literal
..."), as Fraction refuses it; the message echoes a literal of at most 40
characters, and of a longer one its first 40 and its length.  Other Pythons read a little differently:
3.10 refuses underscores, and 3.12 accepts spaces around '/'.  There the
reference is pinned to what 3.11 reads, so acx parses one grammar on every
Python.

The module needs no pytest, so it also runs as a plain script, with the
same checks, under a Python that has none:

    PYTHONPATH=src python tests/test_literal_grammar.py
"""

import random
import sys
from fractions import Fraction

from acx.scalars import MAX_LITERAL_DIGITS, Scalar, parse_rational

BIG = "9" * MAX_LITERAL_DIGITS

ACCEPTED = [
    " -3/4 ", "\t-3/4\n", "+0", "-0", "0/7", ".5", "5.", "1e3", "2.5E-1",
    "1_000", "1e1_0", "1/2_0", "٣", "1/٣", "1e-999",
    BIG, f"-{BIG}/{BIG[:-1]}7", "1e999", f"{BIG[:-6]}.123e-3",
]

REFUSED = [
    "1/0", "3/-4", "1.5/2", "1 / 2", "0x10", "inf", "nan", "", "+", "e5",
    "1e", "1__0", "- 1", "1_", "_1", "1._5", ".", "1e+", "1.2.3", "1e2e3",
    "-.e3133", "e9999", ".E5000",
]

# accepted by Fraction, refused by the limit on digits
OVER_LIMIT = ["1e-1000", "1e1000", "9" + BIG, f"1/{BIG}0", f"{BIG}.9"]

LIMIT = f"rational literal over {MAX_LITERAL_DIGITS} digits"

# what 3.11 reads of the hand-picked underscore literals, which 3.10 refuses
PINNED_BEFORE_311 = {"1_000": Fraction(1000), "1e1_0": Fraction(10**10),
                     "1/2_0": Fraction(1, 20), **dict.fromkeys(["1__0", "1_", "_1", "1._5"])}


def fraction_311(text):
    """Fraction(text) as Python 3.11 reads it, None when it refuses text.
    KeyError for an underscore literal that is not pinned, on 3.10."""
    if sys.version_info < (3, 11) and "_" in text:
        return PINNED_BEFORE_311[text]
    if sys.version_info >= (3, 12) and any(c.isspace() for c in text.strip()):
        return None  # 3.11 reads no whitespace inside a literal
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def bad(text):
    """The message parse_rational refuses the malformed literal text with."""
    if len(text) <= 40:
        return f"bad rational literal {text!r}"
    return f"bad rational literal {text[:40]!r}... ({len(text)} characters)"


def refusal(text):
    """The message parse_rational refuses text with, or None."""
    try:
        parse_rational(text)
    except ValueError as exc:
        return str(exc)
    return None


def check(text):
    """parse_rational(text) agrees with Fraction as 3.11 reads text; returns
    whether the literal was accepted."""
    want = fraction_311(text)
    if want is None:
        assert refusal(text) == bad(text), text
        return False
    got = parse_rational(text)
    assert type(got) is Scalar and got.b == 0, text
    assert got == want and hash(got) == hash(want), text
    assert str(got) == str(want), text
    return True


def seeded_literals(seed=38, count=3000):
    """Literals drawn around the grammar: half are built as sign, digits and
    one of '/', '.' or an exponent, with whitespace and underscores, and some
    of those then get one stray character that is no digit and no exponent
    mark; the other half are strings of at most five characters from the
    grammar's alphabet.  No literal that Fraction reads reaches
    MAX_LITERAL_DIGITS: a built one has an exponent of at most two digits,
    and five characters hold at most 9e999."""
    rng = random.Random(seed)

    def digits(most):
        s = "".join(rng.choice("0123456789٣") for _ in range(rng.randint(1, most)))
        if len(s) > 1 and rng.random() < 0.3:
            k = rng.randrange(1, len(s))
            s = s[:k] + "_" + s[k:]
        return s

    out = []
    for _ in range(count // 2):
        tail = rng.choice([
            "", f"/{digits(4)}", f".{digits(4)}", ".",
            f"e{rng.choice(['', '+', '-'])}{digits(2)}",
            f".{digits(3)}E{rng.choice(['', '-'])}{digits(2)}",
        ])
        text = rng.choice(["", "+", "-"]) + rng.choice([digits(4), ""]) + tail
        text = rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\n"])
        if rng.random() < 0.3:
            k = rng.randint(0, len(text))
            text = text[:k] + rng.choice("_/.+- x") + text[k:]
        out.append(text)
    alphabet = "0123456789٣_/.eE+- "
    for _ in range(count - count // 2):
        out.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5))))
    return out


def test_hand_picked_literals_are_read_as_fraction_reads_them():
    assert all(check(text) for text in ACCEPTED)
    assert not any(check(text) for text in REFUSED)


def test_the_digit_limit_refuses_what_fraction_reads():
    for text in OVER_LIMIT:
        assert fraction_311(text) is not None, text
        assert refusal(text) == LIMIT, text


def test_the_limit_is_checked_on_the_parts_the_grammar_split():
    # a malformed literal is refused as such at any length
    for text in ["9" * 2000 + "x", "e" + BIG + "9", f"1/{BIG}0/2"]:
        assert refusal(text) == bad(text), text[-9:]
    # zeros of any script ahead of an exponent do not hide its size
    for text in ["1e" + "٠" * 9 + "1000", "1e-" + "0٠" * 5 + "1000"]:
        assert fraction_311(text) is not None, text
        assert refusal(text) == LIMIT, text
    assert check("1e" + "٠" * 9 + "999")


def test_a_long_malformed_literal_is_shown_by_its_head_and_length():
    assert refusal("9" * 39 + "x") == f"bad rational literal {'9' * 39 + 'x'!r}"
    assert refusal("9" * 40 + "x") == (
        "bad rational literal '9999999999999999999999999999999999999999'... (41 characters)")
    assert refusal(f"1/{BIG}0/2") == (
        f"bad rational literal '1/{'9' * 38}'... ({MAX_LITERAL_DIGITS + 5} characters)")


def test_seeded_literals_are_read_as_fraction_reads_them():
    accepted = refused = 0
    for text in seeded_literals():
        if sys.version_info < (3, 11) and "_" in text and text not in PINNED_BEFORE_311:
            continue
        if check(text):
            accepted += 1
        else:
            refused += 1
    # the draw exercises both sides of the grammar
    assert accepted > 500 and refused > 500, (accepted, refused)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
