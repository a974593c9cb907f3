"""Exterior algebra over a complex coframe phi^1..phi^n, phibar^1..phibar^n.

A Form is a finite sum of monomials phi_alpha wedge phibar_beta with SymScalar
coefficients, stored against the canonical monomial order: holomorphic indices
ascending, then antiholomorphic indices ascending.  Coefficients of value zero
are never stored.

A key is a pair (alpha, beta) of plain strictly increasing tuples of
indices in 1..n.  Form(n, terms) is the checked constructor: it checks
every key a caller hands in, through _multi_index, and coerces every
coefficient; Form.coefficient and hodge.star_monomial check theirs the same
way.  Results of Form arithmetic, whose keys are canonical by construction,
are built by _form, which drops zero coefficients and checks nothing else.
A Form is an immutable value (scalars._Frozen); both builders fill its
slots through the slot descriptors _setn and _setterms.
"""

from __future__ import annotations

from itertools import combinations

from .scalars import SS_ONE, SS_ZERO, SymScalar, _Frozen, _signed_sum, _term


def _multi_index(indices) -> tuple:
    """A caller's indices as a key half: a strictly increasing tuple of
    positive ints, refused otherwise."""
    idx = tuple(indices)
    for k in idx:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"multi-index entries must be positive ints, got {k!r}")
    if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
        raise ValueError(f"multi-index must be strictly increasing, got {idx}")
    return idx


def merge_indices(a, b):
    """Merge two increasing index tuples; return (merged, sign) or None on overlap.

    The sign is that of the permutation sorting a + b.
    """
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def perm_sign(seq) -> int:
    """Sign of the permutation sorting seq (distinct entries): (-1)^inversions."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def complement(alpha, n):
    inside = set(alpha)
    return tuple(k for k in range(1, n + 1) if k not in inside)


class Form(_Frozen):
    """A form of mixed bidegree over an n-dimensional complex coframe."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"bad coframe dimension {n!r}")
        clean = {}
        for key, coeff in (terms or {}).items():
            alpha, beta = key
            alpha, beta = _multi_index(alpha), _multi_index(beta)
            if alpha and alpha[-1] > n:
                raise ValueError(f"holomorphic index {alpha[-1]} exceeds n={n}")
            if beta and beta[-1] > n:
                raise ValueError(f"antiholomorphic index {beta[-1]} exceeds n={n}")
            c = SymScalar.coerce(coeff)
            if not c.is_zero():
                clean[(alpha, beta)] = c
        _setn(self, n)
        _setterms(self, clean)

    # --- constructors

    @staticmethod
    def zero(n: int) -> "Form":
        return Form(n, {})

    @staticmethod
    def monomial(n: int, alpha=(), beta=(), coeff=1) -> "Form":
        return Form(n, {(_multi_index(alpha), _multi_index(beta)): SymScalar.coerce(coeff)})

    @staticmethod
    def phi(n: int, i: int) -> "Form":
        return Form.monomial(n, (i,), ())

    @staticmethod
    def phibar(n: int, i: int) -> "Form":
        return Form.monomial(n, (), (i,))

    # --- ring structure

    def _require_same_frame(self, other: "Form"):
        if not isinstance(other, Form):
            raise TypeError(f"expected Form, got {other!r}")
        if self.n != other.n:
            raise ValueError(f"coframe dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._require_same_frame(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            acc = terms.get(key)
            terms[key] = c if acc is None else acc + c
        return _form(self.n, terms)

    def __neg__(self):
        return _form(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "Form":
        c = SymScalar.coerce(coeff)
        return _form(self.n, {k: v * c for k, v in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        self._require_same_frame(other)
        terms = {}
        _wedge_into(terms, self.terms, other.terms)
        return _form(self.n, terms)

    # --- structure queries

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def _key(self):
        return self.n, self.terms

    def coefficient(self, alpha=(), beta=()) -> SymScalar:
        return self.terms.get((_multi_index(alpha), _multi_index(beta)), SS_ZERO)

    def bidegrees(self):
        return sorted({(len(a), len(b)) for (a, b) in self.terms})

    def project(self, p: int, q: int) -> "Form":
        return _form(
            self.n,
            {k: c for k, c in self.terms.items() if len(k[0]) == p and len(k[1]) == q},
        )

    def conjugate(self) -> "Form":
        terms = {}
        for (a, b), c in self.terms.items():
            # conj(phi_a phibar_b) = phibar_a phi_b = (-1)^(|a||b|) phi_b phibar_a
            cc = c.conjugate()
            if (len(a) * len(b)) % 2:
                cc = -cc
            terms[(b, a)] = cc
        return _form(self.n, terms)

    def monomials(self):
        return sorted(self.terms.keys())

    def __repr__(self):
        return f"Form({self.n}, {self.terms!r})"

    def __str__(self):
        return self.to_str()

    def to_str(self, symbol: str = "x") -> str:
        if not self.terms:
            return "0"
        return _signed_sum([
            _term(self.terms[(a, b)].to_str(symbol),
                  "^".join([f"phi{i}" for i in a] + [f"phibar{j}" for j in b]))
            for (a, b) in self.monomials()
        ])


# the slot setters (see scalars._Frozen)
_setn = Form.__dict__["n"].__set__
_setterms = Form.__dict__["terms"].__set__


def _form(n: int, terms) -> Form:
    """The Form with these terms, built without Form's checks: the keys
    must already be pairs of strictly increasing tuples of indices in
    1..n and the coefficients SymScalars, as on every result of Form
    arithmetic; only the zero coefficients are dropped.  The form keeps
    the dict, so the caller passes one it no longer uses."""
    for c in terms.values():
        if not c.num:
            terms = {k: c for k, c in terms.items() if c.num}
            break
    f = object.__new__(Form)
    _setn(f, n)
    _setterms(f, terms)
    return f


def _wedge_into(terms, x, y, r=0):
    """Add (-1)^r x ^ y into the dict terms, x and y being term dicts.

    Each pair of monomials merges both index pairs, and the product of its
    coefficients is formed only if neither merge overlaps; the sign is that
    of both merges, of moving phi of y's monomial past phibar of x's, and
    (-1)^r.
    """
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            ma = merge_indices(a1, a2)
            if ma is None:
                continue
            mb = merge_indices(b1, b2)
            if mb is None:
                continue
            c = c1 * c2
            key = (ma[0], mb[0])
            acc = terms.get(key)
            if ma[1] * mb[1] * (-1 if (r + len(b1) * len(a2)) % 2 else 1) > 0:
                terms[key] = c if acc is None else acc + c
            else:
                terms[key] = -c if acc is None else acc - c


def d_monomial(n: int, alpha, beta, d_generator) -> Form:
    """d(phi_alpha wedge phibar_beta) by the graded Leibniz rule.

    With g_1..g_k = phi^alpha then phibar^beta, d is the sum over r of
    (-1)^(r-1) d(g_r) wedge (the monomial without g_r): d(g_r) is a 2-form,
    so it moves to the front without a sign, and dropping g_r from a Form
    key (alpha, beta) keeps the canonical order.  _wedge_into merges each
    term of d(g_r) with that rest monomial straight into one dict: k reads
    of d_generator and no Form.wedge.  d_generator(A) is d of phi^(A+1) for
    A < n and of phibar^(A+1-n) otherwise.
    """
    terms = {}
    gens = [a - 1 for a in alpha] + [n + b - 1 for b in beta]
    p = len(alpha)
    for r, A in enumerate(gens):
        if r < p:
            ra, rb = alpha[:r] + alpha[r + 1:], beta
        else:
            s = r - p
            ra, rb = alpha, beta[:s] + beta[s + 1:]
        # (-1)^r from the Leibniz rule, r counting from 0
        _wedge_into(terms, d_generator(A).terms, {(ra, rb): SS_ONE}, r)
    return _form(n, terms)


def basis_monomials(n: int, p: int, q: int):
    """All (alpha, beta) with |alpha| = p, |beta| = q, in canonical order."""
    betas = list(combinations(range(1, n + 1), q))
    return [(a, b) for a in combinations(range(1, n + 1), p) for b in betas]
