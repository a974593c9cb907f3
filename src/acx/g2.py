"""The compact exceptional symmetry algebra of the octonion cross product,
its fourteen-dimensional matrix model, and the round six-sphere it acts on.

Everything is exact: basis matrices over Gaussian rationals, kept as their
nonzero entries, brackets by honest matrix commutators with coordinate
extraction re-verified entry by entry, the three-form and cross product
generated from one seven-term display, and the sphere's invariant Dolbeault
census run through the same coframe machinery as the torus models: its
canonical bundle is a bundles.CanonicalPower trivialized over the basic
indices, like K^m on any other model.

A G2Element is held lifted, in the convention of Scalar and of the
polynomial kernels in scalars: its coordinates and matrix entries are
Gaussian-integer pairs (re, im) over one denominator den > 0, with gcd 1
over all of them.  Commutators and the re-entry check run on those
integers, and so do the membership and three-form invariance kernels of
CrossProduct: is_member and preserves_form take nonzero lifted entries, which
the membership sample and the projection check hand them straight from an
element (a Scalar matrix is lifted by _lift_matrix first).  An element holds
nothing else: it keeps no Scalar and no row index, and it is an immutable
value (scalars._Frozen) whose slots are filled through the slot descriptors
_setden, _setcoords and _setentries.  Scalars appear only as views at the
API boundary (entries, matrix, coordinates()), as the structure constants,
as the span test's input and in refusal messages.

The 91 basis commutators are taken in one place, _basis_brackets: the
catalogue diff, the h-closure test and the Jacobi sweep of
verify_bracket_table read them, and g2_algebra builds its LieAlgebra on
them.  That sweep is lie._jacobi_failures, the one LieAlgebra runs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache, partial
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from .errors import InputError, RefusalError
from .forms import Form, perm_sign
from .hodge import Report, _section_monomials, _star, invariant_harmonic_space
from .lie import ACStructure, LieACS, LieAlgebra, _jacobi_failures, _lift_ad
from .linalg import rank, span_test
from .scalars import (S_I, S_ONE, S_ZERO, SS_ONE, SS_ZERO, Scalar, SymScalar, _Frozen, _lift,
                      _new, _norm)
from .torus import _plurigenus_level, kodaira_dimension, section_level_profile

X_DIM = 6
Y_DIM = 8
N = 7  # the octonion dimension: 7-vectors and 7x7 matrices

BASIS_NAMES: Tuple[str, ...] = tuple(
    [f"f{i}" for i in range(1, X_DIM + 1)] + [f"h{j}" for j in range(1, Y_DIM + 1)]
)


_sc = Scalar.coerce

# A lifted value is a Gaussian-integer pair (re, im) standing for
# (re + im*i)/den over the denominator of the element that holds it.
Lifted = Tuple[int, int]


def _matrix_from_coordinates(x: Sequence[Scalar], y: Sequence[Scalar]):
    x1, x2, x3, x4, x5, x6 = x
    y1, y2, y3, y4, y5, y6, y7, y8 = y
    z = S_ZERO
    return (
        (z, x1, -x2, x3, -x4, x5, -x6),
        (-x1, z, y1, -x6 + y4, x5 + y3, x4 - y6, -x3 - y5),
        (x2, -y1, z, -y3, y4, y5, -y6),
        (-x3, x6 - y4, y3, z, -y1 + y2, -x2 - y8, x1 - y7),
        (x4, -x5 - y3, -y4, y1 - y2, z, y7, -y8),
        (-x5, -x4 + y6, -y5, x2 + y8, -y7, z, -y2),
        (x6, x3 + y5, y6, -x1 + y7, y8, y2, z),
    )


@lru_cache(maxsize=1)
def _placements():
    """For each of the 14 coordinates, the ((i, j), sign) entries it places,
    read off the display at the unit coordinate."""
    out = []
    for c in range(X_DIM + Y_DIM):
        u = [S_ONE if k == c else S_ZERO for k in range(X_DIM + Y_DIM)]
        M = _matrix_from_coordinates(u[:X_DIM], u[X_DIM:])
        out.append(tuple(((i, j), M[i][j].re) for i in range(N) for j in range(N) if M[i][j]))
    return tuple(out)


@lru_cache(maxsize=1)
def _readout():
    """Where _from_entries reads each coordinate, as {(i, j): (k, sign)}:
    coordinate k is sign times the first entry, row by row, that no other
    coordinate places."""
    places = _placements()
    shared = Counter(pos for p in places for pos, _ in p)
    out = {}
    for k, p in enumerate(places):
        pos, sign = next((pos, s) for pos, s in p if shared[pos] == 1)
        out[pos] = (k, sign)
    return out


def _place(coords: Dict[int, Lifted]) -> Dict[Tuple[int, int], Lifted]:
    """The nonzero matrix entries that nonzero lifted coordinates place."""
    E: Dict[Tuple[int, int], Lifted] = {}
    places = _placements()
    for k, (r, i) in coords.items():
        for pos, sign in places[k]:
            t = E.get(pos)
            if sign < 0:
                E[pos] = (-r, -i) if t is None else (t[0] - r, t[1] - i)
            else:
                E[pos] = (r, i) if t is None else (t[0] + r, t[1] + i)
    return {p: v for p, v in E.items() if v[0] or v[1]}


def _lift_matrix(A) -> Tuple[Dict[Tuple[int, int], Lifted], int]:
    """The nonzero entries {(i, j): (re, im)} of a 7x7 matrix, lifted over
    one denominator, and that denominator."""
    A = tuple(tuple(c if type(c) is Scalar else _sc(c) for c in row) for row in A)
    if len(A) != N or any(len(row) != N for row in A):
        raise InputError("matrix must be 7x7")
    nonzero = {(i, j): c for i, row in enumerate(A) for j, c in enumerate(row) if c}
    re, im, den = _lift(nonzero.values())
    return dict(zip(nonzero, zip(re, im))), den


def _element(coords: Dict[int, Lifted], den: int) -> "G2Element":
    """The element with these nonzero lifted coordinates over den > 0,
    reduced by one gcd."""
    if den > 1:
        g = gcd(den, *(c for v in coords.values() for c in v))
        if g > 1:
            den //= g
            coords = {k: (r // g, i // g) for k, (r, i) in coords.items()}
    e = _new(G2Element)
    _setden(e, den)
    _setcoords(e, coords)
    _setentries(e, _place(coords))
    return e


class G2Element(_Frozen):
    """An element of the algebra, held lifted: its nonzero coordinates
    {k: (re, im)} (k = 0..13 for f1..f6, h1..h8) and the nonzero entries
    {(i, j): (re, im)} of its 7x7 matrix, all Gaussian integers over one
    denominator den > 0 with gcd 1 over all of them, so that equal elements
    are held alike.  entries, matrix and coordinates() are Scalar views
    built on demand."""

    __slots__ = ("den", "_coords", "_entries")

    def __init__(self, x: Sequence, y: Sequence):
        x = tuple(c if type(c) is Scalar else _sc(c) for c in x)
        y = tuple(c if type(c) is Scalar else _sc(c) for c in y)
        if len(x) != X_DIM or len(y) != Y_DIM:
            raise InputError(
                f"coordinates must be {X_DIM} + {Y_DIM} values, "
                f"got {len(x)} + {len(y)}"
            )
        # over the lcm of the denominators the gcd is already 1: if p^e is
        # the power of a prime p in the lcm, p^e divides some c.d, so den // c.d
        # is prime to p, and p does not divide both c.a and c.b
        re, im, den = _lift(x + y)
        coords = {k: v for k, v in enumerate(zip(re, im)) if v[0] or v[1]}
        _setden(self, den)
        _setcoords(self, coords)
        _setentries(self, _place(coords))

    def coordinates(self) -> Tuple[Scalar, ...]:
        den, get = self.den, self._coords.get
        return tuple(_norm(*get(k, (0, 0)), den) for k in range(X_DIM + Y_DIM))

    @property
    def entries(self) -> Dict[Tuple[int, int], Scalar]:
        """The nonzero matrix entries as Scalars."""
        return {p: _norm(*v, self.den) for p, v in self._entries.items()}

    @property
    def matrix(self):
        """The dense 7x7 view of the entries."""
        M = [[S_ZERO] * N for _ in range(N)]
        for (i, j), v in self._entries.items():
            M[i][j] = _norm(*v, self.den)
        return tuple(map(tuple, M))

    @staticmethod
    def from_matrix(A) -> "G2Element":
        """Rebuild an element from its matrix, verifying all 49 entries.

        A matrix outside the coordinate pattern (hence outside the algebra)
        is rejected.
        """
        return G2Element._from_entries(*_lift_matrix(A))

    @staticmethod
    def _from_entries(E: Dict[Tuple[int, int], Lifted], den: int) -> "G2Element":
        """from_matrix on nonzero lifted entries over den.  Neither side holds
        a zero, so equal dicts mean that all 49 entries agree."""
        coords = {}
        readout = _readout()
        for p, v in E.items():
            ks = readout.get(p)
            if ks is not None:
                coords[ks[0]] = v if ks[1] > 0 else (-v[0], -v[1])
        forced = _place(coords)
        if forced != E:
            i, j = min(p for p in E.keys() | forced.keys() if E.get(p) != forced.get(p))
            raise InputError(
                f"matrix is not in the coordinate span: entry "
                f"({i + 1},{j + 1}) is {_norm(*E.get((i, j), (0, 0)), den)}, pattern forces "
                f"{_norm(*forced.get((i, j), (0, 0)), den)}"
            )
        return _element(coords, den)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "G2Element") -> "G2Element":
        d, f = self.den, other.den
        coords = {k: (r * f, i * f) for k, (r, i) in self._coords.items()}
        for k, (r, i) in other._coords.items():
            t = coords.get(k, (0, 0))
            coords[k] = (t[0] + r * d, t[1] + i * d)
        return _element({k: v for k, v in coords.items() if v[0] or v[1]}, d * f)

    def __neg__(self) -> "G2Element":
        return _element({k: (-r, -i) for k, (r, i) in self._coords.items()}, self.den)

    def __sub__(self, other: "G2Element") -> "G2Element":
        return self + (-other)

    def _key(self):
        return self.den, self._coords

    def __repr__(self):
        c = self.coordinates()
        return f"G2Element(x={c[:X_DIM]}, y={c[X_DIM:]})"


# the slot setters (see scalars._Frozen)
_setden = G2Element.__dict__["den"].__set__
_setcoords = G2Element.__dict__["_coords"].__set__
_setentries = G2Element.__dict__["_entries"].__set__


def _commutator_entries(a: G2Element, b: G2Element):
    """The nonzero entries of AB - BA, lifted over a.den * b.den and formed
    from nonzero entries only, with that denominator."""
    C: Dict[Tuple[int, int], List[int]] = {}
    for sign, p, q in ((1, a, b), (-1, b, a)):
        q_rows = [[] for _ in range(N)]
        for (k, j), v in q._entries.items():
            q_rows[k].append((j, v))
        for (i, k), (x, y) in p._entries.items():
            if sign < 0:
                x, y = -x, -y
            for j, (u, w) in q_rows[k]:
                t = C.get((i, j))
                if t is None:
                    C[i, j] = [x * u - y * w, x * w + y * u]
                else:
                    t[0] += x * u - y * w
                    t[1] += x * w + y * u
    return {pos: (r, i) for pos, (r, i) in C.items() if r or i}, a.den * b.den


def bracket(a: G2Element, b: G2Element) -> G2Element:
    """Lie bracket by matrix commutator, re-entering the coordinate span.

    Failure to re-enter the span would mean the matrix model is wrong, so it
    is reported as a hard refusal rather than silently projected.
    """
    try:
        return G2Element._from_entries(*_commutator_entries(a, b))
    except InputError as exc:
        raise RefusalError(
            f"commutator left the coordinate span; matrix model bug: {exc}"
        ) from exc


@lru_cache(maxsize=1)
def g2_basis() -> Dict[str, G2Element]:
    """The fourteen basis elements f1..f6, h1..h8."""
    return {name: _element({k: (1, 0)}, 1) for k, name in enumerate(BASIS_NAMES)}


# ---------------------------------------------------------------------------
# Reference bracket catalogue
# ---------------------------------------------------------------------------
#
# Every entry of the published catalogue, in the order f-f, f-h, h-h.  The
# verification recomputes each bracket by matrix commutator and diffs the
# result against this table; the table is data to check against, never the
# source of the structure constants.

REFERENCE_BRACKET_TABLE: Dict[Tuple[str, str], Dict[str, int]] = {
    ("f1", "f2"): {"h1": 1, "h2": 1},
    ("f1", "f3"): {"f6": 2},
    ("f1", "f4"): {"f5": 1},
    ("f1", "f5"): {"f4": -1},
    ("f1", "f6"): {"f3": -2},
    ("f2", "f3"): {"f5": 1, "h3": -1},
    ("f2", "f4"): {"h4": -1},
    ("f2", "f5"): {"f3": -1, "h5": 1},
    ("f2", "f6"): {"h6": 1},
    ("f3", "f4"): {"h2": 1},
    ("f3", "f5"): {"h8": 1},
    ("f3", "f6"): {"f1": 2},
    ("f4", "f5"): {"f1": 2, "h7": 2},
    ("f4", "f6"): {"h8": 1},
    ("f5", "f6"): {"h2": -1},
    ("f1", "h1"): {"f2": -1, "h8": 1},
    ("f1", "h2"): {"h8": -1},
    ("f1", "h3"): {"f4": -1, "h6": -1},
    ("f1", "h4"): {"f3": 1},
    ("f1", "h5"): {"f6": 1},
    ("f1", "h6"): {"f5": -1, "h3": 1},
    ("f1", "h7"): {},
    ("f1", "h8"): {"h2": 1},
    ("f2", "h1"): {"f1": 1, "h7": 1},
    ("f2", "h2"): {"h7": -1},
    ("f2", "h3"): {"f3": 1, "h5": -1},
    ("f2", "h4"): {"f4": 1},
    ("f2", "h5"): {"f5": -1, "h3": 1},
    ("f2", "h6"): {"f6": -1},
    ("f2", "h7"): {"h2": 1},
    ("f2", "h8"): {},
    ("f3", "h1"): {"f4": 1, "h6": 1},
    ("f3", "h2"): {"f4": -1},
    ("f3", "h3"): {"f2": -1, "h8": 1},
    ("f3", "h4"): {"f1": -1},
    ("f3", "h5"): {},
    ("f3", "h6"): {"h1": -1, "h2": -1},
    ("f3", "h7"): {"f6": 1},
    ("f3", "h8"): {"f5": -1},
    ("f4", "h1"): {"f3": -1, "h5": 1},
    ("f4", "h2"): {"f3": 1},
    ("f4", "h3"): {"f1": 1, "h7": 1},
    ("f4", "h4"): {"f2": -1},
    ("f4", "h5"): {"h1": -1, "h2": -1},
    ("f4", "h6"): {},
    ("f4", "h7"): {"f5": -1},
    ("f4", "h8"): {"f6": -1},
    ("f5", "h1"): {"h4": 1},
    ("f5", "h2"): {"f6": 1},
    ("f5", "h3"): {},
    ("f5", "h4"): {"h1": -1},
    ("f5", "h5"): {"f2": 1, "h8": -1},
    ("f5", "h6"): {"f1": 1, "h7": 1},
    ("f5", "h7"): {"f4": 1},
    ("f5", "h8"): {"f3": 1},
    ("f6", "h1"): {"h3": 1},
    ("f6", "h2"): {"f5": -1},
    ("f6", "h3"): {"h1": -1},
    ("f6", "h4"): {},
    ("f6", "h5"): {"f1": -1},
    ("f6", "h6"): {"f2": 1},
    ("f6", "h7"): {"f3": -1},
    ("f6", "h8"): {"f4": 1},
    ("h1", "h2"): {},
    ("h1", "h3"): {"h4": -2},
    ("h2", "h3"): {"h4": 1},
    ("h1", "h4"): {"h3": 2},
    ("h2", "h4"): {"h3": -1},
    ("h1", "h5"): {"h6": -1},
    ("h2", "h5"): {"h6": -1},
    ("h1", "h6"): {"h5": 1},
    ("h2", "h6"): {"h5": 1},
    ("h1", "h7"): {"h8": 1},
    ("h2", "h7"): {"h8": -2},
    ("h1", "h8"): {"h7": -1},
    ("h2", "h8"): {"h7": 2},
}

# Catalogue entries known to disagree with the matrix commutator, keyed by
# pair with the recomputed value; the verification treats these as expected.
BRACKET_TABLE_ERRATA: Dict[Tuple[str, str], Dict[str, int]] = {}


def _basis_brackets() -> Dict[Tuple[int, int], Dict[int, Scalar]]:
    """The 91 basis commutators [e_i, e_j], i < j, each taken by bracket (so
    re-entering the span is checked entry by entry), as LieAlgebra takes
    them: {(i, j): {k: coeff}}, 1-based, the nonzero coefficients as Scalars."""
    basis = list(g2_basis().values())
    table = {}
    for i, j in itertools.combinations(range(X_DIM + Y_DIM), 2):
        out = bracket(basis[i], basis[j])
        table[i + 1, j + 1] = {k + 1: _norm(*v, out.den) for k, v in sorted(out._coords.items())}
    return table


def verify_bracket_table() -> Report:
    """Diff the basis commutators against every catalogued bracket.

    Also checks, on the same commutators, that the h-span closes under
    brackets and that the Jacobi identity holds for the structure constants
    on all 364 basis triples (lie._jacobi_failures, the sweep LieAlgebra
    runs, listing every failing triple), and that the fourteen matrices are
    linearly independent.
    """
    table = _basis_brackets()
    index = {name: k for k, name in enumerate(BASIS_NAMES, 1)}
    mismatches = []
    unregistered_mismatches = []
    for (na, nb), table_value in REFERENCE_BRACKET_TABLE.items():
        computed = {BASIS_NAMES[k - 1]: c for k, c in table[index[na], index[nb]].items()}
        if computed == table_value:
            continue
        diff = {
            "pair": (na, nb),
            "catalogued": dict(table_value),
            "computed": {k: str(v) for k, v in computed.items()},
        }
        mismatches.append(diff)
        erratum = BRACKET_TABLE_ERRATA.get((na, nb))
        if erratum is None or computed != erratum:
            unregistered_mismatches.append(diff)

    h_closed = all(k > X_DIM for (i, _), out in table.items() if i > X_DIM for k in out)
    jacobi_failures = [
        tuple(BASIS_NAMES[t - 1] for t in triple)
        for triple in _jacobi_failures(_lift_ad(X_DIM + Y_DIM, table)[0])
    ]
    dimension = rank([e.entries for e in g2_basis().values()])
    return Report(
        not unregistered_mismatches and not jacobi_failures and h_closed
        and dimension == X_DIM + Y_DIM,
        {"checked": len(REFERENCE_BRACKET_TABLE), "h_closed": h_closed,
         "dimension": dimension},
        mismatches=mismatches,
        unregistered_mismatches=unregistered_mismatches,
        jacobi_failures=jacobi_failures,
    )


# ---------------------------------------------------------------------------
# The three-form, the cross product, and membership
# ---------------------------------------------------------------------------

PHI_TERMS: Dict[Tuple[int, int, int], int] = {
    (1, 2, 3): 1,
    (1, 4, 5): 1,
    (1, 6, 7): 1,
    (2, 4, 6): 1,
    (2, 5, 7): -1,
    (3, 4, 7): -1,
    (3, 5, 6): -1,
}


@lru_cache(maxsize=1)
def _epsilon() -> Dict[Tuple[int, int, int], int]:
    """Fully antisymmetric coefficients generated from the seven-term display."""
    eps: Dict[Tuple[int, int, int], int] = {}
    for base, value in PHI_TERMS.items():
        for perm in itertools.permutations(base):
            eps[perm] = perm_sign(perm) * value
    return eps


class CrossProduct:
    """The seven-dimensional cross product and the calibration three-form.

    Besides epsilon it keeps three 0-based tables read off it: the (k, sign)
    terms of each product u_i v_j in u x v; for each row i the terms
    (j, k, sign) with j < k of the contraction sum_{j,k} eps_{ijk} A[j][k];
    and for each basis triple (i, j, k), i < j < k, the terms (l, c, sign)
    of sum_l A[l][i] eps(l,j,k) + A[l][j] eps(i,l,k) + A[l][k] eps(i,j,l),
    the three-form's infinitesimal change under A on (e_i, e_j, e_k).
    is_member and preserves_form read the last two tables against a
    matrix's nonzero lifted entries, such as an element's own.
    """

    def __init__(self):
        self.epsilon = _epsilon()
        self._cross: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._contractions: List[List[Tuple[int, int, int]]] = [[] for _ in range(N)]
        for (i, j, k), sign in self.epsilon.items():
            self._cross.setdefault((i - 1, j - 1), []).append((k - 1, sign))
            if j < k:
                self._contractions[i - 1].append((j - 1, k - 1, sign))
        self._invariance: List[List[Tuple[int, int, int]]] = []
        for triple in itertools.combinations(range(1, N + 1), 3):
            terms = []
            for slot, c in enumerate(triple):
                for l in range(1, N + 1):
                    sign = self.epsilon.get(triple[:slot] + (l,) + triple[slot + 1:])
                    if sign:
                        terms.append((l - 1, c - 1, sign))
            self._invariance.append(terms)

    @staticmethod
    def _vec(u) -> Tuple[Scalar, ...]:
        u = tuple(c if type(c) is Scalar else _sc(c) for c in u)
        if len(u) != N:
            raise InputError("vectors must have seven components")
        return u

    def phi(self, u, v, w) -> Scalar:
        """The three-form evaluated on three vectors."""
        u, v, w = self._vec(u), self._vec(v), self._vec(w)
        acc = S_ZERO
        for (i, j, k), sign in self.epsilon.items():
            term = u[i - 1] * v[j - 1] * w[k - 1]
            acc = acc + (term if sign > 0 else -term)
        return acc

    def cross(self, u, v) -> Tuple[Scalar, ...]:
        """u x v, defined by (u x v) . w = phi(u, v, w), summed over the
        nonzero components of u and v only."""
        u, v = self._vec(u), self._vec(v)
        out = [S_ZERO] * N
        v_terms = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in v_terms:
                for k, sign in self._cross.get((i, j), ()):
                    t = a * b
                    out[k] = out[k] + t if sign > 0 else out[k] - t
        return tuple(out)

    @staticmethod
    def dot(u, v) -> Scalar:
        """u . v, summed over the components nonzero in both."""
        acc = S_ZERO
        for a, b in zip(CrossProduct._vec(u), CrossProduct._vec(v)):
            if a and b:
                acc = acc + a * b
        return acc

    def is_member(self, E: Dict[Tuple[int, int], Lifted]) -> bool:
        """Matrix membership on nonzero entries (re, im) over one
        denominator: skew-symmetry plus the seven contractions
        sum_{j,k} eps_{ijk} A[j][k] = 0.

        Neither E nor a zero sum depends on the denominator: a sum of
        entries over one denominator is zero exactly when its integer
        numerator is.  Skew-symmetry takes one comparison per nonzero entry
        with its transpose (a diagonal entry fails it).  On a skew matrix
        the (j, k) and (k, j) terms of a contraction are equal, so each row
        of the contraction table holds the terms with j < k only.
        """
        for (i, j), (r, m) in E.items():
            if E.get((j, i)) != (-r, -m):
                return False
        return all(_vanishes(E, terms) for terms in self._contractions)

    def preserves_form(self, E: Dict[Tuple[int, int], Lifted]) -> bool:
        """Infinitesimal invariance of the three-form on all 35 basis
        triples, on nonzero entries (re, im) over one denominator: one
        integer sum per triple, from its row of the invariance table."""
        return all(_vanishes(E, terms) for terms in self._invariance)


def _vanishes(E: Dict[Tuple[int, int], Lifted], terms) -> bool:
    """Is sum sign * E[(j, k)] over the (j, k, sign) terms zero?  Entries
    absent from E are zero."""
    re = im = 0
    for j, k, sign in terms:
        v = E.get((j, k))
        if v is not None:
            re += sign * v[0]
            im += sign * v[1]
    return not (re or im)


@lru_cache(maxsize=1)
def cross_product() -> CrossProduct:
    return CrossProduct()


def basis_vector(k: int) -> Tuple[Scalar, ...]:
    """The standard basis vector e_k, 1-indexed."""
    if not 1 <= k <= N:
        raise InputError(f"basis index {k} out of range 1..{N}")
    return tuple(S_ONE if r == k - 1 else S_ZERO for r in range(N))


def verify_cross_identities() -> Report:
    """(u x v) . u = 0 and u x (u x v) = (u . v) u - (u . u) v on all 49
    basis pairs, plus e1 x e6 = e7 and the tangent rotation table at e1."""
    cp = cross_product()
    basis = [basis_vector(k) for k in range(1, N + 1)]
    ortho = []
    double = []
    for a in range(N):
        for b in range(N):
            u, v = basis[a], basis[b]
            uv = cp.cross(u, v)
            if not cp.dot(uv, u).is_zero():
                ortho.append((a + 1, b + 1))
            lhs = cp.cross(u, uv)
            udotv = cp.dot(u, v)
            udotu = cp.dot(u, u)
            rhs = tuple(udotv * uc - udotu * vc for uc, vc in zip(u, v))
            if lhs != rhs:
                double.append((a + 1, b + 1))
    e1e6 = cp.cross(basis[0], basis[5]) == basis[6]
    # column j of the rotation v -> e1 x v is e1 x e_j
    ju = [cp.cross(basis[0], e) for e in basis]
    pairs = {2: 3, 4: 5, 6: 7}
    j_ok = ju[0] == (S_ZERO,) * N
    for src, dst in pairs.items():
        want_fwd = basis[dst - 1]
        want_bwd = tuple(-c for c in basis[src - 1])
        if ju[src - 1] != want_fwd or ju[dst - 1] != want_bwd:
            j_ok = False
    return Report(
        not ortho and not double and e1e6 and j_ok,
        {"e1_cross_e6": e1e6, "j_at_e1_table": j_ok},
        orthogonality_failures=ortho,
        double_cross_failures=double,
    )


def membership_sample_check(
    members: int = 100, nonmembers: int = 10, seed: int = 20260815
) -> Report:
    """Random span elements must satisfy the contraction membership test;
    random skew matrices outside the span must fail it.

    Span membership of the negatives is established independently by linear
    algebra: linalg.span_test reduces the entries of the fourteen basis
    matrices once, and each sample's entries are decided exactly against
    that reduced basis, so the two characterizations are compared rather
    than assumed.
    """
    rng = random.Random(seed)
    cp = cross_product()
    basis_vectors = [e.entries for e in g2_basis().values()]
    in_basis_span = span_test(basis_vectors)

    member_failures = []
    for trial in range(members):
        # the basis is the coordinate basis: coefficients are coordinates,
        # drawn as numerator and denominator and lifted over their lcm
        coeffs = [(rng.randint(-9, 9), rng.randint(1, 4)) for _ in basis_vectors]
        den = lcm(*[d for _, d in coeffs])
        elem = _element(
            {k: (n * (den // d), 0) for k, (n, d) in enumerate(coeffs) if n}, den
        )
        if not cp.is_member(elem._entries):
            member_failures.append(trial)

    nonmember_failures = []
    checked = 0
    attempts = 0
    while checked < nonmembers:
        attempts += 1
        if attempts > 50 * nonmembers:
            raise RefusalError("could not sample enough off-span skew matrices")
        E: Dict[Tuple[int, int], Lifted] = {}
        for i in range(N):
            for j in range(i + 1, N):
                v = rng.randint(-9, 9)
                if v:
                    E[i, j], E[j, i] = (v, 0), (-v, 0)
        if in_basis_span({p: _norm(*v, 1) for p, v in E.items()}):
            continue
        checked += 1
        if cp.is_member(E):
            nonmember_failures.append(attempts)
    return Report(
        not member_failures and not nonmember_failures,
        {"members_checked": members, "nonmembers_checked": checked, "seed": seed},
        member_failures=member_failures,
        nonmember_failures=nonmember_failures,
    )


# ---------------------------------------------------------------------------
# The algebra as a coframed model and the projection to the sphere
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def g2_algebra() -> LieAlgebra:
    """Structure constants extracted from matrix commutators (not the table)."""
    return LieAlgebra(X_DIM + Y_DIM, _basis_brackets(), basis_names=list(BASIS_NAMES), name="g2")


@lru_cache(maxsize=1)
def g2_J() -> ACStructure:
    """The invariant almost complex structure pairing (e1,e2), (e3,e4), ..."""
    dim = X_DIM + Y_DIM
    matrix = [[0] * dim for _ in range(dim)]
    for pair in range(dim // 2):
        odd = 2 * pair
        even = 2 * pair + 1
        matrix[even][odd] = -1
        matrix[odd][even] = 1
    return ACStructure(matrix)


@lru_cache(maxsize=1)
def s6_model() -> LieACS:
    """The sphere model: the algebra's coframe with basic indices {1, 2, 3}.

    Sphere-level (p,q)-forms are spanned by the basic monomials; their
    differentials are taken in the full complex, never projected back, since
    the projection discards exactly the terms that obstruct closedness.
    """
    return LieACS(
        g2_algebra(),
        g2_J(),
        name="s6",
        basic={1, 2, 3},
    )


def projection_differential(elem: G2Element) -> Tuple[Scalar, ...]:
    """The base-point differential: an algebra element's matrix applied to e1."""
    return tuple(_norm(*elem._entries.get((i, 0), (0, 0)), elem.den) for i in range(N))


def verify_projection() -> Report:
    """dp kills the h-span, sends f_i to (-1)^i e_{i+1}, intertwines g2_J
    with the cross-product rotation at e1, and every basis matrix
    infinitesimally preserves the three-form."""
    basis = g2_basis()
    cp = cross_product()
    zero7 = (S_ZERO,) * N

    kernel_is_h_span = all(
        projection_differential(basis[f"h{j}"]) == zero7 for j in range(1, 9)
    )
    image_ok = True
    for i in range(1, 7):
        want = basis_vector(i + 1)
        if i % 2 == 1:
            want = tuple(-c for c in want)
        if projection_differential(basis[f"f{i}"]) != want:
            image_ok = False

    # the cross-product rotation at e1 is v -> e1 x v; J(e_b) is column b of g2_J
    J = g2_J().matrix
    e1 = basis_vector(1)
    intertwine_failures = []
    for b, name in enumerate(BASIS_NAMES):
        column = [row[b].constant_value() for row in J]
        lhs = projection_differential(G2Element(column[:X_DIM], column[X_DIM:]))
        rhs = cp.cross(e1, projection_differential(basis[name]))
        if lhs != rhs:
            intertwine_failures.append(name)

    form_preservation_failures = [
        name
        for name in BASIS_NAMES
        if not cp.preserves_form(basis[name]._entries)
    ]
    return Report(
        kernel_is_h_span and image_ok and not intertwine_failures
        and not form_preservation_failures,
        {"kernel_is_h_span": kernel_is_h_span, "f_image_table": image_ok},
        intertwine_failures=intertwine_failures,
        form_preservation_failures=form_preservation_failures,
    )


# ---------------------------------------------------------------------------
# Frozen structure-equation displays
# ---------------------------------------------------------------------------

# d of the real coframe f^1..f^6 over the basis e^1..e^14 (f = 1..6, h = 7..14).
S6_DF_DISPLAYS: Dict[int, Dict[Tuple[int, int], int]] = {
    1: {(2, 7): -1, (3, 6): -2, (3, 10): 1, (4, 5): -2, (4, 9): -1,
        (5, 12): -1, (6, 11): 1},
    2: {(1, 7): 1, (3, 9): 1, (4, 10): 1, (5, 11): -1, (6, 12): -1},
    3: {(1, 6): 2, (1, 10): -1, (2, 5): 1, (2, 9): -1, (4, 7): 1,
        (4, 8): -1, (5, 14): -1, (6, 13): 1},
    4: {(1, 5): 1, (1, 9): 1, (2, 10): -1, (3, 7): -1, (3, 8): 1,
        (5, 13): -1, (6, 14): -1},
    5: {(1, 4): -1, (1, 12): 1, (2, 3): -1, (2, 11): 1, (3, 14): 1,
        (4, 13): 1, (6, 8): 1},
    6: {(1, 3): -2, (1, 11): -1, (2, 12): 1, (3, 13): -1, (4, 14): 1,
        (5, 8): -1},
}


_form7 = partial(Form, (X_DIM + Y_DIM) // 2)
_HALF = S_ONE / 2
_HALF_I = S_I / 2

S6_DBAR_PHI: Dict[int, Form] = {
    1: _form7({
        ((1,), (4,)): -_HALF_I,
        ((2,), (5,)): -S_I,
        ((3,), (6,)): S_I,
    }),
    2: _form7({
        ((1,), (3,)): -_HALF_I,
        ((2,), (4,)): _HALF_I - _HALF,
        ((3,), (7,)): S_I,
    }),
    3: _form7({
        ((1,), (2,)): _HALF_I,
        ((2,), (1,)): -_HALF_I,
        ((3,), (4,)): _HALF,
    }),
}

S6_DBAR_20: Dict[Tuple[int, int], Form] = {
    (1, 2): _form7({
        ((1, 2), (4,)): _HALF,
        ((2, 3), (6,)): S_I,
        ((1, 3), (7,)): -S_I,
    }),
    (2, 3): _form7({
        ((1, 3), (3,)): _HALF_I,
        ((2, 3), (4,)): -_HALF_I,
        ((1, 2), (2,)): _HALF_I,
    }),
    (3, 1): _form7({
        ((1, 2), (1,)): -_HALF_I,
        ((1, 3), (4,)): _HALF - _HALF_I,
        ((2, 3), (5,)): -S_I,
    }),
}


def s6_structure_package() -> Report:
    """Recompute the coframe differentials and diff them against the frozen
    displays: the six real df's, the three dbar phi's, the three dbar's of
    (2,0) monomials, and closedness of phi1^phi2^phi3."""
    model = s6_model()
    alg = model.alg
    coframe = model.coframe

    df_failures = []
    for k, terms in S6_DF_DISPLAYS.items():
        want = Form(alg.dim, {(key, ()): SymScalar.const(c) for key, c in terms.items()})
        got = alg.d_generator(k)
        if got != want:
            df_failures.append(k)

    dbar_phi_failures = []
    for i, want in S6_DBAR_PHI.items():
        if coframe.d_phi(i).project(1, 1) != want:
            dbar_phi_failures.append(i)

    dbar_20_failures = []
    for (i, j), want in S6_DBAR_20.items():
        got = coframe.dbar(Form.phi(model.n, i).wedge(Form.phi(model.n, j)))
        if got != want:
            dbar_20_failures.append([i, j])

    top_closed = coframe.dbar(model.canonical.vol).is_zero()

    # dual frame spot check: X_1 = (e1 + i e2)/2, X_7 = (e13 + i e14)/2
    half_i = SymScalar.const(_HALF_I)
    half = SymScalar.const(_HALF)
    want_x1 = [half, half_i] + [SS_ZERO] * (alg.dim - 2)
    want_x7 = [SS_ZERO] * (alg.dim - 2) + [half, half_i]
    dual_ok = (
        coframe.x_vector(0) == want_x1 and coframe.x_vector(model.n - 1) == want_x7
    )
    return Report(
        not df_failures and not dbar_phi_failures and not dbar_20_failures
        and top_closed and dual_ok,
        {
            "df_failures": df_failures,
            "dbar_phi_failures": dbar_phi_failures,
            "dbar_20_failures": dbar_20_failures,
            "top_form_closed": top_closed,
            "dual_frame": dual_ok,
        },
    )


# ---------------------------------------------------------------------------
# Reduction brackets of the dual frame
# ---------------------------------------------------------------------------


def _frame_vector(label: str) -> List[SymScalar]:
    """X1..X7, Xb1..Xb7 from the coframe; f/h names as real basis vectors."""
    coframe = s6_model().coframe
    if label.startswith("Xb"):
        return coframe.x_vector(coframe.n + int(label[2:]) - 1)
    if label.startswith("X"):
        return coframe.x_vector(int(label[1:]) - 1)
    idx = BASIS_NAMES.index(label)
    return [SS_ONE if k == idx else SS_ZERO for k in range(X_DIM + Y_DIM)]


# Each entry: bracket of two frame fields equals a scalar combination.
REDUCTION_BRACKETS: List[Tuple[str, str, List[Tuple[Scalar, str]]]] = [
    ("Xb1", "Xb2", [(-S_I, "X3"), (_HALF_I, "Xb5")]),
    ("Xb3", "Xb5", [(_HALF_I, "h1")]),
    ("X3", "Xb3", [(_HALF_I, "h2")]),
    ("Xb1", "Xb7", [(-_HALF_I, "h2")]),
    ("Xb2", "Xb7", [(S_I, "Xb6")]),
    ("Xb2", "Xb6", [(_HALF_I, "h1"), (_HALF_I, "h2")]),
]

# Catalogued frame brackets that disagree with the bracket table, keyed by
# pair with the value the table actually forces.  [Xb2, Xb7] expands to
# (1/4)([f3,h7] - i[f3,h8] - i[f4,h7] - [f4,h8]) = (1/2)(f6 + i f5), which
# is i*Xb3; the catalogued i*Xb6 is inconsistent with the table it cites.
REDUCTION_BRACKET_ERRATA: Dict[Tuple[str, str], List[Tuple[Scalar, str]]] = {
    ("Xb2", "Xb7"): [(S_I, "Xb3")],
}


def _frame_combo_vector(combo: List[Tuple[Scalar, str]]) -> List[SymScalar]:
    out = [SS_ZERO] * (X_DIM + Y_DIM)
    for c, label in combo:
        vec = _frame_vector(label)
        out = [w + SymScalar.const(c) * v for w, v in zip(out, vec)]
    return out


def verify_reduction_brackets() -> Report:
    """Brackets of complexified frame fields against their catalogued values.

    A mismatch passes only when pre-registered with the recomputed value;
    any other one is also an unregistered mismatch and fails the check.
    Both lists hold the brackets as printed, such as "[Xb2,Xb7]".
    """
    alg = g2_algebra()
    mismatches = []
    unregistered_mismatches = []
    for name_a, name_b, combo in REDUCTION_BRACKETS:
        got = alg.bracket_vectors(_frame_vector(name_a), _frame_vector(name_b))
        if got == _frame_combo_vector(combo):
            continue
        mismatches.append(f"[{name_a},{name_b}]")
        erratum = REDUCTION_BRACKET_ERRATA.get((name_a, name_b))
        if erratum is None or got != _frame_combo_vector(erratum):
            unregistered_mismatches.append(mismatches[-1])
    return Report(
        not unregistered_mismatches,
        {"checked": len(REDUCTION_BRACKETS), "mismatches": mismatches,
         "unregistered_mismatches": unregistered_mismatches},
    )


# ---------------------------------------------------------------------------
# The sphere's invariant Dolbeault census
# ---------------------------------------------------------------------------


def s6_basic_star(x: Form) -> Form:
    """The sphere-level star on basic monomials (complex dimension three).

    Purely pointwise, so unlike the differential it never leaves the basic
    span; inputs with non-basic indices are rejected.
    """
    model = s6_model()
    basic = set(model.indices)
    if not all(basic.issuperset(alpha + beta) for alpha, beta in x.terms):
        raise InputError("sphere star is defined on basic monomials only")
    return _star(x, model.n, len(basic))


def s6_plurigenus(m: int) -> int:
    """Invariant pluricanonical sections of the sphere at level m.

    The basic canonical generator trivializes the bundle; an invariant
    section is a constant multiple, and it is holomorphic exactly when
    beta_m = m * beta_1 vanishes.
    """
    return 1 if s6_model().canonical.beta(_plurigenus_level(m)).is_zero() else 0


def _serre_transport_bijective(p: int) -> bool:
    """Is s -> conj(sphere-star s) a bijection from basic (p,0) monomial
    span onto the basic (3-p, 3) span?  Checked by exact rank."""
    model = s6_model()
    d = len(model.indices)
    source = _section_monomials(model, p, 0)
    target = _section_monomials(model, d - p, d)
    images = [s6_basic_star(Form.monomial(model.n, a, b)).conjugate() for (a, b) in source]
    return len(source) == len(target) and rank([img.terms for img in images]) == len(target)


def s6_hodge_report(levels: int = 8) -> Report:
    """Assemble the sphere census.

    h10 and h20 are kernels of the full-complex dbar on basic monomials
    (the dbar-star term vanishes identically on (p,0), so the harmonic-space
    routine computes exactly the dbar kernel, twice).  The top-degree counts
    h13 and h23 come from the duality transport s -> conj(star s), verified
    to be an exact bijection of the underlying spans.
    """
    model = s6_model()
    h10 = invariant_harmonic_space(model, 1, 0).dimension
    h20 = invariant_harmonic_space(model, 2, 0).dimension
    plurigenera = [s6_plurigenus(m) for m in range(1, levels + 1)]
    bijections = _serre_transport_bijective(1) and _serre_transport_bijective(2)
    gen = model.canonical.vol
    star_on_generator = s6_basic_star(gen).conjugate() == gen.conjugate().scale(S_I)
    shown = {
        "h10": h10,
        "h20": h20,
        "h13": h20 if bijections else None,
        "h23": h10 if bijections else None,
        "plurigenera": plurigenera,
        "kodaira_dimension": kodaira_dimension(
            section_level_profile(plurigenera, model.first_section_level)),
        "serre_bijections": bijections,
        "star_on_generator": star_on_generator,
    }
    return Report(
        all(shown[k] == 0 for k in ("h10", "h20", "h13", "h23", "kodaira_dimension"))
        and all(p == 1 for p in plurigenera)
        and bijections and star_on_generator,
        shown,
    )
