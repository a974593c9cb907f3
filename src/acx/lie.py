"""Invariant frames: Lie algebras, almost complex structures, complex coframes.

Everything is exact.  A LieAlgebra is given by Gaussian-rational structure
constants on a real basis e_1..e_N (Jacobi is checked on construction, on the
constants lifted to Gaussian integers).  An ACStructure is a
real matrix J with J^2 = -I.  build_coframe produces the (1,0) coframe
phi^i = eta - i*(eta o J), normalized so the leading real-dual coefficient is
one, together with the dual (1,0) frame X_i and the complexified structure
constants, from which the Chevalley-Eilenberg differential is assembled on
the exterior algebra of the coframe.  The coframe holds the structure
equations: ComplexCoframe.d_phi(i) is d(phi^i), and its bidegree parts are
its projections.

Conventions.  d(xi)(x, y) = -xi([x, y]) on invariant 1-forms.  The Nijenhuis
tensor is N(x, y) = [x, y] + J[Jx, y] + J[x, Jy] - [Jx, Jy]; nijenhuis returns
its nonzero entries.  J is integrable iff N = 0 iff the (0,2) parts of all
d(phi^i) vanish iff the (1,0) frame is closed under the bracket.  All three
tests are implemented and cross-checked (is_integrable).

Characters.  A Character is a character lambda of the algebra (vanishing
on [g, g]); how it twists a character block is hodge.SectionContext's.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError, InternalCheckError
from .forms import Form, MultiIndex, _form, d_monomial
from .linalg import identity, mat_inverse, mat_mul, mat_vec, row_echelon, sparse_rows
from .scalars import SS_ONE, SS_ZERO, S_I, Scalar, SymScalar, _lift


# --- Lie algebras


class LieAlgebra:
    """A real Lie algebra by structure constants; Jacobi checked on construction.

    brackets maps (i, j) with i < j to {k: coeff} meaning
    [e_i, e_j] = sum_k coeff * e_k.  Indices are 1-based, and each coeff is a
    Gaussian rational (a constant SymScalar or anything Scalar coerces).
    """

    def __init__(self, dim, brackets=None, *, basis_names=None, name=""):
        if not isinstance(dim, int) or dim < 1:
            raise InputError(f"bad dimension {dim!r}")
        self.dim = dim
        self.name = name
        self.basis_names = list(basis_names) if basis_names else [f"e{k}" for k in range(1, dim + 1)]
        if len(self.basis_names) != dim:
            raise InputError("basis_names length must match dim")
        clean = {}
        for (i, j), out in (brackets or {}).items():
            if not (1 <= i < j <= dim):
                raise InputError(f"bracket key ({i},{j}) must satisfy 1 <= i < j <= dim")
            vec = {}
            for k, c in out.items():
                c = SymScalar.coerce(c)
                if not c.is_constant():
                    raise InputError(f"bracket ({i},{j}): structure constants are "
                                     f"Gaussian rationals, got {c}")
                if c.num:
                    vec[k] = c
            for k in vec:
                if not (1 <= k <= dim):
                    raise InputError(f"bracket output index {k} out of range")
            if vec:
                clean[(i, j)] = vec
        self.brackets = clean
        # ad[a][b]: the nonzero 0-based (k, c) terms of [e_a, e_b], for the
        # sparse bracket of coefficient vectors
        self._ad = [{} for _ in range(dim)]
        for (i, j), vec in clean.items():
            self._ad[i - 1][j - 1] = [(k - 1, c) for k, c in vec.items()]
            self._ad[j - 1][i - 1] = [(k - 1, -c) for k, c in vec.items()]
        self._check_jacobi()

    def bracket_vectors(self, u, v):
        """[u, v] for coefficient lists u, v (0-based, SymScalar entries).

        Sums u_a v_b [e_a, e_b] over the nonzero coordinates a of u and b of
        v for which the bracket of basis vectors is nonzero.
        """
        out = [SS_ZERO] * self.dim
        for a, ua in enumerate(u):
            if ua.is_zero():
                continue
            for b, terms in self._ad[a].items():
                vb = v[b]
                if vb.is_zero():
                    continue
                f = ua * vb
                for k, c in terms:
                    out[k] = out[k] + f * c
        return out

    def _check_jacobi(self):
        """Refuse the algebra on the first basis triple _jacobi_failures yields."""
        bad = next(_jacobi_failures(self.dim, self.brackets), None)
        if bad:
            raise InputError("Jacobi identity fails on basis triple ({},{},{})".format(*bad))

    def is_unimodular(self):
        """tr(ad e_b) = 0 for every b: the e_a-coefficients of [e_b, e_a]."""
        return all(
            sum((c for a, terms in row.items() for k, c in terms if k == a), SS_ZERO).is_zero()
            for row in self._ad
        )

    def d_generator(self, k) -> Form:
        """Chevalley-Eilenberg d of e^k: d(xi)(x,y) = -xi([x,y]).

        Real-basis forms are Forms over dim generators e^1..e^dim with no
        barred index, keyed (idx, ()).
        """
        terms = {}
        for (i, j), vec in self.brackets.items():
            c = vec.get(k)
            if c is not None:
                terms[((i, j), ())] = -c
        return Form(self.dim, terms)


def _jacobi_failures(dim, brackets):
    """Every basis triple (1-based, in combinations order) on which
    [[e_a,e_b],e_c] + cyclic is nonzero; brackets as LieAlgebra.brackets,
    each constant a Scalar or a constant SymScalar.

    The constants are lifted once to Gaussian integers (re, im) over one
    denominator D: every product of two is over D^2, so a sum vanishes
    exactly when its integer numerator does.
    """
    terms = [(i - 1, j - 1, k - 1, c) for (i, j), vec in brackets.items() for k, c in vec.items()]
    re, im, _ = _lift([c if type(c) is Scalar else c.constant_value() for *_, c in terms])
    # ad[a][b]: the 0-based (k, (re, im)) terms of [e_a, e_b]
    ad = [{} for _ in range(dim)]
    for (i, j, k, _), r, m in zip(terms, re, im):
        ad[i].setdefault(j, []).append((k, (r, m)))
        ad[j].setdefault(i, []).append((k, (-r, -m)))
    for i, j, k in combinations(range(dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, (fr, fi) in ad[a].get(b, ()):
                for n, (gr, gi) in ad[m].get(c, ()):
                    t = acc.get(n)
                    if t is None:
                        acc[n] = [fr * gr - fi * gi, fr * gi + fi * gr]
                    else:
                        t[0] += fr * gr - fi * gi
                        t[1] += fr * gi + fi * gr
        if any(x or y for x, y in acc.values()):
            yield i + 1, j + 1, k + 1


# --- almost complex structures


class ACStructure:
    """A real matrix J on the algebra with J^2 = -I; J[a][b] = e_a-component
    of J(e_b)."""

    def __init__(self, matrix):
        self.matrix = [[SymScalar.coerce(c) for c in row] for row in matrix]
        n = len(self.matrix)
        if n == 0 or any(len(row) != n for row in self.matrix):
            raise InputError("J must be square")
        if n % 2:
            raise InputError("J needs an even-dimensional algebra")
        for a, row in enumerate(self.matrix, start=1):
            for b, c in enumerate(row, start=1):
                if c != c.conjugate():
                    raise InputError(f"J is not real at entry ({a},{b})")
        square = mat_mul(self.matrix, self.matrix)
        for a in range(n):
            for b in range(n):
                want = SS_ONE if a == b else SS_ZERO
                if not (square[a][b] + want).is_zero():
                    raise InputError(f"J^2 != -I at entry ({a + 1},{b + 1})")

    @property
    def dim(self):
        return len(self.matrix)

    def apply(self, v):
        return mat_vec(self.matrix, v)


def nijenhuis(alg: LieAlgebra, J: ACStructure) -> dict:
    """The nonzero entries {(i, j): N(e_i, e_j)} for i < j, each a 0-based
    coefficient list.  N is antisymmetric, so they determine it, and J is
    integrable iff there are none."""
    if J.dim != alg.dim:
        raise InputError("J dimension does not match the algebra")
    # e_i, and J e_i read off J's columns; J is applied once, to [Je_i, e_j] + [e_i, Je_j]
    units = identity(alg.dim)
    columns = list(zip(*J.matrix))
    entries = {}
    for i, j in combinations(range(alg.dim), 2):
        ei, ej, Jei, Jej = units[i], units[j], columns[i], columns[j]
        middle = J.apply([b + c for b, c in zip(alg.bracket_vectors(Jei, ej),
                                                alg.bracket_vectors(ei, Jej))])
        v = [a + b - d for a, b, d in zip(alg.bracket_vectors(ei, ej), middle,
                                          alg.bracket_vectors(Jei, Jej))]
        if any(not c.is_zero() for c in v):
            entries[(i + 1, j + 1)] = v
    return entries


# --- the complex coframe


class ComplexCoframe:
    """The (1,0) coframe, its dual frame, and the differential on Forms.

    Rows of C are the coordinates of phi^1..phi^n, phibar^1..phibar^n over
    the real dual basis; columns of C^{-1} are the dual frame
    X_1..X_n, Xbar_1..Xbar_n over the real basis.
    """

    def __init__(self, alg: LieAlgebra, J: ACStructure, phi_rows):
        self.alg = alg
        self.J = J
        self.n = alg.dim // 2
        rows = [list(r) for r in phi_rows]
        self.C = rows + [[c.conjugate() for c in r] for r in rows]
        self.Cinv = mat_inverse(self.C)
        self._complex_constants = None
        self._d_gen_cache = {}
        self._d_mono_cache = {}

    def x_vector(self, B):
        """Column B (0-based, 0..2n-1) of C^{-1}: X_{B+1} or Xbar_{B+1-n}."""
        return [self.Cinv[a][B] for a in range(2 * self.n)]

    def complex_constants(self):
        """[X_A, X_B] = sum_C K[(A,B)][C] X_C over the complexified frame."""
        if self._complex_constants is None:
            X = [self.x_vector(A) for A in range(2 * self.n)]
            self._complex_constants = {
                (A, B): mat_vec(self.C, self.alg.bracket_vectors(X[A], X[B]))
                for A, B in combinations(range(2 * self.n), 2)
            }
        return self._complex_constants

    def _gen_form(self, A):
        if A < self.n:
            return Form.phi(self.n, A + 1)
        return Form.phibar(self.n, A - self.n + 1)

    def d_generator(self, A, shift=None) -> Form:
        """d(Phi^A) = -sum_{B<C} K^A_{BC} Phi^B wedge Phi^C; with shift = (dp, dq)
        only its part of bidegree (1 + dp, dq) for phi, (dp, 1 + dq) for phibar."""
        key = (A, shift)
        out = self._d_gen_cache.get(key)
        if out is not None:
            return out
        if shift is None:
            # for B < C, Phi^B wedge Phi^C is the canonical monomial with the
            # phi indices of B, C first: sign +1, and one key per pair
            n = self.n
            terms = {}
            for (B, Cc), coords in self.complex_constants().items():
                c = coords[A]
                if not c.is_zero():
                    alpha = MultiIndex(k + 1 for k in (B, Cc) if k < n)
                    beta = MultiIndex(k - n + 1 for k in (B, Cc) if k >= n)
                    terms[(alpha, beta)] = -c
            out = _form(n, terms)
        else:
            dp, dq = shift
            out = self.d_generator(A).project(dp + (A < self.n), dq + (A >= self.n))
        self._d_gen_cache[key] = out
        return out

    def d_phi(self, i) -> Form:
        return self.d_generator(i - 1)

    def _d_monomial(self, alpha, beta, shift=None) -> Form:
        """d(phi_alpha ^ phibar_beta), or with shift = (dp, dq) only its part
        of bidegree (|alpha| + dp, |beta| + dq), from the generators' parts."""
        key = (alpha, beta, shift)
        out = self._d_mono_cache.get(key)
        if out is None:
            out = d_monomial(self.n, alpha, beta, lambda A: self.d_generator(A, shift))
            self._d_mono_cache[key] = out
        return out

    def _d(self, x: Form, shift) -> Form:
        """dx, or with a shift the part of it that raises the bidegree of
        each part of x by the shift."""
        terms = {}
        for (alpha, beta), c in x.terms.items():
            for k, v in self._d_monomial(alpha, beta, shift).terms.items():
                acc = terms.get(k)
                terms[k] = v * c if acc is None else acc + v * c
        return _form(self.n, terms)

    def d(self, x: Form) -> Form:
        """d on constant-coefficient forms."""
        return self._d(x, None)

    def dbar(self, x: Form) -> Form:
        return self._d(x, (0, 1))

    def del_op(self, x: Form) -> Form:
        return self._d(x, (1, 0))

    def real_covector_form(self, a) -> Form:
        """e^a expressed over the complex coframe."""
        out = Form.zero(self.n)
        for A in range(2 * self.n):
            c = self.Cinv[a - 1][A]
            if not c.is_zero():
                out = out + self._gen_form(A).scale(c)
        return out


def build_coframe(alg: LieAlgebra, J: ACStructure) -> ComplexCoframe:
    """Select the (1,0) coframe eta - i*(eta o J) over eta = e^1, e^2, ...

    Keep the candidates that are independent of the ones before them (the
    pivot columns of the candidates written as columns); scale each so its
    leading (lowest-index) nonzero real-dual coefficient is one.  There are
    exactly n of them, and C is invertible, because ACStructure admits only
    a real J with J^2 = -I: the candidates are the rows of I - iJ, whose
    product with its conjugate I + iJ is I + J^2 = 0 and whose sum with it is
    2I, so each of the two has rank n and their row spaces, the (1,0) and
    (0,1) forms, meet in zero.
    """
    if J.dim != alg.dim:
        raise InputError("J dimension does not match the algebra")
    i_unit = SymScalar.const(S_I)
    candidates = [
        [c - i_unit * j for c, j in zip(row, jrow)]
        for row, jrow in zip(identity(alg.dim), J.matrix)
    ]
    _, pivots = row_echelon(sparse_rows(list(zip(*candidates))))
    chosen = []
    for a in pivots:
        lead = next(c for c in candidates[a] if not c.is_zero())
        inv = SS_ONE / lead
        chosen.append([c * inv for c in candidates[a]])
    return ComplexCoframe(alg, J, chosen)


def is_integrable(tensor: dict, coframe: ComplexCoframe) -> bool:
    """Three equivalent tests, cross-checked: N = 0 (tensor holds the entries
    nijenhuis returns); no d(phi^i) has a (0,2) part; the (1,0) frame closes
    under the bracket.  tensor and coframe belong to the same algebra and J."""
    by_nijenhuis = not tensor
    n = coframe.n
    by_forms = all(coframe.d_phi(i).project(0, 2).is_zero() for i in range(1, n + 1))
    K = coframe.complex_constants()
    by_frame = all(
        all(K[(A, B)][Cc].is_zero() for Cc in range(n, 2 * n))
        for A in range(n)
        for B in range(A + 1, n)
    )
    if not (by_nijenhuis == by_forms == by_frame):
        raise InternalCheckError(
            "integrability",
            "the three tests disagree: "
            f"N=0:{by_nijenhuis} (0,2)-parts:{by_forms} frame-closed:{by_frame}",
        )
    return by_nijenhuis


# --- characters (for Fourier mode blocks on nilmanifold models)


class Character:
    """A Lie-algebra character lambda (vanishing on [g,g]), the derivative of
    a unitary character chi when its values are imaginary;
    d(chi x) = chi(lambda ^ x + dx)."""

    def __init__(self, alg: LieAlgebra, values):
        self.alg = alg
        self.values = [SymScalar.coerce(v) for v in values]
        if len(self.values) != alg.dim:
            raise InputError("character length must match the algebra dimension")
        for (i, j), vec in alg.brackets.items():
            acc = SS_ZERO
            for k, c in vec.items():
                acc = acc + self.values[k - 1] * c
            if not acc.is_zero():
                raise InputError(f"character does not vanish on [e_{i}, e_{j}]")

    def is_trivial(self):
        return all(v.is_zero() for v in self.values)

    def lambda_form(self, coframe: ComplexCoframe) -> Form:
        out = Form.zero(coframe.n)
        for a, v in enumerate(self.values, start=1):
            if not v.is_zero():
                out = out + coframe.real_covector_form(a).scale(v)
        return out

    def key(self):
        return tuple(self.values)


class LieACS:
    """An invariant almost complex model: algebra + J + coframe + metadata.

    characters, when set, is a callable: characters(bundle_power) returns the
    Fourier blocks the model supplies for harmonic-space computations besides
    the trivial one, which is built once, with the model.  indices is the
    sorted holomorphic/antiholomorphic index set that section monomials are
    drawn from: 1..n, or the basic set, which only the sphere passes.
    """

    def __init__(self, alg, J, *, name="", symbol="x", characters=None,
                 basic=None):
        self.alg = alg
        self.J = J
        self.coframe = build_coframe(alg, J)
        self.name = name
        self.symbol = symbol
        self._characters = characters
        self._trivial = Character(alg, [SS_ZERO] * alg.dim)
        self.indices = tuple(sorted(basic) if basic is not None else range(1, self.n + 1))

    @property
    def n(self):
        return self.coframe.n

    def characters(self, bundle_power=0):
        """The trivial character, then the model's own blocks, each once."""
        out = {self._trivial.key(): self._trivial}
        if self._characters is not None:
            for ch in self._characters(bundle_power):
                out.setdefault(ch.key(), ch)
        return list(out.values())
