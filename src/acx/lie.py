"""Invariant frames: Lie algebras, almost complex structures, complex coframes.

Everything is exact.  A LieAlgebra is given by Gaussian-rational structure
constants on a real basis e_1..e_N, lifted once to a Gaussian-integer ad table
over one denominator.  That table serves the Jacobi check, unimodularity,
and on constant frames the complex constants and Nijenhuis, whose operands
(C and C^{-1}, or J) are lifted where they are read: numerators are summed as
ints and each output entry normalised once.  bracket_vectors, the dense
bracket that symbolic frames and the cross-checks use, reads the brackets
table as given and shares nothing with the lifted one.  An ACStructure is a
real matrix J with J^2 = -I, checked by one dense product.  build_coframe
produces the (1,0) coframe phi^i = eta - i*(eta o J), normalized so the
leading real-dual coefficient is one, together with the dual (1,0) frame
X_i and the complexified structure constants, from which the
Chevalley-Eilenberg differential is assembled on the exterior algebra of the
coframe.  The coframe holds the structure equations: ComplexCoframe.d_phi(i)
is d(phi^i), and its bidegree parts are its projections.

Conventions.  d(xi)(x, y) = -xi([x, y]) on invariant 1-forms.  The Nijenhuis
tensor is N(x, y) = [x, y] + J[Jx, y] + J[x, Jy] - [Jx, Jy]; nijenhuis returns
its nonzero entries.  J is integrable iff N = 0 iff the (0,2) parts of all
d(phi^i) vanish iff the (1,0) frame is closed under the bracket.  All three
tests are implemented and cross-checked (is_integrable).

Characters.  A Character is a character lambda of the algebra (vanishing
on [g, g]); how it twists a character block is hodge.SectionContext's.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations

from .errors import InputError, InternalCheckError
from .forms import Form, _form, d_monomial
from .linalg import identity, mat_inverse, mat_mul, mat_vec, row_echelon, sparse_rows
from .scalars import SS_ONE, SS_ZERO, S_I, Scalar, SymScalar, _const, _lift, _norm


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
        self._lifted, self._den = _lift_ad(dim, clean)
        self._check_jacobi()
        self._unimodular = _trace_free(self._lifted)

    def bracket_vectors(self, u, v):
        """[u, v] for coefficient lists u, v (0-based, SymScalar entries): the
        sum of (u_i v_j - u_j v_i)[e_i, e_j] over the brackets table as given,
        so that it shares no table with the lifted constant-frame kernels."""
        out = [SS_ZERO] * self.dim
        for (i, j), vec in self.brackets.items():
            ui, uj, vi, vj = u[i - 1], u[j - 1], v[i - 1], v[j - 1]
            if (ui.num and vj.num) or (uj.num and vi.num):
                f = ui * vj - uj * vi
                for k, c in vec.items():
                    out[k - 1] = out[k - 1] + f * c
        return out

    def _check_jacobi(self):
        """Refuse the algebra on the first basis triple _jacobi_failures yields."""
        bad = next(_jacobi_failures(self._lifted), None)
        if bad:
            raise InputError("Jacobi identity fails on basis triple ({},{},{})".format(*bad))

    def is_unimodular(self):
        """tr(ad e_b) = 0 for every b, taken once, on construction."""
        return self._unimodular

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


def _lift_ad(dim, brackets):
    """brackets as LieAlgebra.brackets, each constant a Scalar or a constant
    SymScalar, lifted to (ad, D): ad[a][b] lists the 0-based (k, re, im)
    terms of [e_a, e_b] = sum_k (re + im*i)/D e_k."""
    terms = [(i - 1, j - 1, k - 1, c) for (i, j), vec in brackets.items() for k, c in vec.items()]
    re, im, den = _lift([c if type(c) is Scalar else c.constant_value() for *_, c in terms])
    ad = [{} for _ in range(dim)]
    for (i, j, k, _), r, m in zip(terms, re, im):
        ad[i].setdefault(j, []).append((k, r, m))
        ad[j].setdefault(i, []).append((k, -r, -m))
    return ad, den


def _jacobi_failures(ad):
    """Every basis triple (1-based, in combinations order) on which
    [[e_a,e_b],e_c] + cyclic is nonzero, on a lifted ad table: the sum is
    over D^2, so it vanishes exactly when its integer numerator does."""
    for i, j, k in combinations(range(len(ad)), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, fr, fi in ad[a].get(b, ()):
                for n, gr, gi in ad[m].get(c, ()):
                    t = acc.get(n)
                    if t is None:
                        acc[n] = [fr * gr - fi * gi, fr * gi + fi * gr]
                    else:
                        t[0] += fr * gr - fi * gi
                        t[1] += fr * gi + fi * gr
        if any(x or y for x, y in acc.values()):
            yield i + 1, j + 1, k + 1


def _trace_free(ad):
    """Whether tr(ad e_b), the sum of the e_a-coefficients of [e_b, e_a], is 0 for every b."""
    return not any(sum(r for a, terms in row.items() for k, r, _ in terms if k == a)
                   or sum(m for a, terms in row.items() for k, _, m in terms if k == a)
                   for row in ad)


def _lift_square(matrix):
    """A square matrix of constants lifted over one denominator: (rows,
    columns, den), each row i a list of the (k, re, im) of its nonzero
    entries (i, k), each column k of the (i, re, im); None when an entry
    involves the symbol."""
    if not all(c.is_constant() for row in matrix for c in row):
        return None
    flat = [(i, k, c.num[0]) for i, row in enumerate(matrix) for k, c in enumerate(row) if c.num]
    re, im, den = _lift([c for *_, c in flat])
    rows, columns = [[] for _ in matrix], [[] for _ in matrix]
    for (i, k, _), r, m in zip(flat, re, im):
        rows[i].append((k, r, m))
        columns[k].append((i, r, m))
    return rows, columns, den


def _bracket_into(re, im, ad, u, v):
    """Add the numerators of [u, v] to the lists re, im, for lifted vectors
    u, v: lists of their nonzero (a, re, im) coordinates."""
    for a, ur, ui in u:
        row = ad[a]
        for b, vr, vi in v:
            terms = row.get(b)
            if terms:
                fr, fi = ur * vr - ui * vi, ur * vi + ui * vr
                for k, r, m in terms:
                    re[k] += fr * r - fi * m
                    im[k] += fr * m + fi * r


def _apply(rows, re, im):
    """The numerators of A v, for the lifted rows of A and v's numerators."""
    out_re, out_im = [], []
    for row in rows:
        x = y = 0
        for k, r, m in row:
            x += r * re[k] - m * im[k]
            y += r * im[k] + m * re[k]
        out_re.append(x)
        out_im.append(y)
    return out_re, out_im


def _constants(re, im, den):
    """The constants (re[k] + im[k]*i)/den, each normalised once."""
    return [_const(_norm(x, y, den)) if x or y else SS_ZERO for x, y in zip(re, im)]


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
        for a, row in enumerate(mat_mul(self.matrix, self.matrix)):
            for b, c in enumerate(row):
                if not (c + SS_ONE if a == b else c).is_zero():
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
    lifted = _lift_square(J.matrix)
    if lifted is not None:
        # over den^2 D: J([Je_i, e_j] + [e_i, Je_j]) + den^2 [e_i, e_j] + [Je_j, Je_i]
        rows, columns, den = lifted
        ad, dim, entries = alg._lifted, alg.dim, {}
        for i, j in combinations(range(dim), 2):
            re, im = [0] * dim, [0] * dim
            _bracket_into(re, im, ad, columns[i], ((j, 1, 0),))
            _bracket_into(re, im, ad, ((i, 1, 0),), columns[j])
            re, im = _apply(rows, re, im)
            _bracket_into(re, im, ad, ((i, den * den, 0),), ((j, 1, 0),))
            _bracket_into(re, im, ad, columns[j], columns[i])
            if any(re) or any(im):
                entries[(i + 1, j + 1)] = _constants(re, im, den * den * alg._den)
        return entries
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

    def __init__(self, alg: LieAlgebra, phi_rows):
        self.alg = alg
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
        if self._complex_constants is not None:
            return self._complex_constants
        lifted, pairs = _lift_square(self.C), combinations(range(2 * self.n), 2)
        if lifted is None:
            X = [self.x_vector(A) for A in range(2 * self.n)]
            K = {(A, B): mat_vec(self.C, self.alg.bracket_vectors(X[A], X[B])) for A, B in pairs}
        else:
            # C [X_A, X_B] over den_C den_X^2 D, X_A lifted as column A of C^{-1}
            rows, _, den_c = lifted
            _, X, den_x = _lift_square(self.Cinv)
            ad, dim, K = self.alg._lifted, self.alg.dim, {}
            den = den_c * den_x * den_x * self.alg._den
            for A, B in pairs:
                re, im = [0] * dim, [0] * dim
                _bracket_into(re, im, ad, X[A], X[B])
                K[(A, B)] = _constants(*_apply(rows, re, im), den)
        self._complex_constants = K
        return K

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
                    alpha = tuple(k + 1 for k in (B, Cc) if k < n)
                    beta = tuple(k - n + 1 for k in (B, Cc) if k >= n)
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
    return ComplexCoframe(alg, chosen)


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


_TWO_PI_I = SymScalar.symbol(coeff=Scalar(0, 2))


def _nonvanishing_bracket(alg: LieAlgebra, values):
    """The first (i, j) with values not vanishing on [e_i, e_j], else None."""
    return next(((i, j) for (i, j), vec in alg.brackets.items()
                 if sum((values[k - 1] * c for k, c in vec.items()), SS_ZERO)), None)


class Character:
    """A Lie-algebra character lambda (vanishing on [g,g]), the derivative of
    a unitary character chi when its values are imaginary;
    d(chi x) = chi(lambda ^ x + dx)."""

    def __init__(self, alg: LieAlgebra, values):
        self.values = [SymScalar.coerce(v) for v in values]
        if len(self.values) != alg.dim:
            raise InputError("character length must match the algebra dimension")
        if (bracket := _nonvanishing_bracket(alg, self.values)) is not None:
            raise InputError("character does not vanish on [e_{}, e_{}]".format(*bracket))

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

    indices is the sorted holomorphic/antiholomorphic index set that section
    monomials are drawn from: 1..n, or the basic set, which only the sphere
    passes.  The canonical bundle, the trivial character and lambda_1, which
    no level m changes, are built once per model, on first use.
    """

    def __init__(self, alg, J, *, name="", symbol="x", basic=None):
        self.alg = alg
        self.J = J
        self.coframe = build_coframe(alg, J)
        self.name = name
        self.symbol = symbol
        self.indices = tuple(sorted(basic) if basic is not None else range(1, self.n + 1))

    @property
    def n(self):
        return self.coframe.n

    @cached_property
    def canonical(self):
        """K as bundles.CanonicalPower: its beta_1, checked by the product
        rule once, gives beta_m = m * beta_1 at every level m."""
        from .bundles import CanonicalPower

        return CanonicalPower(self)

    @cached_property
    def _trivial(self):
        """The trivial character under its key, hashed once."""
        trivial = Character(self.alg, [SS_ZERO] * self.alg.dim)
        return {trivial.key(): trivial}

    @cached_property
    def _lambda1(self):
        """lambda_1/(2 pi i) on e_1..e_N, read through C's phibar rows: real,
        as lambda_1 = conj(beta_1) - beta_1 is imaginary.  None unless the
        symbol is pi and these are constants that vanish on [g, g]."""
        if self.symbol != "pi":
            return None
        beta1, n, C = self.canonical.beta1, self.n, self.coframe.C
        beta = [sum((beta1.coefficient((), (i + 1,)) * C[n + i][j] for i in range(n)), SS_ZERO)
                for j in range(self.alg.dim)]
        values = [(v.conjugate() - v) / _TWO_PI_I for v in beta]
        ok = all(v.is_constant() for v in values) and not _nonvanishing_bracket(self.alg, values)
        return [v.constant_value() for v in values] if ok else None

    def characters(self, bundle_power=0):
        """The trivial character, then lambda_k = k * lambda_1 for k = 1, -1,
        m, -m (m the bundle power, k != 0), each once, where lambda_k/(2 pi i)
        is an integer on every e_j.  lambda_k^{0,1} = -k beta_1 cancels
        beta_k, so these are the blocks where K^k has a constant section."""
        out, lam = dict(self._trivial), self._lambda1
        for k in (1, -1, bundle_power, -bundle_power) if lam else ():
            if k and all((k * c).d == 1 for c in lam):
                ch = Character(self.alg, [_TWO_PI_I * (k * c) for c in lam])
                out.setdefault(ch.key(), ch)
        return list(out.values())

    @cached_property
    def first_section_level(self):
        """The least m >= 1 at which K^m has a constant section, in a block of
        characters(m): 1 if beta_1 = 0, else the lcm of the denominators of
        lambda_1/(2 pi i); None without lambda_1.  P_m <= 1: kappa is 0 or -inf."""
        if self.canonical.beta1.is_zero():
            return 1
        lam = self._lambda1
        return math.lcm(*(c.d for c in lam)) if lam else None
