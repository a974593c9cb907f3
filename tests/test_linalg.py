"""Exact linear algebra over the scalar tower."""

import random
from fractions import Fraction

import pytest

from acx import g2, linalg, scalars
from acx.hodge import invariant_harmonic_space
from acx.linalg import (
    certify_kernel,
    identity,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    rank,
    row_echelon,
    span_test,
    sparse_rows,
)
from acx.models import kt_J, model_from_json
from acx.scalars import SS_ONE, SS_ZERO, PiParam, Scalar, SymScalar

from test_hodge import solve


def rand_matrix(rng, rows, cols, symbolic=False):
    def entry():
        c = Scalar(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)))
        if symbolic and rng.random() < 0.3:
            return SymScalar.symbol(coeff=c)
        return SymScalar.const(c)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def dense(v, ncols):
    """A dict vector written out over the columns 0..ncols-1."""
    return [v.get(j, SS_ZERO) for j in range(ncols)]


def nonzero_rows(rows):
    """Dense rows as dicts of their nonzero entries."""
    return [{j: c for j, c in enumerate(row) if c.num} for row in rows]


def test_inverse_roundtrip():
    rng = random.Random(41)
    done = 0
    while done < 6:
        a = rand_matrix(rng, 3, 3, symbolic=True)
        if rank(sparse_rows(a)) < 3:
            continue
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == identity(3)
        assert mat_mul(inv, a) == identity(3)
        done += 1


def test_kernel_vectors_annihilate():
    rng = random.Random(42)
    for _ in range(25):
        rows, cols = rng.randint(2, 4), rng.randint(2, 5)
        a = rand_matrix(rng, rows, cols)
        kb = kernel_basis(sparse_rows(a), cols)
        zero = [SymScalar.const(0)] * rows
        for v in kb:
            assert mat_vec(a, dense(v, cols)) == zero
        assert rank(sparse_rows(a)) + len(kb) == cols
        assert rank(kb) == len(kb)


def test_solve_produces_solutions_and_detects_inconsistency():
    rng = random.Random(43)
    for _ in range(25):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        a = rand_matrix(rng, rows, cols)
        x = [SymScalar.const(rng.randint(-3, 3)) for _ in range(cols)]
        b = mat_vec(a, x)
        got = solve(a, b)
        assert got is not None
        assert mat_vec(a, got) == b
    inconsistent = [[SymScalar.const(1)], [SymScalar.const(1)]]
    assert solve(inconsistent, [SymScalar.const(0), SymScalar.const(1)]) is None


def test_in_span():
    rng = random.Random(44)
    vs = rand_matrix(rng, 3, 5)
    combo = [sum((vs[i][j] * SymScalar.const(i + 1) for i in range(3)),
                 SymScalar.const(0)) for j in range(5)]
    in_vs_span = span_test(sparse_rows(vs))
    assert in_vs_span(dict(enumerate(combo)))
    outside = list(combo)
    outside[0] = outside[0] + SymScalar.symbol()
    if rank(sparse_rows(vs + [outside])) > rank(sparse_rows(vs)):
        assert not in_vs_span(dict(enumerate(outside)))


def test_span_test_matches_solve():
    """span_test against one solve of V^T c = target per target, over
    constant and symbolic vectors and targets in and out of the span."""
    rng = random.Random(45)
    for symbolic in (False, True):
        for _ in range(6):
            vs = rand_matrix(rng, rng.randint(1, 4), 5, symbolic=symbolic)
            in_vs_span = span_test(sparse_rows(vs))
            cols = [list(col) for col in zip(*vs)]
            coeffs = rand_matrix(rng, 1, len(vs), symbolic=True)[0]
            combo = [sum((c * v[j] for c, v in zip(coeffs, vs)), SymScalar.const(0))
                     for j in range(5)]
            for target in [combo, rand_matrix(rng, 1, 5, symbolic=symbolic)[0]]:
                assert in_vs_span(dict(enumerate(target))) is (solve(cols, target) is not None)
            assert in_vs_span(dict(enumerate(combo)))
    in_empty_span = span_test([])
    assert in_empty_span({0: 0, 1: 0, 2: 0}) and not in_empty_span({0: 0, 1: 1, 2: 0})


def test_rank_of_degenerate_matrices():
    z = sparse_rows([[SymScalar.const(0)] * 3 for _ in range(2)])
    assert rank(z) == 0
    assert kernel_basis(z, 3) == [{0: SS_ONE}, {1: SS_ONE}, {2: SS_ONE}]
    assert rank(sparse_rows(identity(4))) == 4
    assert rank(sparse_rows(identity(2))) == 2



def dense_mat_vec(rows, v):
    """A v by the dense loop: every entry coerced and multiplied."""
    return [
        sum((SymScalar.coerce(a) * b for a, b in zip(row, v)), SymScalar.const(0))
        for row in rows
    ]


def test_mat_vec_matches_dense_loop_on_model_structures(nil8_generic):
    matrices = {
        "g2": g2.g2_J().matrix,
        "kt": kt_J(PiParam.generic()).matrix,
        "nil8": nil8_generic.J.matrix,
        "nil8-coframe": nil8_generic.coframe.C,
    }
    x = SymScalar.symbol()
    for name, m in matrices.items():
        rng = random.Random(f"mat-vec-{name}")
        n = len(m[0])
        for _ in range(12):
            small = [SymScalar.const(rng.choice([0, 0, 1, -1, 2])) for _ in range(n)]
            symbolic = [
                rng.choice([SymScalar.const(0), x * rng.randint(-2, 2), SymScalar.const(1) / (x + 1)])
                for _ in range(n)
            ]
            for v in (small, symbolic):
                assert mat_vec(m, v) == dense_mat_vec(m, v)


def test_mat_vec_coerces_raw_entries():
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randint(1, 5)
        raw = [[rng.choice([0, 1, -2, Fraction(1, 3), Scalar(0, 1)]) for _ in range(n)]
               for _ in range(rng.randint(1, 4))]
        v = [rng.choice([0, 0, 3, Fraction(-1, 2), SymScalar.symbol()]) for _ in range(n)]
        coerced_v = [SymScalar.coerce(c) for c in v]
        assert mat_vec(raw, v) == dense_mat_vec(raw, coerced_v)
        symbolic = rand_matrix(rng, 3, n, symbolic=True)
        assert mat_vec(symbolic, v) == dense_mat_vec(symbolic, coerced_v)


def dense_mat_mul(a, b):
    """A B by the dense loop: every product of coerced entries summed."""
    return [
        [
            sum((SymScalar.coerce(a[i][k]) * SymScalar.coerce(b[k][j]) for k in range(len(b))),
                SymScalar.const(0))
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def test_mat_mul_matches_dense_loop(nil8_generic):
    J_g2 = g2.g2_J().matrix
    J_kt = kt_J(PiParam.generic()).matrix
    cases = [
        (J_g2, J_g2),
        (J_kt, J_kt),
        (nil8_generic.coframe.C, nil8_generic.coframe.Cinv),
        (nil8_generic.J.matrix, nil8_generic.coframe.Cinv),
    ]
    rng = random.Random(46)
    for _ in range(12):
        rows, inner, cols = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        raw = [[rng.choice([0, 0, 1, -2, Fraction(1, 3), Scalar(0, 1)]) for _ in range(inner)]
               for _ in range(rows)]
        raw_right = [[rng.choice([0, 2, SymScalar.symbol()]) for _ in range(cols)]
                     for _ in range(inner)]
        cases.append((raw, rand_matrix(rng, inner, cols, symbolic=True)))
        cases.append((rand_matrix(rng, rows, inner, symbolic=True), raw_right))
    for a, b in cases:
        assert mat_mul(a, b) == dense_mat_mul(a, b)


def dense_row_echelon(rows):
    """The reduced row echelon form by dense Gauss-Jordan over SymScalar,
    taking the first nonzero row as each pivot; returns every row, the zero
    rows last, and the pivots."""
    m = [[SymScalar.coerce(c) for c in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = SS_ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


A = SymScalar.symbol()


def sparse_entry(rng, symbolic):
    """Zero half the time; otherwise a Gaussian rational c, over Q(i)(a)
    also c*a + 1 or c/(a + 2), and over Q(i)[a, 1/a] also a unit c*a^k or
    c*a^k + a^j, for k and j from -2 to 2."""
    if rng.random() < 0.5:
        return SymScalar.const(0)
    c = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
    kind = rng.random() if symbolic else 0
    if kind < 0.5:
        return SymScalar.const(c)
    if symbolic == "laurent":
        unit = SymScalar.symbol(coeff=c or 1, power=rng.randint(-2, 2))
        return unit if kind < 0.75 else unit + SymScalar.symbol(power=rng.randint(-2, 2))
    return c * A + 1 if kind < 0.75 else SymScalar.const(c) / (A + 2)


def sparse_matrix(rng, rows, cols, symbolic):
    return [[sparse_entry(rng, symbolic) for _ in range(cols)] for _ in range(rows)]


def dense_reference(rows):
    """dense_row_echelon on dict rows over int columns, returning
    row_echelon's shape: the nonzero reduced rows as dicts, and the pivots."""
    ncols = 1 + max((j for row in rows for j in row), default=-1)
    ref, pivots = dense_row_echelon([dense(row, ncols) for row in rows])
    return nonzero_rows(ref[:len(pivots)]), pivots


def assert_matches_dense(rows):
    got, pivots = row_echelon(sparse_rows(rows))
    ref, ref_pivots = dense_row_echelon(rows)
    assert pivots == ref_pivots
    # equal dicts of nonzero entries: no zero entry is kept
    assert got == nonzero_rows(ref[:len(pivots)])
    assert all(0 <= j < len(rows[0]) for row in got for j in row)
    if all(SymScalar.coerce(c).is_constant() for row in rows for c in row):
        # the constant path wraps each entry back in canonical constant form
        assert all(c.is_constant() for row in got for c in row.values())


class TestSparseEchelonAgainstDense:
    """The reduced row echelon form is unique, so the sparse routine must
    return exactly the dense reference's pivots and nonzero rows."""

    @pytest.mark.parametrize("symbolic", [False, True, "laurent"],
                             ids=["Qi", "Qi(a)", "Laurent"])
    def test_random_shapes(self, symbolic):
        rng = random.Random(f"echelon-{symbolic}")
        for _ in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            assert_matches_dense(sparse_matrix(rng, rows, cols, symbolic))

    @pytest.mark.parametrize("symbolic", [False, True, "laurent"],
                             ids=["Qi", "Qi(a)", "Laurent"])
    def test_rank_deficient(self, symbolic):
        rng = random.Random(f"deficient-{symbolic}")
        for _ in range(30):
            rows, cols = rng.randint(2, 6), rng.randint(2, 7)
            m = sparse_matrix(rng, rows, cols, symbolic)
            i, j = rng.sample(range(rows), 2)
            m.insert(rng.randint(0, rows), [x + y for x, y in zip(m[i], m[j])])
            _, pivots = row_echelon(sparse_rows(m))
            assert len(pivots) <= rows
            assert_matches_dense(m)

    @pytest.mark.parametrize("symbolic", [False, True], ids=["Qi", "Qi(a)"])
    def test_degenerate_shapes(self, symbolic):
        rng = random.Random(f"shapes-{symbolic}")
        zero = SymScalar.const(0)
        for rows, cols in [(1, 1), (1, 6), (6, 1), (2, 9), (9, 2), (3, 3)]:
            assert_matches_dense([[zero] * cols for _ in range(rows)])
            for _ in range(8):
                assert_matches_dense(sparse_matrix(rng, rows, cols, symbolic))
        assert row_echelon([]) == ([], []) == dense_row_echelon([])

    def test_large_heights(self):
        # 60-bit entries beside small ones, so that the height breaks ties
        rng = random.Random("heights")
        for _ in range(15):
            rows, cols = rng.randint(2, 7), rng.randint(2, 7)

            def entry():
                if rng.random() < 0.3:
                    return 0
                bits = rng.choice([2, 60])
                big = lambda: rng.randint(-2**bits, 2**bits)
                return Scalar(Fraction(big(), rng.randint(1, 2**bits)), rng.choice([0, big()]))

            assert_matches_dense([[entry() for _ in range(cols)] for _ in range(rows)])

    def test_unit_pivots_keep_updates_gcd_free(self, monkeypatch):
        # both rows hold two entries, and 1 + a comes first, but the unit a
        # is the pivot: every update then stays over powers of a
        rows = [[A + 1, A, 0], [A, 1, 0], [0, A, 1 / A]]
        want = dense_row_echelon(rows)
        monkeypatch.setattr(scalars, "_pgcd", _refuse_gcd)
        assert row_echelon(sparse_rows(rows)) == (nonzero_rows(want[0]), want[1])

    def test_raw_entries_are_coerced(self):
        m = [[0, 2, Fraction(1, 3)], [Scalar(0, 1), 0, 1], [1, 1, 1]]
        assert_matches_dense(m)
        assert_matches_dense([list(row) for row in zip(*m)])

    def test_ragged_rows_are_refused(self):
        for rows in ([[1], [0, 1]], [[0, 1], [1]], [[1, 0, 1], [0, 1]]):
            with pytest.raises(ValueError, match="unequal length"):
                sparse_rows(rows)
        with pytest.raises(ValueError, match="unequal length"):
            solve([[1, 0], [0]], [1, 1])

    def test_rhs_of_another_length_is_refused(self):
        for rows, rhs in (([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 5]), ([], [1])):
            with pytest.raises(ValueError, match="row count"):
                solve(rows, rhs)

    def test_inconsistent_and_singular_systems_are_still_detected(self):
        rng = random.Random(47)
        for symbolic in (False, True):
            for _ in range(10):
                m = sparse_matrix(rng, 3, 3, symbolic)
                m[2] = [x + y for x, y in zip(m[0], m[1])]
                x = [SymScalar.const(rng.randint(-2, 2)) for _ in range(3)]
                b = mat_vec(m, x)
                b[2] = b[2] + 1
                assert solve(m, b) is None
                with pytest.raises(ValueError, match="singular"):
                    mat_inverse(m)


def _refuse_gcd(*args):
    raise AssertionError("a unit pivot left the Laurent path")


def dense_two_step(seed, low=8, high=4):
    """A 2-step nilpotent model file: e1..e{low} bracket into the center
    e{low+1}..e{low+high} with coefficients drawn from -2..2, and the
    standard J, so every operator matrix is constant."""
    rng = random.Random(seed)
    dim = low + high
    brackets = []
    for i in range(1, low + 1):
        for j in range(i + 1, low + 1):
            out = [[k, str(c), "0"] for k in range(low + 1, dim + 1)
                   if (c := rng.randint(-2, 2))]
            if out:
                brackets.append({"i": i, "j": j, "out": out})
    J = [["0"] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        J[k][k + 1], J[k + 1][k] = "-1", "1"
    return {"dim": dim, "brackets": brackets, "J": J}


@pytest.mark.parametrize("case", ["nil8-symbolic", "dense12-constant"])
def test_harmonic_blocks_match_dense_elimination(monkeypatch, nil8_generic, case):
    if case == "nil8-symbolic":
        model, p, q, power = nil8_generic, 2, 1, 1
    else:
        model, p, q, power = model_from_json(dense_two_step(11))[0], 1, 1, 0
    constant = []
    real = linalg.row_echelon

    def recording(rows):
        constant.append(all(SymScalar.coerce(c).is_constant()
                            for row in rows for c in row.values()))
        return real(rows)

    monkeypatch.setattr(linalg, "row_echelon", recording)
    sparse = invariant_harmonic_space(model, p, q, bundle_power=power)
    monkeypatch.setattr(linalg, "row_echelon", dense_reference)
    dense = invariant_harmonic_space(model, p, q, bundle_power=power)
    # the symbolic case meets at least one matrix over Q(i)(a); the dense
    # model runs the constant path only
    assert all(constant) == (case == "dense12-constant")
    assert sparse.dimension > 0
    assert len(sparse.blocks) == len(dense.blocks)
    for s, d in zip(sparse.blocks, dense.blocks):
        assert s.dimension == d.dimension
        assert s.basis == d.basis


def fraction_entry(rng, symbolic):
    """Zero a third of the time; otherwise a Gaussian rational with
    non-unit denominators, or over Q(i)(a) also c*a + 1 or c/(a - 3)."""
    if rng.random() < 1 / 3:
        return SymScalar.const(0)
    c = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    kind = rng.random() if symbolic else 0
    if kind < 0.5:
        return SymScalar.const(c)
    return c * A + 1 if kind < 0.75 else SymScalar.const(c) / (A - 3)


class TestKernelBasisIsCanonical:
    """kernel_basis reads its basis off the reduced row echelon form, which is
    unique for a row space, and matrices with one kernel have one row space.
    So equal kernels give equal lists, which is what lets the harmonic
    kernels be compared with == instead of a rank of the stacked bases."""

    @staticmethod
    def matrix(rng, rows, cols, symbolic):
        return [[fraction_entry(rng, symbolic) for _ in range(cols)] for _ in range(rows)]

    def invertible(self, rng, n, symbolic):
        while True:
            m = self.matrix(rng, n, n, symbolic)
            if rank(sparse_rows(m)) == n:
                return m

    @staticmethod
    def old_test_says_equal(k1, k2):
        # the stacked-rank test the list comparison replaced
        return len(k1) == len(k2) and rank(k1 + k2) == len(k1)

    @pytest.mark.parametrize("symbolic", [False, True], ids=["Qi", "Qi(a)"])
    def test_equal_kernels_give_equal_lists(self, symbolic):
        rng = random.Random(f"canonical-{symbolic}")
        for _ in range(12):
            rows, cols = rng.randint(1, 4), rng.randint(2, 6)
            a = self.matrix(rng, rows, cols, symbolic)
            kernel = kernel_basis(sparse_rows(a), cols)
            # M A for invertible M, and A stacked on B A, keep the kernel
            # but change every row
            ma = mat_mul(self.invertible(rng, rows, symbolic), a)
            stacked = ma + mat_mul(self.matrix(rng, 2, rows, symbolic), a)
            for same in map(sparse_rows, (ma, stacked)):
                assert kernel_basis(same, cols) == kernel
                assert self.old_test_says_equal(kernel_basis(same, cols), kernel)

    @pytest.mark.parametrize("symbolic", [False, True], ids=["Qi", "Qi(a)"])
    def test_different_kernels_give_different_lists(self, symbolic):
        rng = random.Random(f"perturbed-{symbolic}")
        same_size = 0
        for _ in range(12):
            rows, cols = rng.randint(1, 4), rng.randint(2, 6)
            a = self.matrix(rng, rows, cols, symbolic)
            kernel = kernel_basis(sparse_rows(a), cols)
            if not kernel:
                continue
            # change an entry (i, j) with v[j] != 0 for a kernel vector v:
            # then A' v != 0, so ker A' differs from ker A
            v = rng.choice(kernel)
            j = rng.choice(sorted(k for k, c in v.items() if not c.is_zero()))
            i = rng.randrange(rows)
            b = [list(row) for row in a]
            delta = Fraction(rng.randint(1, 5), rng.randint(2, 4))
            b[i][j] = b[i][j] + (delta * A if symbolic else delta)
            assert mat_vec(b, dense(v, cols)) != mat_vec(a, dense(v, cols))
            other = kernel_basis(sparse_rows(b), cols)
            assert other != kernel
            assert not self.old_test_says_equal(other, kernel)
            same_size += len(other) == len(kernel)
        # the perturbations also reach kernels of equal size, where only
        # the spans tell them apart
        assert same_size > 0


def is_prime(n):
    """Deterministic Miller-Rabin with the twelve prime bases 2..37, exact
    below psi_12 = 318665857834031151167461 (Sorenson and Webster, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestCertifyKernel:
    """certify_kernel proves ker A = span K from A v = 0 for v in K and
    rank(A mod p) >= ncols - |K|; anything short of a proof is undecided."""

    def test_the_prime_and_the_root(self):
        p, root = linalg._P, linalg._ROOT
        assert p < 318665857834031151167461 and is_prime(p) and p % 4 == 1
        assert root * root % p == p - 1
        # the least prime = 1 (mod 4) above 2^61
        assert p == 2**61 + 21 == 2305843009213693973
        assert not any(is_prime(n) for n in range(2**61 + 1, p, 4))
        assert 0 < linalg._X0 < p
        assert [n for n in range(60) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    @pytest.mark.parametrize("symbolic", [False, True], ids=["Qi", "Qi(a)"])
    def test_true_kernels_are_certified_and_wrong_ones_are_not(self, symbolic):
        rng = random.Random(f"certify-{symbolic}")
        wrong = 0
        for _ in range(12):
            rows, cols = rng.randint(1, 4), rng.randint(2, 6)
            a = TestKernelBasisIsCanonical.matrix(rng, rows, cols, symbolic)
            kernel = kernel_basis(sparse_rows(a), cols)
            assert certify_kernel(sparse_rows(a), cols, kernel)
            if not kernel:
                continue
            # a lost vector, a repeated one, and a perturbed entry of A in a
            # column where a kernel vector is nonzero
            v = rng.choice(kernel)
            j = max(k for k, c in v.items() if c.num)
            b = [list(row) for row in a]
            i = rng.randrange(rows)
            b[i][j] = b[i][j] + (A if symbolic else 1)
            for matrix, basis in ((a, kernel[:-1]), (a, kernel + [v]), (b, kernel)):
                assert not certify_kernel(sparse_rows(matrix), cols, basis)
                wrong += 1
        assert wrong > 0

    def test_a_denominator_divisible_by_p_is_undecided(self):
        # det = 1/p, so rank 2 and ker = 0; each row times its denominator
        # is (p, 1) or (p, 2), which has rank 1 mod p
        inv_p = SymScalar.const(Fraction(1, linalg._P))
        a = sparse_rows([[SS_ONE, inv_p], [SS_ONE, inv_p + inv_p]])
        assert kernel_basis(a, 2) == []
        assert certify_kernel(a, 2, []) is False

    def test_a_denominator_vanishing_at_the_point_is_undecided(self):
        # the same matrix with 1/(a - x0) for 1/p
        pole = SS_ONE / (A - linalg._X0)
        a = sparse_rows([[SS_ONE, pole], [SS_ONE, pole + pole]])
        assert kernel_basis(a, 2) == []
        assert certify_kernel(a, 2, []) is False

    def test_a_rank_lost_mod_p_is_undecided(self):
        a = [{0: SymScalar.const(linalg._P)}]
        assert kernel_basis(a, 1) == []
        assert certify_kernel(a, 1, []) is False

    def test_a_block_without_rows(self):
        units = kernel_basis([], 3)
        assert certify_kernel([], 3, units)
        assert not certify_kernel([], 3, units[:2])
        assert not certify_kernel([], 3, [])
        assert certify_kernel([], 0, [])



class TestExplicitZeros:
    """A dict row may hold an explicit zero entry: the elimination functions
    drop it, so they never pivot on it and never keep it as a leftover."""

    def test_row_echelon(self):
        rows = [{0: SS_ZERO, 1: SymScalar.const(2)}, {0: 0, 2: A, 1: Scalar(0)}]
        assert row_echelon(rows) == ([{1: SS_ONE}, {2: SS_ONE}], [1, 2])
        assert row_echelon([{0: 0}, {3: SS_ZERO}]) == ([], [])
        assert kernel_basis([{0: SS_ZERO, 1: SS_ONE}], 2) == [{0: SS_ONE}]

    def test_span_test(self):
        in_span = span_test([{0: SS_ZERO, 1: SS_ONE, 2: A}])
        assert in_span({1: SymScalar.const(3), 2: 3 * A, 0: SS_ZERO, 4: 0})
        assert in_span({0: 0, 5: SS_ZERO})
        assert not in_span({0: SS_ONE, 1: SS_ZERO})

    def test_certify_kernel(self):
        # ker of the row (1, 0, 0) is spanned by e1 and e2; the zero entries
        # at column 2 would make both vectors end in one column
        rows = [{0: SS_ONE, 2: SS_ZERO}]
        basis = [{1: SS_ONE, 2: SS_ZERO}, {2: SS_ONE}]
        assert certify_kernel(rows, 3, basis)
        assert not certify_kernel(rows, 3, [{1: SS_ONE, 2: SS_ZERO}, {0: SS_ZERO}])
