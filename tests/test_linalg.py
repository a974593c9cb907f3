"""Exact linear algebra over the scalar tower."""

import random
from fractions import Fraction

from acx import g2
from acx.linalg import (
    identity,
    in_span,
    is_nonsingular,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    rank,
    solve,
)
from acx.models import kt_J
from acx.scalars import PiParam, Scalar, SymScalar


def rand_matrix(rng, rows, cols, symbolic=False):
    def entry():
        c = Scalar(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)))
        if symbolic and rng.random() < 0.3:
            return SymScalar.symbol(coeff=c)
        return SymScalar.const(c)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_inverse_roundtrip():
    rng = random.Random(41)
    done = 0
    while done < 6:
        a = rand_matrix(rng, 3, 3, symbolic=True)
        if not is_nonsingular(a):
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
        kb = kernel_basis(a, cols)
        zero = [SymScalar.const(0)] * rows
        for v in kb:
            assert mat_vec(a, v) == zero
        assert rank(a) + len(kb) == cols
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
    assert in_span(vs, combo)
    outside = list(combo)
    outside[0] = outside[0] + SymScalar.symbol()
    if rank(vs + [outside]) > rank(vs):
        assert not in_span(vs, outside)


def test_rank_of_degenerate_matrices():
    z = [[SymScalar.const(0)] * 3 for _ in range(2)]
    assert rank(z) == 0
    assert kernel_basis(z, 3) is not None and len(kernel_basis(z, 3)) == 3
    assert rank(identity(4)) == 4
    assert is_nonsingular(identity(2)) and not is_nonsingular(z)



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
