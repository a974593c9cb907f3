"""Exact dense linear algebra over the SymScalar field (Gaussian elimination)."""

from __future__ import annotations

from .scalars import SS_ONE, SS_ZERO, SymScalar


def row_echelon(rows):
    """Reduce to row echelon form in place semantics; returns (matrix, pivots)."""
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


def rank(rows) -> int:
    _, pivots = row_echelon(rows)
    return len(pivots)


def kernel_basis(rows, ncols=None):
    """Basis of {v : A v = 0} for A given as a list of rows."""
    if not rows:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        return identity(ncols)
    ncols = len(rows[0])
    ech, pivots = row_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [SS_ZERO] * ncols
        v[fc] = SS_ONE
        for r, pc in enumerate(pivots):
            # row r reads: v[pc] + sum_{c > pc} ech[r][c] v[c] = 0
            v[pc] = -ech[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of A v = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    ech, pivots = row_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    # inconsistent iff the right-hand-side column holds a pivot
    if pivots and pivots[-1] == ncols:
        return None
    v = [SS_ZERO] * ncols
    for r, pc in enumerate(pivots):
        v[pc] = ech[r][ncols]
    return v


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    if not vectors:
        return all(SymScalar.coerce(c).is_zero() for c in target)
    cols = [[SymScalar.coerce(v[i]) for v in vectors] for i in range(len(target))]
    return solve(cols, target) is not None


def is_nonsingular(rows) -> bool:
    if not rows:
        return True
    return len(rows) == len(rows[0]) and rank(rows) == len(rows)


def mat_vec(rows, v):
    """A v, summing over the nonzero entries of v only."""
    terms = [(k, c) for k, c in enumerate(map(SymScalar.coerce, v)) if not c.is_zero()]
    out = []
    for row in rows:
        acc = SS_ZERO
        for k, c in terms:
            acc = acc + SymScalar.coerce(row[k]) * c
        out.append(acc)
    return out


def mat_mul(a, b):
    """A B row by row: row i of A B is mat_vec over the columns of B, which
    sums over the nonzero entries of row i of A only."""
    if not a or not b:
        return []
    columns = list(zip(*b))
    return [mat_vec(columns, row) for row in a]


def mat_inverse(rows):
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    ech, pivots = row_echelon([list(row) + e for row, e in zip(rows, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in ech]


def identity(n):
    return [[SS_ONE if i == j else SS_ZERO for j in range(n)] for i in range(n)]
