"""Exact linear algebra over the SymScalar field Q(i)(x).

Every elimination is one call of row_echelon, sparse Gauss-Jordan to the
reduced row echelon form.  A row is a dict {column: nonzero entry}.  The
columns are taken in order; each pivot comes from the unused rows holding
the column, chosen after Markowitz (1957) by the key (nonzeros in the row,
len(num) + len(den) of the entry, row index), which keeps fill-in and
polynomial degrees low.  Clearing a column from the other rows touches only
the pivot row's nonzeros and deletes every entry that cancels.  When every
entry is constant, the entries are unwrapped to Scalar once, eliminated over
Q(i) by the same loop, and wrapped once at the end.  span_test reduces a
set of vectors once and then decides span membership of each target by
subtracting reduced rows, with no further elimination.

The pivot rule cannot change an output: for a fixed column order the
reduced row echelon form is unique, so the rule decides only which row
supplies each pivot, never the pivot columns or the echelon rows.
"""

from __future__ import annotations

from .scalars import S_ONE, S_ZERO, SS_ONE, SS_ZERO, SymScalar, _const


def row_echelon(rows):
    """The reduced row echelon form of a list of rows, as (rows, pivots):
    the ascending pivot columns, and the dense reduced rows in pivot order,
    one per pivot."""
    sparse = [{j: c for j, c in enumerate(map(SymScalar.coerce, row)) if c.num}
              for row in rows]
    if not sparse:
        return [], []
    ncols = len(rows[0])
    if all(c.is_constant() for row in sparse for c in row.values()):
        sparse = [{j: c.num[0] for j, c in row.items()} for row in sparse]
        zero, unit, wrap, size = S_ZERO, S_ONE, _const, lambda c: 0
    else:
        zero, unit, wrap = SS_ZERO, SS_ONE, lambda c: c
        size = lambda c: len(c.num) + len(c.den)
    unused = set(range(len(sparse)))
    pivots, order = [], []
    for c in range(ncols):
        holders = [i for i, row in enumerate(sparse) if c in row]
        candidates = unused.intersection(holders)
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(sparse[i]), size(sparse[i][c]), i))
        inv = unit / sparse[p][c]
        items = [(j, x * inv) for j, x in sparse[p].items() if j != c]
        sparse[p] = dict(items + [(c, unit)])
        for i in holders:
            if i == p:
                continue
            row = sparse[i]
            f = row.pop(c)
            for j, x in items:
                y = row.get(j, zero) - f * x
                if y.is_zero():
                    del row[j]
                else:
                    row[j] = y
        unused.discard(p)
        pivots.append(c)
        order.append(p)
        if not unused:
            break
    return [[wrap(sparse[p][j]) if j in sparse[p] else SS_ZERO for j in range(ncols)]
            for p in order], pivots


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


def span_test(vectors):
    """A predicate deciding exactly whether a vector lies in the span of the
    given vectors.  row_echelon reduces the vectors once; each reduced row
    has 1 at its pivot and 0 at the other pivots, so subtracting target[p]
    times the row of each pivot p leaves zero exactly when the target lies
    in the span."""
    ech, pivots = row_echelon(vectors)
    rows = [(p, [(j, c) for j, c in enumerate(row) if c.num and j != p])
            for p, row in zip(pivots, ech)]

    def contains(target) -> bool:
        rest = {j: c for j, c in enumerate(map(SymScalar.coerce, target)) if c.num}
        for p, row in rows:
            f = rest.pop(p, None)
            if f is None:
                continue
            for j, c in row:
                y = rest.get(j, SS_ZERO) - f * c
                if y.is_zero():
                    del rest[j]
                else:
                    rest[j] = y
        return not rest

    return contains


def is_nonsingular(rows) -> bool:
    if not rows:
        return True
    return len(rows) == len(rows[0]) and rank(rows) == len(rows)


def mat_vec(rows, v):
    """A v, summing over the entries nonzero in both v and the row."""
    terms = [(k, c) for k, c in enumerate(map(SymScalar.coerce, v)) if not c.is_zero()]
    out = []
    for row in rows:
        acc = SS_ZERO
        for k, c in terms:
            x = SymScalar.coerce(row[k])
            if x.num:
                acc = acc + x * c
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
