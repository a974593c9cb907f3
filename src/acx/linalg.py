"""Exact linear algebra over the SymScalar field Q(i)(x).

Every elimination is one call of row_echelon, sparse elimination to the
reduced row echelon form.  A row is a dict {column: nonzero entry}.  The
columns are taken in order; each pivot comes from the rows without a pivot
that hold the column, chosen after Markowitz (1957) by the key (nonzeros
in the row, cost of the entry, row index).  Over Q(i)(x) the cost puts
units of Q(i)[x, 1/x] (entries c*x^k) first, whose multiples keep updates
on the gcd-free Laurent path of the scalars, then len(num) + len(den);
over Q(i) it is the entry's height, the bit lengths of max(|a|, |b|) and
of d.  The pivot column is cleared from the rows without a pivot only;
back substitution then clears each pivot column, from the last up, from
the pivot rows above it.  One update, _eliminate, serves both and
span_test too: it touches only the pivot row's nonzeros and deletes every
entry that cancels.  When every entry is constant, the entries are
unwrapped to Scalar once, eliminated over Q(i) by the same loop, and
wrapped once at the end.  span_test reduces a set of vectors once and then
decides span membership of each target by subtracting reduced rows, with
no further elimination.

The pivot rule and the order of updates cannot change an output: for a
fixed column order the reduced row echelon form is unique, so they decide
only which row supplies each pivot and in which order rows are updated,
never the pivot columns or the echelon rows.
"""

from __future__ import annotations

from .scalars import S_ONE, S_ZERO, SS_ONE, SS_ZERO, SymScalar, _const, _xpow


def _eliminate(row, c, items, zero):
    """Subtract row[c] times a pivot row from row, in place: items are the
    pivot row's entries off its pivot column c, where it holds 1.  The entry
    at c goes, and so does every entry that cancels."""
    f = row.pop(c)
    for j, x in items:
        y = row.get(j, zero) - f * x
        if y.is_zero():
            del row[j]
        else:
            row[j] = y


def row_echelon(rows):
    """The reduced row echelon form of a list of rows, as (rows, pivots):
    the ascending pivot columns, and the dense reduced rows in pivot order,
    one per pivot."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("rows of unequal length")
    sparse = [{j: c for j, c in enumerate(map(SymScalar.coerce, row)) if c.num}
              for row in rows]
    if all(c.is_constant() for row in sparse for c in row.values()):
        sparse = [{j: c.num[0] for j, c in row.items()} for row in sparse]
        zero, unit, wrap = S_ZERO, S_ONE, _const
        size = lambda c: max(abs(c.a), abs(c.b)).bit_length() + c.d.bit_length()
    else:
        zero, unit, wrap = SS_ZERO, SS_ONE, lambda c: c
        size = lambda c: (_xpow(c.den) < 0 or any(c.num[:-1]), len(c.num) + len(c.den))
    unused = set(range(len(sparse)))
    pivots, order = [], []
    for c in range(ncols):
        holders = [i for i in unused if c in sparse[i]]
        if not holders:
            continue
        p = min(holders, key=lambda i: (len(sparse[i]), size(sparse[i][c]), i))
        inv = unit / sparse[p][c]
        items = [(j, x * inv) for j, x in sparse[p].items() if j != c]
        sparse[p] = dict(items + [(c, unit)])
        for i in holders:
            if i != p:
                _eliminate(sparse[i], c, items, zero)
        unused.discard(p)
        pivots.append(c)
        order.append(p)
        if not unused:
            break
    for k in range(len(order) - 1, 0, -1):
        c, row = pivots[k], sparse[order[k]]
        items = [(j, x) for j, x in row.items() if j != c]
        for p in order[:k]:
            if c in sparse[p]:
                _eliminate(sparse[p], c, items, zero)
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
            if p in rest:
                _eliminate(rest, p, row, SS_ZERO)
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
