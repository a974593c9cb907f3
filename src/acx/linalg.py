"""Exact linear algebra over the SymScalar field Q(i)(x).

Every elimination over Q(i)(x) is one call of row_echelon, sparse
elimination to the reduced row echelon form; certify_kernel's rank mod p,
over F_p, is the one other.  A row or vector is a dict {column: entry}:
the elimination functions drop its zero entries and return dicts of
nonzero entries.  Only sparse_rows, which turns dense rows into dict rows,
and the small dense helpers mat_vec, mat_mul, mat_inverse and identity
take or return lists.  The columns are taken in sorted key order; each
pivot comes from the rows without a pivot that hold the column, chosen
after Markowitz (1957) by the key (nonzeros in the row, cost of the
entry, row index).  Over Q(i)(x) the cost puts units of Q(i)[x, 1/x]
(entries c*x^k) first, whose multiples keep updates on the gcd-free
Laurent path of the scalars, then len(num) + len(den); over Q(i) it is
the entry's height, the bit lengths of max(|a|, |b|) and of d.  The pivot column is cleared from the rows without a pivot only;
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
never the pivot columns or the echelon rows.  So kernel_basis is canonical:
matrices with one kernel have one row space, hence one kernel basis.

certify_kernel proves ker A = span K with no elimination over Q(i)(x):
(i) A v = 0, exactly, for every v in K, so span K lies in ker A; (ii) the
rows, scaled into Z[i][x] and sent into F_p by x -> _X0 and i -> _ROOT (a
square root of -1 mod the prime _P), have rank >= ncols - |K|.  A minor
nonzero mod p is nonzero over Q(i)(x), so dim ker A <= |K|, and the vectors
of K end in distinct columns, so they are independent.  Nothing is random:
a bad prime or point can only leave the rank short, which is "undecided".
"""

from __future__ import annotations

from .scalars import (S_ONE, S_ZERO, SS_ONE, SS_ZERO, SymScalar, _P_ONE, _const, _lift, _sym,
                      _xpow)

# certify_kernel's prime (the least = 1 mod 4 above 2^61), a square root of
# -1 modulo it, and the value x is sent to
_P = 2**61 + 21
_ROOT = 1035093963448091331
_X0 = 982451653


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


def sparse_rows(rows):
    """Dense rows as dict rows {column: entry}: the one way in for a matrix
    written out in full."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rows of unequal length")
    return [dict(enumerate(row)) for row in rows]


def row_echelon(rows):
    """The reduced row echelon form of a list of dict rows, as (rows,
    pivots): the ascending pivot columns, and the reduced rows in pivot
    order, one per pivot.  The columns are taken in sorted key order."""
    sparse = [{j: c for j, c in zip(row, map(SymScalar.coerce, row.values())) if c.num}
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
    for c in sorted({j for row in sparse for j in row}):
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
    return [{j: wrap(x) for j, x in sparse[p].items()} for p in order], pivots


def rank(rows) -> int:
    _, pivots = row_echelon(rows)
    return len(pivots)


def kernel_basis(rows, ncols):
    """Basis of {v : A v = 0}, A given by its dict rows over the columns
    0..ncols-1, as dict vectors."""
    if not rows:
        return [{c: SS_ONE} for c in range(ncols)]
    ech, pivots = row_echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in pivot_set:
            # row r reads: v[pc] + sum_{c > pc} ech[r][c] v[c] = 0
            v = {pc: -row[fc] for pc, row in zip(pivots, ech) if fc in row}
            v[fc] = SS_ONE
            basis.append(v)
    return basis


def span_test(vectors):
    """A predicate deciding exactly whether a dict vector lies in the span of
    the given dict vectors.  row_echelon reduces the vectors once; each
    reduced row has 1 at its pivot and 0 at the other pivots, so subtracting
    target[p] times the row of each pivot p leaves zero exactly when the
    target lies in the span."""
    ech, pivots = row_echelon(vectors)
    rows = [(p, [(j, c) for j, c in row.items() if j != p]) for p, row in zip(pivots, ech)]

    def contains(target) -> bool:
        rest = {j: c for j, c in zip(target, map(SymScalar.coerce, target.values())) if c.num}
        for p, row in rows:
            if p in rest:
                _eliminate(rest, p, row, SS_ZERO)
        return not rest

    return contains


def _lift_vector(v):
    """v's nonzero entries times one factor that clears every denominator, as
    (column, re, im): Gaussian-integer coefficients in x, low degree first."""
    entries = [(j, c) for j, c in v.items() if c.num]
    for den in {c.den for _, c in entries if _xpow(c.den) < 0}:
        entries = [(j, c * _sym(den, _P_ONE)) for j, c in entries]
    top = max((len(c.den) for _, c in entries), default=1)
    re, im, _ = _lift([s for _, c in entries for s in (S_ZERO,) * (top - len(c.den)) + c.num])
    lifted, k = [], 0
    for j, c in entries:
        n = top - len(c.den) + len(c.num)
        lifted.append((j, re[k:k + n], im[k:k + n]))
        k += n
    return lifted


def certify_kernel(rows, ncols, basis) -> bool:
    """True ("certified") when ker A = span basis, A given by its rows; False
    ("undecided") otherwise.  One pass over the lifted rows files them by
    column for (i) and reduces them mod p for (ii), which stops at ncols -
    |basis| pivots."""
    ends = [max((j for j, c in v.items() if c.num), default=-1) for v in basis]
    if -1 in ends or len(set(ends)) < len(ends):
        return False
    columns, reduced = [[] for _ in range(ncols)], []
    for i, row in enumerate(rows):
        lifted = _lift_vector(row)
        for j, re, im in lifted:
            columns[j].append((i, re, im))
        values = ((j, sum((a + b * _ROOT) * pow(_X0, k, _P)
                          for k, (a, b) in enumerate(zip(re, im))) % _P) for j, re, im in lifted)
        reduced.append({j: r for j, r in values if r})
    for v in basis:
        acc = {}
        for j, vr, vi in _lift_vector(v):
            for i, ar, ai in columns[j]:
                re, im = acc.get(i) or acc.setdefault(i, ([], []))
                if len(re) < len(ar) + len(vr) - 1:
                    re += [0] * (len(ar) + len(vr) - 1 - len(re))
                    im += [0] * (len(re) - len(im))
                for s, (x, y) in enumerate(zip(ar, ai)):
                    for t, (u, w) in enumerate(zip(vr, vi), s):
                        re[t] += x * u - y * w
                        im[t] += x * w + y * u
        if any(any(re) or any(im) for re, im in acc.values()):
            return False
    need, pivots = ncols - len(basis), {}
    for row in reduced:
        while row and len(pivots) < need:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, _P)
                pivots[c] = [(j, x * inv % _P) for j, x in row.items()]
                break
            f = row[c]
            for j, x in pivots[c]:
                y = (row.get(j, 0) - f * x) % _P
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots) >= need


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
    ech, pivots = row_echelon(sparse_rows([list(row) + e for row, e in zip(rows, identity(n))]))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(j, SS_ZERO) for j in range(n, 2 * n)] for row in ech]


def identity(n):
    return [[SS_ONE if i == j else SS_ZERO for j in range(n)] for i in range(n)]
