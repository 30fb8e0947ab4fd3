"""Exact linear algebra over a FieldDesc.

Matrices are lists of FFElem rows at the interface. Inside, every routine
works on dlogs through the FieldDesc kernels (an entry is its dlog, or None
for zero): entries are converted and field-checked once on the way in, and
FFElem objects are built only for the entries returned.

Elimination has one kernel, on sparse rows {column: dlog} that hold only
the nonzero entries. _echelon reduces the rows one at a time against the
pivot rows found so far, and _back_reduce turns its echelon form into the
reduced row echelon form. Pivot columns and the reduced form depend on the
matrix alone, not on the order of elimination, so every result is the one
column-order Gauss-Jordan gives. det reads the pivots of the echelon form;
mat_inv, solve_linear and null_space read the reduced form of FFElem
matrices, and sparse_solve, sparse_null_space and sparse_left_null_space
that of sparse dlog rows, which is how the Breuil systems are built.
sparse_solve_columns solves one system for several right-hand sides in one
elimination, each a column after the unknowns, and sparse_feasible reads
only their verdicts off the echelon form.
"""

from __future__ import annotations

from .ff import FFElem, FieldDesc
from .util import VerificationFailed


class SingularMatrix(VerificationFailed):
    pass


def mat_mul(A, B):
    field = A[0][0].field
    cols = [field.to_ks(col) for col in zip(*B)]
    out = []
    for row in A:
        ks = field.to_ks(row)
        out.append(field.from_ks([field.k_dot(ks, col) for col in cols]))
    return out


# -- the elimination kernel ---------------------------------------------------

def _echelon(rows, field: FieldDesc):
    """Echelon form of the sparse dlog rows, which are left as they are.

    Each row is reduced against the pivot rows found so far: while its
    leading (smallest) column is a pivot column, the multiple of that pivot
    row that clears it is subtracted. A row with an entry left becomes the
    pivot row of its leading column; a row that cancels out is dropped.
    Returns {pivot column: row} in the order the input rows came; pivot rows
    are not scaled and are zero left of their pivot column.
    """
    sub = field.k_sparse_sub
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            sub(row, row[c] - prow[c], prow)
    return pivots


def _back_reduce(pivots, field: FieldDesc):
    """The reduced row echelon form of _echelon's pivot rows, in place.

    From the last pivot column back, each pivot row is cleared at the pivot
    columns right of its own by rows that are already reduced (which adds
    entries only at free columns), then scaled to 1 at its pivot. Returns
    {pivot column: row} in increasing column order.
    """
    L = field.q - 1
    done = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in [k for k in row if k in done]:
            field.k_sparse_sub(row, row[c2], done[c2])
        inv = -row[c]
        done[c] = {k: (v + inv) % L for k, v in row.items()}
    return dict(reversed(done.items()))


def _sparse(rows, field: FieldDesc):
    """Sparse dlog rows of FFElem rows, field-checked."""
    return [{j: k for j, k in enumerate(field.to_ks(row)) if k is not None}
            for row in rows]


def _transpose(rows, ncols):
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, k in row.items():
            cols[j][i] = k
    return cols


# -- sparse dlog interface ----------------------------------------------------

def _augmented_echelon(rows, columns, ncols, field: FieldDesc):
    """(_echelon of rows augmented by the right-hand sides, the indices of
    the inconsistent ones).

    Right-hand side k is a sparse dlog column {row index: dlog} and sits at
    column ncols + k, after every unknown, so the pivots fall on unknowns
    first. Right-hand side k is inconsistent exactly when a pivot row whose
    pivot lies past the unknowns has an entry at ncols + k: those rows span
    the combinations of right-hand sides that the left null vectors of rows
    read.
    """
    aug = list(rows)
    for k, column in enumerate(columns):
        for i, b in column.items():
            if aug[i] is rows[i]:
                aug[i] = dict(rows[i])
            aug[i][ncols + k] = b
    pivots = _echelon(aug, field)
    bad = {k - ncols for c, row in pivots.items() if c >= ncols for k in row}
    return pivots, bad


def sparse_feasible(rows, columns, ncols, field: FieldDesc):
    """Whether rows * x = b has a solution, for each sparse dlog column b of
    columns ({row index: dlog}), read off one echelon form."""
    _, bad = _augmented_echelon(rows, columns, ncols, field)
    return [k not in bad for k in range(len(columns))]


def sparse_solve_columns(rows, columns, ncols, field: FieldDesc):
    """One solution of rows * x = b for each sparse dlog column b of columns
    ({row index: dlog}), for sparse dlog rows over ncols columns, from one
    elimination.

    Each entry is the dlogs of x with free variables set to zero, or None
    when that right-hand side is inconsistent: per column, exactly what
    sparse_solve gives. The pivot rows past the unknowns are left out of the
    back reduction; they are zero at every consistent column.
    """
    pivots, bad = _augmented_echelon(rows, columns, ncols, field)
    R = _back_reduce({c: row for c, row in pivots.items() if c < ncols}, field)
    out = []
    for k in range(len(columns)):
        if k in bad:
            out.append(None)
            continue
        x = [None] * ncols
        for c, row in R.items():
            x[c] = row.get(ncols + k)
        out.append(x)
    return out


def sparse_solve(rows, rhs, ncols, field: FieldDesc):
    """One solution of rows * x = rhs, for sparse dlog rows over ncols
    columns and a dlog right-hand side.

    Returns the dlogs of x with free variables set to zero, or None when the
    system is inconsistent.
    """
    column = {i: b for i, b in enumerate(rhs) if b is not None}
    return sparse_solve_columns(rows, [column], ncols, field)[0]


def sparse_null_space(rows, ncols, field: FieldDesc):
    """Basis of {x : rows * x = 0} as dlog lists, one per free column in
    increasing order: 1 at that column, 0 at the other free columns."""
    R = _back_reduce(_echelon(rows, field), field)
    basis = []
    for free in range(ncols):
        if free in R:
            continue
        v = [None] * ncols
        v[free] = 0
        for c, row in R.items():
            v[c] = field.k_neg(row.get(free))
        basis.append(v)
    return basis


def sparse_left_null_space(rows, ncols, field: FieldDesc):
    """Basis of {v : v * rows = 0}, as sparse_null_space of the transpose."""
    return sparse_null_space(_transpose(rows, ncols), len(rows), field)


# -- FFElem interface ---------------------------------------------------------

def det(A):
    n = len(A)
    field = A[0][0].field
    pivots = _echelon(_sparse(A, field), field)
    if len(pivots) < n:
        return field.zero()
    # Each row only had multiples of other rows subtracted, so det(A) is the
    # product of the pivots times the sign of row i -> its pivot column.
    cols = list(pivots)
    d = sum(row[c] for c, row in pivots.items())
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return FFElem(field, field.k_neg(d) if inversions % 2 else d)


def mat_inv(A):
    n = len(A)
    field = A[0][0].field
    rows = [{**row, n + i: 0} for i, row in enumerate(_sparse(A, field))]
    pivots = _echelon(rows, field)
    if any(c >= n for c in pivots):
        raise SingularMatrix("matrix is singular")
    return [field.from_ks([row.get(n + j) for j in range(n)])
            for row in _back_reduce(pivots, field).values()]


def null_space(rows, field: FieldDesc):
    """Basis of {x : rows * x = 0}; deterministic free-variable order."""
    if not rows:
        return []
    return [field.from_ks(v) for v in
            sparse_null_space(_sparse(rows, field), len(rows[0]), field)]


def solve_linear(rows, rhs, field: FieldDesc):
    """One solution of the (possibly non-square) system rows * x = rhs.

    Returns a list of FFElem with free variables set to zero, or None when the
    system is inconsistent. Deterministic column-order pivoting.
    """
    if not rows:
        return []
    x = sparse_solve(_sparse(rows, field), field.to_ks(rhs), len(rows[0]), field)
    return None if x is None else field.from_ks(x)
