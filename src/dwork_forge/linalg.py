"""Exact linear algebra over a FieldDesc.

Matrices are lists of FFElem rows at the interface. Inside, every routine
works on dlog-integer rows through the FieldDesc kernels (an entry is its
dlog, or None for zero): entries are converted and field-checked once on the
way in, and FFElem objects are built only for the entries returned.
"""

from __future__ import annotations

from .ff import FFElem, FieldDesc


class SingularMatrix(ArithmeticError):
    pass


def mat_identity(field: FieldDesc, n: int):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def mat_mul(A, B):
    field = A[0][0].field
    cols = [field.to_ks(col) for col in zip(*B)]
    out = []
    for row in A:
        ks = field.to_ks(row)
        out.append(field.from_ks([field.k_dot(ks, col) for col in cols]))
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def det(A):
    n = len(A)
    field = A[0][0].field
    M = [field.to_ks(row) for row in A]
    d = 0
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] is not None), None)
        if piv is None:
            return field.zero()
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            d = field.k_neg(d)
        prow = M[col]
        d = field.k_mul(d, prow[col])
        cols = [c for c in range(col + 1, n) if prow[c] is not None]
        for r in range(col + 1, n):
            x = M[r][col]
            if x is not None:
                # factor x / pivot; column col itself is never read again
                field.k_row_sub(M[r], x - prow[col], prow, cols)
    return FFElem(field, d)


def _rref(R, ncols, field: FieldDesc):
    """Gauss-Jordan on the first ncols columns of the dlog rows R, in place.

    Pivots are taken in column order, each from the first row at or below
    the current one with a nonzero entry; pivot rows are scaled to 1 and
    their column cleared in every other row. Each update touches only the
    nonzero columns of the pivot row. Returns the pivot columns; row i of R
    holds pivot i, and rows past the last pivot are zero in the first ncols
    columns.
    """
    L = field.q - 1
    width = len(R[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(R):
            break
        piv = next((i for i in range(r, len(R)) if R[i][col] is not None), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        prow = R[r]
        # columns left of col are zero in the pivot row
        inv = -prow[col]
        cols = []
        for c in range(col, width):
            if prow[c] is not None:
                prow[c] = (prow[c] + inv) % L
                cols.append(c)
        for i, row in enumerate(R):
            if i != r and row[col] is not None:
                field.k_row_sub(row, row[col], prow, cols)
        pivots.append(col)
        r += 1
    return pivots


def mat_inv(A):
    n = len(A)
    field = A[0][0].field
    R = [field.to_ks(row) + [0 if j == i else None for j in range(n)]
         for i, row in enumerate(A)]
    if len(_rref(R, n, field)) < n:
        raise SingularMatrix("matrix is singular")
    return [field.from_ks(row[n:]) for row in R]


def null_space(rows, field: FieldDesc):
    """Basis of {x : rows * x = 0}; deterministic free-variable order."""
    if not rows:
        return []
    ncols = len(rows[0])
    R = [field.to_ks(row) for row in rows]
    pivots = _rref(R, ncols, field)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [None] * ncols
        v[free] = 0
        for i, col in enumerate(pivots):
            v[col] = field.k_neg(R[i][free])
        basis.append(field.from_ks(v))
    return basis


def left_null_space(rows, field: FieldDesc):
    """Basis of {v : v * rows = 0}."""
    return null_space(mat_transpose(rows), field) if rows else []


def solve_linear(rows, rhs, field: FieldDesc):
    """One solution of the (possibly non-square) system rows * x = rhs.

    Returns a list of FFElem with free variables set to zero, or None when the
    system is inconsistent. Deterministic column-order pivoting.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    rhs = field.to_ks(rhs)
    R = [field.to_ks(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _rref(R, ncols, field)
    if any(row[ncols] is not None for row in R[len(pivots):]):
        return None
    x = [None] * ncols
    for i, col in enumerate(pivots):
        x[col] = R[i][ncols]
    return field.from_ks(x)
