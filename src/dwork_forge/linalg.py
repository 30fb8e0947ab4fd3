"""Dense exact linear algebra over a FieldDesc (lists of FFElem rows)."""

from __future__ import annotations

from .ff import FFElem, FieldDesc


class SingularMatrix(ArithmeticError):
    pass


def mat_identity(field: FieldDesc, n: int):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    field = A[0][0].field
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = field.zero()
            for t in range(k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_scalar(c: FFElem, A):
    return [[c * x for x in row] for row in A]


def mat_eq(A, B):
    return all(x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def mat_vec(A, v):
    field = A[0][0].field
    return [sum((a * x for a, x in zip(row, v)), field.zero()) for row in A]


def det(A):
    n = len(A)
    field = A[0][0].field
    M = [row[:] for row in A]
    d = field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if not M[r][col].is_zero()), None)
        if piv is None:
            return field.zero()
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            d = -d
        d = d * M[col][col]
        inv = M[col][col].inv()
        for r in range(col + 1, n):
            if not M[r][col].is_zero():
                factor = M[r][col] * inv
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return d


def _rref(M, ncols):
    """Gauss-Jordan on the first ncols columns of M, in place.

    Pivots are taken in column order, each from the first row at or below
    the current one with a nonzero entry; pivot rows are scaled to 1 and
    their column cleared in every other row. Returns the pivot columns; row
    i of M holds pivot i, and rows past the last pivot are zero in the first
    ncols columns.
    """
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(M):
            break
        piv = next((i for i in range(r, len(M)) if not M[i][col].is_zero()), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][col].inv()
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and not M[i][col].is_zero():
                factor = M[i][col]
                M[i] = [x - factor * y for x, y in zip(M[i], M[r])]
        pivots.append(col)
        r += 1
    return pivots


def mat_inv(A):
    n = len(A)
    field = A[0][0].field
    M = [row[:] + ident_row for row, ident_row in zip(A, mat_identity(field, n))]
    if len(_rref(M, n)) < n:
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in M]


def null_space(rows, field: FieldDesc):
    """Basis of {x : rows * x = 0}; deterministic free-variable order."""
    if not rows:
        return []
    ncols = len(rows[0])
    M = [row[:] for row in rows]
    pivots = _rref(M, ncols)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for i, col in enumerate(pivots):
            v[col] = -M[i][free]
        basis.append(v)
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
    M = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = _rref(M, ncols)
    if any(not row[ncols].is_zero() for row in M[len(pivots):]):
        return None
    x = [field.zero()] * ncols
    for i, col in enumerate(pivots):
        x[col] = M[i][ncols]
    return x
