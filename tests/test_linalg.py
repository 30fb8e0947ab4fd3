import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwork_forge.ff import IncompatibleFields, field_make
from dwork_forge.linalg import (SingularMatrix, _sparse, det,
                                mat_inv, mat_mul, null_space, solve_linear,
                                sparse_feasible, sparse_left_null_space,
                                sparse_solve, sparse_solve_columns)
from dwork_forge.unitary import _gram_ks, _pairing, char_poly_matrix, gu_fields


def mat_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def left_null_space(rows, field):
    """sparse_left_null_space of an FFElem matrix, as FFElem rows: the
    basis of {v : v * rows = 0}, empty when rows has no columns."""
    if not rows or not rows[0]:
        return []
    return [field.from_ks(v) for v in
            sparse_left_null_space(_sparse(rows, field), len(rows[0]), field)]


F = field_make(5, 1)

# F_2, F_5, F_{2^4}, F_{3^2} and the F_49 of the unitary group GU(F_7)
FIELDS = [field_make(2, 1), F, field_make(2, 4), field_make(3, 2),
          gu_fields(7)[1]]


# -- reference oracles: plain FFElem arithmetic, no dlog kernels ------------

def ref_mat_mul(A, B):
    field = A[0][0].field
    return [[sum((A[i][t] * B[t][j] for t in range(len(B))), field.zero())
             for j in range(len(B[0]))] for i in range(len(A))]


def ref_det(A):
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


def ref_rref(M, ncols):
    """Gauss-Jordan on FFElem rows, in place; returns the pivot columns."""
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


def ref_mat_inv(A):
    n = len(A)
    M = [row[:] + ident_row for row, ident_row in zip(A, mat_identity(A[0][0].field, n))]
    if len(ref_rref(M, n)) < n:
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in M]


def ref_null_space(rows, field):
    ncols = len(rows[0])
    M = [row[:] for row in rows]
    pivots = ref_rref(M, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for i, col in enumerate(pivots):
            v[col] = -M[i][free]
        basis.append(v)
    return basis


def ref_solve(rows, rhs, field):
    ncols = len(rows[0])
    M = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = ref_rref(M, ncols)
    if any(not row[ncols].is_zero() for row in M[len(pivots):]):
        return None
    x = [field.zero()] * ncols
    for i, col in enumerate(pivots):
        x[col] = M[i][ncols]
    return x


def ref_pairing(A, x, y, q):
    acc = A[0][0].field.zero()
    for i in range(len(A)):
        for j in range(len(A)):
            acc = acc + x[i] ** q * A[i][j] * y[j]
    return acc


def ref_char_poly(M):
    """det(X I - M) by cofactor expansion along the first row."""
    n = len(M)
    field = M[0][0].field
    mat = [[[-M[i][j], field.one() if i == j else field.zero()]
            for j in range(n)] for i in range(n)]

    def pmul(u, v):
        out = [field.zero()] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] = out[i + j] + ui * vj
        return out

    def padd(u, v, sign):
        L = max(len(u), len(v))
        u = u + [field.zero()] * (L - len(u))
        v = v + [field.zero()] * (L - len(v))
        return [x + y if sign > 0 else x - y for x, y in zip(u, v)]

    def minor_det(rows, cols):
        if len(rows) == 1:
            return mat[rows[0]][cols[0]]
        acc = [field.zero()]
        for idx, c in enumerate(cols):
            term = pmul(mat[rows[0]][c], minor_det(rows[1:], cols[:idx] + cols[idx + 1:]))
            acc = padd(acc, term, 1 if idx % 2 == 0 else -1)
        return acc

    out = minor_det(tuple(range(n)), tuple(range(n)))
    return out + [field.zero()] * (n + 1 - len(out))


# -- strategies --------------------------------------------------------------

@st.composite
def matrices(draw, square=False, max_dim=6):
    """(field, matrix) with zero-heavy entries and some forced zero rows and
    columns, so rank-deficient and inconsistent cases come up often."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max_dim))
    m = n if square else draw(st.integers(1, max_dim))
    entry = st.one_of(st.none(), st.integers(0, field.q - 2))
    ks = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                       min_size=n, max_size=n))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=2))
    return field, [[field.zero() if i in zero_rows or j in zero_cols
                    else field.from_dlog(k) if k is not None else field.zero()
                    for j, k in enumerate(row)] for i, row in enumerate(ks)]


@st.composite
def sparse_matrices(draw, square=False, max_dim=64):
    """(field, matrix) shaped like the Breuil systems: up to max_dim columns,
    at most three nonzero entries a row, and zero rows and repeated (scaled)
    rows among them; tall, wide or square. Unlike on matrices(), elimination
    fills in entries here. Half the square matrices hold every diagonal
    entry and no zero or repeated row, so large invertible ones come up."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, max_dim))
    nrows = ncols if square else draw(st.integers(1, max_dim + 8))
    dlog = st.integers(0, field.q - 2)
    full = square and draw(st.booleans())
    rows = []
    for i in range(nrows):
        kind = "sparse" if full else draw(
            st.sampled_from(["sparse"] * 3 + ["zero", "repeat"]))
        if kind == "zero":
            row = {}
        elif kind == "repeat" and rows:
            scale = draw(dlog)
            row = {j: (k + scale) % (field.q - 1)
                   for j, k in draw(st.sampled_from(rows)).items()}
        else:
            diagonal = full or (square and draw(st.booleans()))
            row = draw(st.dictionaries(st.integers(0, ncols - 1), dlog,
                                       max_size=2 if diagonal else 3))
            if diagonal:
                row[i] = draw(dlog)
        rows.append(row)
    return field, [[field.from_dlog(row[j]) if j in row else field.zero()
                    for j in range(ncols)] for row in rows]


def vector(draw, field, n):
    return [field.zero() if k is None else field.from_dlog(k)
            for k in draw(st.lists(st.one_of(st.none(), st.integers(0, field.q - 2)),
                                   min_size=n, max_size=n))]


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(), sparse_matrices()), st.data())
def test_solve_linear_matches_oracle(fm, data):
    field, A = fm
    x0 = vector(data.draw, field, len(A[0]))
    b = ref_mat_mul(A, [[x] for x in x0])
    b = [row[0] for row in b]
    random_rhs = data.draw(st.booleans())
    if random_rhs:
        b = vector(data.draw, field, len(A))   # usually inconsistent
    sol = solve_linear(A, b, field)
    assert sol == ref_solve(A, b, field)
    assert random_rhs or sol is not None
    if sol is not None:
        assert [row[0] for row in ref_mat_mul(A, [[x] for x in sol])] == b


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(), sparse_matrices()))
def test_null_spaces_match_oracle(fm):
    field, A = fm
    assert null_space(A, field) == ref_null_space(A, field)
    At = [list(col) for col in zip(*A)]
    assert left_null_space(A, field) == ref_null_space(At, field)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(square=True), sparse_matrices(square=True, max_dim=24)))
def test_det_and_inverse_match_oracle(fm):
    field, A = fm
    assert det(A) == ref_det(A)
    try:
        want = ref_mat_inv(A)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            mat_inv(A)
        assert det(A).is_zero()
    else:
        assert mat_inv(A) == want
        assert mat_mul(A, want) == mat_identity(field, len(A))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_mat_mul_matches_oracle(fm, data):
    field, A = fm
    k = data.draw(st.integers(1, 6))
    B = [vector(data.draw, field, k) for _ in A[0]]
    assert mat_mul(A, B) == ref_mat_mul(A, B)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True), st.data())
def test_pairing_matches_oracle(fm, data):
    field, A = fm
    x = vector(data.draw, field, len(A))
    y = vector(data.draw, field, len(A))
    q = data.draw(st.integers(1, field.q))
    assert _pairing(_gram_ks(A), x, y, q) == ref_pairing(A, x, y, q)


@settings(max_examples=120, deadline=None)
@given(matrices(square=True))
def test_char_poly_matches_cofactor_oracle(fm):
    field, M = fm
    cp = char_poly_matrix(M)
    assert cp == ref_char_poly(M)
    assert cp[-1] == field.one()
    # Cayley-Hamilton: sum_k c_k M^k = 0
    n = len(M)
    acc = [[field.zero()] * n for _ in range(n)]
    power = mat_identity(field, n)
    for c in cp:
        acc = [[a + c * p for a, p in zip(ra, rp)] for ra, rp in zip(acc, power)]
        power = ref_mat_mul(power, M)
    assert all(x.is_zero() for row in acc for x in row)


def test_char_poly_hessenberg_needs_swaps():
    # zero subdiagonal entries force the pivot search below the diagonal
    field = FIELDS[1]
    z, o = field.zero(), field.one()
    for M in ([[z, z, z], [z, z, o], [o, z, z]],
              [[o, z, z, z], [z, z, z, z], [z, z, z, o], [z, o, o, z]],
              [[z] * 4 for _ in range(4)]):
        assert char_poly_matrix(M) == ref_char_poly(M)


def test_mixed_fields_are_rejected():
    K, E = FIELDS[1], FIELDS[3]
    A = [[K.one(), K.zero()], [K.zero(), K.one()]]
    bad = [[K.one(), E.one()], [K.zero(), K.one()]]
    GA = _gram_ks(A)
    for call in (lambda: solve_linear(bad, [K.one(), K.one()], K),
                 lambda: solve_linear(A, [K.one(), E.one()], K),
                 lambda: solve_linear(A, [K.one(), K.one()], E),
                 lambda: null_space(bad, K),
                 lambda: left_null_space(bad, K),
                 lambda: mat_inv(bad),
                 lambda: det(bad),
                 lambda: mat_mul(A, bad),
                 lambda: mat_mul(bad, A),
                 lambda: _pairing(GA, [K.one(), E.one()], [K.one(), K.one()], 5),
                 lambda: _pairing(GA, [K.one(), K.one()], [E.one(), K.one()], 5),
                 lambda: _gram_ks(bad),
                 lambda: char_poly_matrix(bad),
                 lambda: det([[K.one(), 1], [K.zero(), K.one()]])):
        with pytest.raises(IncompatibleFields):
            call()


def rand_mat(rng, n, m=None):
    m = m or n
    return [[F.from_encoding(rng.randrange(5)) for _ in range(m)]
            for _ in range(n)]


def test_inverse_and_det():
    rng = random.Random(0)
    for _ in range(40):
        A = rand_mat(rng, 3)
        if det(A).is_zero():
            with pytest.raises(SingularMatrix):
                mat_inv(A)
            continue
        assert mat_mul(A, mat_inv(A)) == mat_identity(F, 3)


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(40):
        A, B = rand_mat(rng, 3), rand_mat(rng, 3)
        assert det(mat_mul(A, B)) == det(A) * det(B)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(2)
    for _ in range(40):
        A = rand_mat(rng, 4, 3)
        x = [F.from_encoding(rng.randrange(5)) for _ in range(3)]
        b = [sum((a * v for a, v in zip(row, x)), F.zero()) for row in A]
        sol = solve_linear(A, b, F)
        assert sol is not None
        again = [sum((a * v for a, v in zip(row, sol)), F.zero()) for row in A]
        assert again == b
    # inconsistent: 0 = 1
    A = [[F.zero()]]
    assert solve_linear(A, [F.one()], F) is None


def test_null_spaces():
    rng = random.Random(3)
    for _ in range(30):
        A = rand_mat(rng, 3, 5)
        for v in null_space(A, F):
            img = [sum((a * x for a, x in zip(row, v)), F.zero()) for row in A]
            assert all(y.is_zero() for y in img)
        for w in left_null_space(A, F):
            img = [sum((w[i] * A[i][j] for i in range(3)), F.zero())
                   for j in range(5)]
            assert all(y.is_zero() for y in img)
        # rank-nullity
        assert len(null_space(A, F)) == 5 - (3 - len(left_null_space(A, F)))


def random_sparse_system(rng, field, nrows, ncols, ncolumns):
    """Sparse dlog rows (one of them empty, one the sum of two others) and
    right-hand-side columns {row index: dlog}: consistent ones A x, the same
    with an entry at the empty row added (inconsistent), and a zero column."""
    L = field.q - 1
    rows = [{j: rng.randrange(L) for j in range(ncols) if rng.random() < 0.3}
            for _ in range(nrows - 2)]
    total = dict(rows[0])
    for j, k in rows[1].items():
        v = field.k_add(total.pop(j, None), k)
        if v is not None:
            total[j] = v
    rows += [{}, total]
    empty = nrows - 2
    columns = [{}]
    while len(columns) < ncolumns:
        x = [rng.randrange(L) if rng.random() < 0.6 else None
             for _ in range(ncols)]
        b = {}
        for i, row in enumerate(rows):
            acc = None
            for j, k in row.items():
                acc = field.k_add(acc, field.k_mul(k, x[j]))
            if acc is not None:
                b[i] = acc
        if rng.random() < 0.4:
            b[empty] = rng.randrange(L)
        columns.append(b)
    rng.shuffle(columns)
    return rows, columns


@pytest.mark.parametrize("field", [field_make(5, 1), field_make(3, 2),
                                   field_make(7, 2)], ids=["F5", "F9", "F49"])
def test_multi_column_solve_matches_one_column_solves(field):
    rng = random.Random(field.q)
    seen = Counter()
    for _ in range(30):
        nrows, ncols = rng.randint(4, 12), rng.randint(1, 12)
        rows, columns = random_sparse_system(rng, field, nrows, ncols,
                                             rng.randint(1, 6))
        before = [dict(row) for row in rows]
        dense = [field.from_ks([row.get(j) for j in range(ncols)])
                 for row in rows]
        sols = sparse_solve_columns(rows, columns, ncols, field)
        verdicts = sparse_feasible(rows, columns, ncols, field)
        assert rows == before                  # the inputs are left as they are
        for column, sol, ok in zip(columns, sols, verdicts):
            rhs = [column.get(i) for i in range(nrows)]
            assert sol == sparse_solve(rows, rhs, ncols, field)
            assert ok == (sol is not None)
            ref = ref_solve(dense, field.from_ks(rhs), field)
            assert (sol is None) == (ref is None)
            if sol is not None:
                assert field.from_ks(sol) == ref
            seen["zero" if not column else
                 "consistent" if ok else "inconsistent"] += 1
    assert min(seen[kind] for kind in ("zero", "consistent", "inconsistent")) > 5
