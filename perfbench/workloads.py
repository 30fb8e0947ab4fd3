"""Workload definitions and the seeded input generator.

A workload is an ordered list of operations; each operation is the argv of
one ``dwork-forge`` invocation. The seed only chooses inputs (points, the
unitary Gram matrix, the selftest seed); the program sees nothing but the
generated argv.
"""

from __future__ import annotations

import random

UNITARY_Q = 7
UNITARY_DIM = 4


# -- F_49 = F_7[i]/(i^2 + 1), the field dwork-forge builds for q = 7 ---------
# dwork-forge picks the lexicographically first monic irreducible quadratic
# over F_7, which is x^2 + 1 because -1 is not a square mod 7. The pair [a, b]
# on the command line means a + b*i. The generator does its own arithmetic so
# that it never asks the program under test which matrices are valid.

def _f49_mul(x, y):
    p = UNITARY_Q
    return ((x[0] * y[0] - x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def _f49_add(x, y):
    return ((x[0] + y[0]) % UNITARY_Q, (x[1] + y[1]) % UNITARY_Q)


def _f49_neg(x):
    return ((-x[0]) % UNITARY_Q, (-x[1]) % UNITARY_Q)


def _f49_conj(x):
    """The Frobenius x -> x^7, which sends i to -i."""
    return (x[0], (-x[1]) % UNITARY_Q)


def _f49_inv(x):
    # 1/(a+bi) = (a-bi)/(a^2+b^2), and a^2+b^2 is in F_7
    norm = (x[0] * x[0] + x[1] * x[1]) % UNITARY_Q
    c = pow(norm, -1, UNITARY_Q)
    return _f49_mul(_f49_conj(x), (c, 0))


def f49_det(A):
    """Determinant over F_49 by Gaussian elimination."""
    M = [row[:] for row in A]
    n = len(M)
    det = (1, 0)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != (0, 0)), None)
        if piv is None:
            return (0, 0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = _f49_neg(det)
        det = _f49_mul(det, M[col][col])
        inv = _f49_inv(M[col][col])
        for r in range(col + 1, n):
            c = _f49_mul(M[r][col], inv)
            if c != (0, 0):
                M[r] = [_f49_add(a, _f49_neg(_f49_mul(c, b)))
                        for a, b in zip(M[r], M[col])]
    return det


def f49_matmul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = (0, 0)
            for t in range(k):
                acc = _f49_add(acc, _f49_mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


def f49_adjoint(M):
    return [[_f49_conj(M[j][i]) for j in range(len(M))] for i in range(len(M[0]))]


def hermitian_gram(rng):
    """A = M + M^dagger over F_49 with det(A) != 0, as [a, b] pairs."""
    n = UNITARY_DIM
    while True:
        M = [[(rng.randrange(UNITARY_Q), rng.randrange(UNITARY_Q))
              for _ in range(n)] for _ in range(n)]
        A = [[_f49_add(x, y) for x, y in zip(r1, r2)]
             for r1, r2 in zip(M, f49_adjoint(M))]
        if f49_det(A) != (0, 0):
            return [[list(v) for v in row] for row in A]


def _matrix_arg(A):
    return "[" + ",".join("[" + ",".join(f"[{a},{b}]" for a, b in row) + "]"
                          for row in A) + "]"


# -- operations --------------------------------------------------------------

def _hg(cmd, N, n, q, **kw):
    argv = [cmd, "--N", str(N), "--n", str(n), "--q", str(q)]
    for k, v in kw.items():
        argv += [f"--{k}", str(v)]
    return argv


def operations(workload, seed):
    """The operations of one pass of ``workload`` for ``seed``, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        # Full-point scans whose extension fields stay below FAST_SCAN_LIMIT,
        # so the cyclic convolution dominates; (5, 2, 251) is left out because
        # it is one 9 s operation that cannot repeat within a run. Two
        # seeded single-point queries keep the naive fallback measured: the
        # d=2 trace field F_331^2 of hg-charpoly is above the limit, and
        # hg-trace at F_262147 builds the largest field tables. A point
        # encoding in [2, q-1] is neither 0 nor 1.
        return [
            _hg("hg-scan", 11, 3, 23, l=23),
            _hg("hg-scan", 3, 2, 151, l=7),
            ["ordinary-scan", "--N", "11", "--n", "3", "--l", "23", "--d", "2"],
            ["ordinary-scan", "--N", "3", "--n", "2", "--l", "7", "--d", "2"],
            _hg("hg-charpoly", 3, 2, 331, x=rng.randint(2, 330), l=7),
            _hg("hg-trace", 3, 2, 262147, x=rng.randint(2, 262146)),
        ]
    if workload == "algebra":
        # Small fields, no traces: FFElem arithmetic through linalg dominates.
        return [
            ["breuil-generic", "--p", "7", "--e", "3", "--f", "1"],
            ["breuil-generic", "--p", "3", "--e", "2", "--f", "2"],
            ["breuil-oracle", "--p", "5", "--e", "2", "--f", "1",
             "--s", "1", "--t", "4", "--y", "0:1"],
            ["breuil-chain", "--d", "5", "--e", "2", "--f", "2"],
            ["unitary-sym", "--p", "61", "--beta", "2", "--n", "3", "--m", "7"],
            ["unitary-sym", "--p", "41", "--beta", "3", "--n", "2", "--m", "8"],
            ["unitary-normalize", "--q", str(UNITARY_Q),
             "--matrix", _matrix_arg(hermitian_gram(rng))],
        ]
    if workload == "selftest":
        # The acceptance gate; its determinism rerun re-reads in-process caches.
        return [["selftest", "--seed", str(rng.randrange(1000))]]
    raise KeyError(workload)
