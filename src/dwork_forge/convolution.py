"""Cyclic convolution of nonnegative integer arrays, certified exact.

The trace scan works in the group ring Z[C_L x C_N] (L = q-1 indexed by
discrete logs, N indexed by zeta-exponents, N | L). conv2d_cyclic computes
the product with a floating-point 2-D FFT (numpy's pocketfft) and rounds, and
returns the rounded result only when four checks pass:

1. an a-priori bound on the float error, Percival's bound for FFT
   multiplication (Percival 2003, "Rapid multiplication modulo the sum and
   difference of highly composite numbers"), is below 1/2;
2. every computed entry lies within ROUND_LIMIT of an integer;
3. every entry lies in [0, min(sum(a) max(b), sum(b) max(a))], the a-priori
   bound on the product's entries, and the total mass is exact:
   sum(c) = sum(a) * sum(b), summed in int64 while L N times that bound is
   below 2^63 and in Python ints above it;
4. c(w, z) = a(w, z) * b(w, z) mod a prime P = 1 (mod lcm(L, N)), at fixed
   roots of unity w, z of exact orders L and N: the exact image of the
   product under the ring map Z[C_L x C_N] -> F_P.

The certified product is returned as an int64 array. Otherwise the product
is recomputed by the exact engine, Kronecker substitution into one big
integer: entry (i, j) is packed at bit offset B*(i*W + j) with W = 2N-1 so
column sums never bleed into the next row block; one big-int multiplication
yields the 2-D acyclic convolution, which is folded cyclically in both axes.
B is chosen from the actual value bounds (rounded to whole bytes so unpacking
is byte slicing).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

from .ff import _is_prime, _prime_factors
from .util import row_blocks

ROUND_LIMIT = 1 / 64
MAX_CHECK_ORDER = 1 << 20      # keeps P < 2^31, so products mod P fit in int64
_EPS = 2.0 ** -53
_EXACT_FLOAT = 1 << 53


def _pack(mat, B, W):
    step = B // 8
    buf = bytearray(step * len(mat) * W)
    pos = 0
    for row in mat:
        for v in row:
            if v:
                buf[pos:pos + step] = v.to_bytes(step, "little")
            pos += step
        pos += step * (W - len(row))
    return int.from_bytes(buf, "little")


def conv2d_kronecker(a, b, L, N):
    """The exact engine: Kronecker substitution and one big-int product."""
    max_a = max((max(row) for row in a), default=0)
    max_b = max((max(row) for row in b), default=0)
    if max_a == 0 or max_b == 0:
        return [[0] * N for _ in range(L)]
    sum_a = sum(map(sum, a))
    sum_b = sum(map(sum, b))
    bound = min(sum_a * max_b, sum_b * max_a)
    B = ((bound.bit_length() + 2 + 7) // 8) * 8
    W = 2 * N - 1
    prod = _pack(a, B, W) * _pack(b, B, W)
    step = B // 8
    nrows = 2 * L - 1
    raw = prod.to_bytes(step * (nrows * W + 1), "little")
    out = [[0] * N for _ in range(L)]
    for i in range(nrows):
        orow = out[i % L]
        base = i * W * step
        for j in range(W):
            off = base + j * step
            v = int.from_bytes(raw[off:off + step], "little")
            if v:
                orow[j % N] += v
    return out


def fft_error_bound(norm_a, norm_b, size):
    """Percival's bound on the max error of an FFT product of length size.

    norm_a, norm_b bound the Euclidean norms of the inputs. The transform
    depth is taken at 4 * size, which covers the padding of a Bluestein step
    for lengths with a large prime factor; twiddle factors are assumed
    correct to within one unit in the last place.
    """
    n = (4 * size).bit_length()
    growth = math.expm1(6 * n * math.log1p(_EPS)
                        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)))
    return norm_a * norm_b * growth


def _root_of_unity(order, P):
    """The first base^((P-1)/order) mod P of exact multiplicative order."""
    factors = _prime_factors(order)
    return next(w for w in (pow(base, (P - 1) // order, P) for base in range(2, P))
                if all(pow(w, order // r, P) != 1 for r in factors))


@lru_cache(maxsize=None)
def _check_point(L, N):
    """(P, [w^i], [z^j]) with P the first prime = 1 (mod lcm(L, N)) above
    2^30, and w, z roots of unity mod P of exact orders L and N."""
    m = math.lcm(L, N)
    P = ((1 << 30) // m + 1) * m + 1
    while not _is_prime(P):
        P += m
    if P >= 1 << 31:
        raise OverflowError(f"check prime {P} for L = {L}, N = {N} is not below "
                            "2^31, so products mod P would overflow int64")
    return P, _powers(_root_of_unity(L, P), L, P), _powers(_root_of_unity(N, P), N, P)


def _powers(w, n, P):
    """[w^0, ..., w^(n-1)] mod P as an int64 array, in sqrt(n) blocks."""
    import numpy as np
    B = math.isqrt(n - 1) + 1
    small = [1] * B
    for i in range(1, B):
        small[i] = small[i - 1] * w % P
    wB = small[-1] * w % P
    big = [1] * -(-n // B)
    for i in range(1, len(big)):
        big[i] = big[i - 1] * wB % P
    table = np.outer(np.array(big, dtype=np.int64), np.array(small, dtype=np.int64))
    return (table % P).ravel()[:n]


def _evaluate(M, L, N):
    """sum M[i, j] w^i z^j mod P, for an (L, N) array of nonnegative integers
    held as int64 or as exact float64, one block of rows at a time."""
    import numpy as np
    P, wp, zp = _check_point(L, N)
    acc = 0
    for blk in row_blocks(L, N):
        T = M[blk].astype(np.int64)
        T %= P
        T *= zp
        T %= P
        rows = T.sum(axis=1) % P
        acc += int((rows * wp[blk] % P).sum())
    return acc % P


def _parse(rows, N):
    """A block of list rows of N entries as int64; OverflowError at 2^63."""
    import numpy as np
    return np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                       count=len(rows) * N).reshape(len(rows), N)


def _max_and_sum(a, L, N):
    """(max, sum) of a list-of-rows input from _parse, one block of rows at
    a time, summed in Python ints where an int64 sum could pass 2^63."""
    top = total = 0
    for blk in row_blocks(L, N):
        T = _parse(a[blk], N)
        m = int(T.max())
        top = max(top, m)
        total += int(T.sum() if m * T.size < 1 << 63 else T.sum(dtype=object))
    return top, total


def _spectrum(a, L, N):
    """(the check-point value, the real FFT of each row) of a list-of-rows
    input whose entries are below 2^53, so that its float64 copy is exact.

    The input is copied into an L x 2H float64 buffer, H = N // 2 + 1, and
    each block of rows is transformed over itself, so the L x H complex
    result takes the input's own buffer.
    """
    import numpy as np
    H = N // 2 + 1
    buf = np.empty((L, 2 * H))
    A = buf[:, :N]
    for blk in row_blocks(L, N):
        A[blk] = _parse(a[blk], N)
    value = _evaluate(A, L, N)
    S = buf.view(np.complex128)
    for blk in row_blocks(L, N):
        S[blk] = np.fft.rfft(A[blk], axis=1)
    return value, S


def _conv2d_fft(a, b, L, N):
    """The rounded FFT product as an int64 array, or None when it is not
    certified exact.

    Each input's row transforms are taken in its own buffer (see _spectrum).
    a's columns are transformed one at a time over themselves, b's one at a
    time into a temporary that is multiplied into a's, and the inverse runs
    column by column in place, so the product takes a's buffer and at most
    two spectra are live. The inverse is rounded, measured and written as
    int64 one block of rows at a time.
    """
    if math.lcm(L, N) > MAX_CHECK_ORDER:
        return None
    try:
        (max_a, sum_a), (max_b, sum_b) = (_max_and_sum(x, L, N) for x in (a, b))
    except OverflowError:
        return None        # an entry of 2^63 or more: the exact engine
    if not max_a or not max_b:
        return None        # a zero factor: the exact engine returns zeros
    bound = min(sum_a * max_b, sum_b * max_a)    # bounds every product entry
    if bound >= _EXACT_FLOAT:
        return None        # some entry of the product may not be a float
    # sum v^2 <= max v * sum v bounds the Euclidean norms exactly
    if fft_error_bound(math.sqrt(max_a * sum_a), math.sqrt(max_b * sum_b), L * N) >= 0.5:
        return None
    import numpy as np
    P = _check_point(L, N)[0]
    ev_a, C = _spectrum(a, L, N)
    for j in range(C.shape[1]):
        C[:, j] = np.fft.fft(C[:, j])
    ev_b, S = _spectrum(b, L, N)
    for j in range(C.shape[1]):
        C[:, j] *= np.fft.fft(S[:, j])
    del S
    for j in range(C.shape[1]):
        C[:, j] = np.fft.ifft(C[:, j])
    R = np.empty((L, N), dtype=np.int64)
    for blk in row_blocks(L, N):
        X = np.fft.irfft(C[blk], n=N, axis=1)
        Y = np.rint(X)
        if not Y.min() >= 0 or not Y.max() <= bound:
            return None
        X -= Y
        np.abs(X, out=X)
        if not X.max() <= ROUND_LIMIT:     # a NaN fails too
            return None
        R[blk] = Y
    del C
    if _evaluate(R, L, N) != ev_a * ev_b % P:
        return None
    # entries in [0, bound] keep an int64 sum exact below 2^63
    mass = R.sum() if L * N * bound < 1 << 63 else R.sum(dtype=object)
    if int(mass) != sum_a * sum_b:
        return None
    return R


def conv2d_cyclic(a, b, L, N):
    """Cyclic convolution over (Z/L) x (Z/N) of two L x N count matrices.

    The inputs are lists of L rows of N nonnegative Python ints, so every
    bound is computed exactly. Rows may be shared objects (a character's
    indicator holds N + 1 distinct rows): neither engine writes to its
    inputs. The result is an L x N numpy array, exact
    whichever engine made it: int64, or object (Python ints) when the exact
    engine produced an entry of 2^63 or more.
    """
    if len(a) != L or len(b) != L:
        raise ValueError(f"conv2d_cyclic of {L} x {N} arrays got {len(a)} and "
                         f"{len(b)} rows")
    out = _conv2d_fft(a, b, L, N)
    if out is None:
        import numpy as np
        out = conv2d_kronecker(a, b, L, N)
        big = max(map(max, out)) >= 1 << 63
        out = np.array(out, dtype=object if big else np.int64)
    return out
