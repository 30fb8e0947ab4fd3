"""Frobenius data of the rank-n hypergeometric sheaf on P^1 - {0,1,oo}.

The trace at x in k (q = #k, N | q-1) is the character sum

    (-1)^(n-1) * sum_{x_1*...*x_n = x} prod_i chi_{m_i}(1 - x_i),

with chi_m(0) = 0 and m_1,...,m_n the exponent set of the datum. trace_naive
evaluates the sum literally (it is the oracle). The fast engines index by
discrete logs and share one cached prefix per (datum, field): the character
rows f_i(y) = chi_{m_i}(1-y), from one vectorized Zech-table lookup, and the
product of the first n-1 of them in the group ring Z[C_{q-1} x C_N], made by
n-2 cyclic convolutions. Each convolution is a floating-point FFT that is
certified exact or else recomputed by the exact Kronecker engine (see
convolution.py). trace_all_fast multiplies the prefix by the last factor for
the whole map at once and keeps the product, an L x N array of
zeta-exponent counts with one row per dlog, as a TraceMap: a point's value
in Z[zeta_N] is made only when it is read, and ordinarity reduces the rows
mod lambda without making any. The prefix and the map are functools LRU
caches of the FAST_CACHE_SIZE most recently used (datum, field) pairs.
trace_at evaluates the last factor at one point only, with integer gathers.
Characteristic polynomials take the trace over k from the full map's row
at dlog x and the traces over F_{q^d}, d = 2..n, from trace_at at the
embedded point, and combine them via Newton's identities with exact
division, into a frozen CharPolyRecord. The purity, determinant and
Newton-polygon checks are functions of the record's polynomial: they return
their verdicts (a bool, a DetReport, the slopes) for the expected weight
n-1, determinant q^(n(n-1)/2) and slope structure, and write nothing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from .convolution import conv2d_cyclic
from .cyclotomic import CyclotomicInt
from .ff import (TABLE_LIMIT, FFElem, FieldDesc, TooLarge, _anchor_inverse, embed,
                 extension_of)
from .lambda_adic import LambdaPrime, val_lambda
from .util import SCHEMA_VERSION, VerificationFailed, check, row_blocks


class BadPoint(ValueError):
    """Trace requested at x in {0, 1}."""


class NoSumZeroSet(ValueError):
    pass


class RootFindingFailed(VerificationFailed):
    pass


@dataclass(frozen=True)
class HGParams:
    N: int
    n: int
    rho_exponents: tuple

    def __post_init__(self):
        R = self.rho_exponents
        if len(R) != self.n or len(set(R)) != self.n:
            raise ValueError("exponent set must have n distinct elements")
        if any(m % self.N == 0 or not 0 < m < self.N for m in R):
            raise ValueError("exponents must be nonzero residues mod N")

    @property
    def sum_zero(self):
        return sum(self.rho_exponents) % self.N == 0

    @property
    def trivial_stabilizer(self):
        """No m != 1 in (Z/N)^x with m R = R."""
        N, R = self.N, self.rho_exponents
        Rset = set(R)
        return not any(gcd(m, N) == 1 and {m * r % N for r in R} == Rset
                       for m in range(2, N))


def hg_params(N, n, R) -> HGParams:
    if N < 1:
        raise ValueError(f"N = {N} must be positive")
    if N >= TABLE_LIMIT:    # N | q - 1 needs a field past the table limit
        raise TooLarge(f"N = {N} exceeds table limit {TABLE_LIMIT}")
    return HGParams(N, n, tuple(sorted(r % N for r in R)))


def check_chi(N, n):
    """The refusals of select_chi that need no search.

    With N odd, N > n and gcd(N, n) = 1, a sum-zero n-subset of the nonzero
    residues mod N exists unless n = 1 or n = N - 2: pairs {r, N - r} make
    every even n <= N - 1, and {1, 2, N - 3} and (n - 3)/2 pairs from
    4..(N-1)/2 every odd 3 <= n <= N - 4. The nonzero residues sum to 0, so
    an (N - 2)-subset sums to 0 exactly when its complement, a single
    nonzero residue, does.
    """
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    if N % 2 == 0 or N <= n or gcd(N, n) != 1:
        raise ValueError("need N odd, N > n, gcd(N, n) = 1")
    if N >= TABLE_LIMIT:    # N | q - 1 needs a field past the table limit
        raise TooLarge(f"N = {N} exceeds table limit {TABLE_LIMIT}")
    if n in (1, N - 2):
        raise NoSumZeroSet(f"no sum-zero {n}-subset mod {N}")


def select_chi(N, n) -> HGParams:
    """Lexicographically first sum-zero exponent set, preferring a trivial
    stabilizer in Gal(Q(zeta_N)/Q); falls back (with the flag cleared) when
    every sum-zero set is stabilized, which is unavoidable for n = 2."""
    check_chi(N, n)
    if n == 2:    # -1 stabilizes every pair {r, -r}: the first is the fallback
        return HGParams(N, 2, (1, N - 1))
    fallback = None
    for R in combinations(range(1, N), n):
        if sum(R) % N != 0:
            continue
        params = HGParams(N, n, R)
        if params.trivial_stabilizer:
            return params
        if fallback is None:
            fallback = params
    return fallback    # check_chi leaves only n with a sum-zero set


# ---------------------------------------------------------------------------
# traces

def _char_rows(params: HGParams, k: FieldDesc):
    """Per-character tables: row[dlog y] = zeta-exponent of chi(1 - y), or -1
    at y = 1, in the smallest signed integer dtype that holds -N.

    1 - g^i = 1 + g^(i + (q-1)/2) (p odd; 1 + g^i when p = 2), so the dlog
    of 1 - g^i is one Zech lookup, and chi_m(g^d) = zeta_N^(m d j^-1). The
    Zech table is read one block of rows at a time, so the temporaries stay
    small beside the rows kept.
    """
    import numpy as np
    N, L = params.N, k.q - 1
    shift = 0 if k.p == 2 else L // 2
    zech = k.zech_array()
    jinv = _anchor_inverse(k, N)
    dtype = np.min_scalar_type(-N)
    tables = [(np.arange(N) * (m * jinv % N) % N).astype(dtype)
              for m in params.rho_exponents]
    rows = [np.empty(L, dtype=dtype) for _ in tables]
    for blk in row_blocks(L):
        d = np.arange(blk.start + shift, min(blk.stop, L) + shift)
        d %= L
        d[:] = zech[d]      # dlog(1 - g^i), -1 at i = 0; indices stay intp
        undefined = d < 0
        d %= N
        for row, table in zip(rows, tables):
            out = row[blk]
            out[:] = table[d]
            out[undefined] = -1
        del d, undefined    # freed before the next block's are made
    return rows


def trace_naive(params: HGParams, k: FieldDesc, x: FFElem) -> CyclotomicInt:
    """The literal character sum at one point; this is the oracle."""
    if x.is_zero() or x == k.one():
        raise BadPoint("trace is defined on k minus {0, 1}")
    N, n = params.N, params.n
    L = k.q - 1
    rows = [row.tolist() for row in _char_rows(params, k)]
    counts = [0] * N
    dx = k.dlog(x)

    def rec(depth, ksum, esum):
        if depth == n - 1:
            last = rows[depth][(dx - ksum) % L]
            if last >= 0:
                counts[(esum + last) % N] += 1
            return
        row = rows[depth]
        for kk in range(L):
            e = row[kk]
            if e >= 0:
                rec(depth + 1, ksum + kk, esum + e)

    rec(0, 0, 0)
    value = CyclotomicInt.from_zeta_counts(N, counts)
    if (n - 1) % 2:
        value = -value
    return value


FAST_CACHE_SIZE = 8    # (params, field) pairs kept by _prefix and trace_all_fast


def _indicator(row, N):
    """The L x N 0/1 matrix of a row, 1 at (j, row[j]) where row[j] >= 0, as
    L references into N + 1 shared one-hot lists, the all-zero one last so
    that an undefined entry (-1) indexes it. The lists are read, never written."""
    onehot = [[0] * N for _ in range(N + 1)]
    for e in range(N):
        onehot[e][e] = 1
    return [onehot[e] for e in row.tolist()]


@lru_cache(maxsize=FAST_CACHE_SIZE)
def _prefix(params: HGParams, k: FieldDesc):
    """(rows, prefix): the character rows and the first n - 1 factors' product.

    The product counts the tuples (y_1, ..., y_{n-1}) by (dlog of
    y_1...y_{n-1}, zeta-exponent of chi_{m_1}(1 - y_1)...). For n >= 3 it is
    an L x N array made by n - 2 certified convolutions and kept as the last
    one returns it: int64, or Python ints where a readout's L^(n-1) counts
    could pass 2^63. For n <= 2 it has at most one count per dlog and is kept
    as a row, like a character row: the first row itself for n = 2, and for
    n = 1 the empty product (exponent 0 at dlog 0, undefined elsewhere). The
    FAST_CACHE_SIZE most recently used pairs are cached.
    """
    import numpy as np
    N, n, L = params.N, params.n, k.q - 1
    rows = _char_rows(params, k)
    if n == 1:
        prefix = np.full(L, -1, dtype=rows[0].dtype)
        prefix[0] = 0
    elif n == 2:
        prefix = rows[0]
    else:
        C = conv2d_cyclic(_indicator(rows[0], N), _indicator(rows[1], N), L, N)
        for row in rows[2:-1]:
            C = conv2d_cyclic(C.tolist(), _indicator(row, N), L, N)
        # a readout adds up at most L^(n-1) counts
        prefix = C if L ** (n - 1) < 1 << 63 else C.astype(object)
    return rows, prefix


def _trace_value(params: HGParams, counts) -> CyclotomicInt:
    """(-1)^(n-1) sum_z counts[z] zeta_N^z, from one row of zeta-exponent counts."""
    value = CyclotomicInt.from_zeta_counts(params.N, counts.tolist())
    return -value if (params.n - 1) % 2 else value


def trace_at(params: HGParams, k: FieldDesc, x: FFElem) -> CyclotomicInt:
    """The trace at one point, read off the cached prefix (see _prefix).

    Only the last factor is evaluated, at dlog x alone: r[j] = last row at
    (dlog x - j) mod L, i.e. the last row reversed and rolled to dlog x. A
    row prefix gives the zeta-exponent counts as a bincount of
    prefix[j] + r[j] over the j where both are defined; an array prefix C as
    sum_j C[j, (z - r[j]) mod N] over the j where r[j] is. Both run a block
    of rows at a time, so their temporaries stay small. Integer arithmetic
    throughout, so the value is exact.
    """
    if x.is_zero() or x == k.one():
        raise BadPoint("trace is defined on k minus {0, 1}")
    import numpy as np
    N = params.N
    rows, prefix = _prefix(params, k)
    r = np.roll(rows[-1][::-1], k.dlog(x) + 1)
    counts = np.zeros(N, dtype=np.int64 if prefix.ndim == 1 else prefix.dtype)
    if prefix.ndim == 1:
        etype = np.min_scalar_type(-2 * N)
        for blk in row_blocks(len(r)):
            pb, rb = prefix[blk], r[blk]
            e = np.add(pb, rb, dtype=etype)
            e %= N
            counts += np.bincount(e[(pb >= 0) & (rb >= 0)], minlength=N)
    else:
        z = np.arange(N)
        shift = (z - z[:, None]) % N            # shift[s, z] = (z - s) mod N
        flat = prefix.ravel()
        for blk in row_blocks(len(r), N):
            j = np.flatnonzero(r[blk] >= 0) + blk.start
            idx = shift[r[j]]                   # one row per j, read at r[j]
            idx += (j * N)[:, None]
            counts += flat.take(idx).sum(axis=0)
    return _trace_value(params, counts)


class TraceMap(Mapping):
    """The read-only map x -> trace over k - {0, 1} of one (params, field).

    It holds the L x N array of zeta-exponent counts that the convolution
    returns (row j counts the terms at dlog j, row 0 is x = 1) and makes a
    point's CyclotomicInt only when it is read. Keys are the points of k (of
    any tower copy of it) and iterate in dlog order 1..q-2.
    """

    __slots__ = ("params", "field", "counts")

    def __init__(self, params: HGParams, field: FieldDesc, counts):
        self.params, self.field, self.counts = params, field, counts

    def __getitem__(self, x):
        if (not isinstance(x, FFElem) or x.field._pow is not self.field._pow
                or not x.k):    # x = 0 (k None) and x = 1 (k 0) have no trace
            raise KeyError(x)
        return _trace_value(self.params, self.counts[x.k])

    def __iter__(self):
        return map(self.field.from_dlog, range(1, self.field.q - 1))

    def __len__(self):
        return self.field.q - 2


@lru_cache(maxsize=FAST_CACHE_SIZE)
def trace_all_fast(params: HGParams, k: FieldDesc) -> TraceMap:
    """The trace at every x in k - {0,1}, by exact convolution: the cached
    prefix times the last factor's matrix, kept as its count array (see
    TraceMap); agrees with trace_naive pointwise (tested).

    The FAST_CACHE_SIZE most recently used (params, field) pairs are cached,
    and a cache hit returns the same map. The key holds the field itself,
    and a field hashes by identity, so a cached entry can never be read back
    for a different field, a tower copy of the same one included.
    """
    N, L = params.N, k.q - 1
    rows, prefix = _prefix(params, k)
    first = _indicator(prefix, N) if prefix.ndim == 1 else prefix.tolist()
    counts = conv2d_cyclic(first, _indicator(rows[-1], N), L, N)
    return TraceMap(params, k, counts)


# ---------------------------------------------------------------------------
# characteristic polynomials

@dataclass(frozen=True)
class CharPolyRecord:
    """What char_poly computed at one point. The checks below read it and
    return their verdicts; none of them writes it."""
    params: HGParams
    q: int
    field: FieldDesc
    x: FFElem
    traces: tuple          # tr Frob^d, d = 1..n
    coeffs: tuple          # det(X - Frob) ascending: coeffs[j] multiplies X^j

    @property
    def x_dlog(self):
        return self.field.dlog(self.x)

    def to_json_dict(self, slopes, checks):
        """The record's JSON dict, with the caller's slopes (or None) and checks."""
        return {
            "schema_version": SCHEMA_VERSION,
            "N": self.params.N,
            "n": self.params.n,
            "R": list(self.params.rho_exponents),
            "q": self.q,
            "x_dlog": self.x_dlog,
            "traces": [list(t.coeffs) for t in self.traces],
            "coeffs": [list(c.coeffs) for c in self.coeffs],
            "slopes": None if slopes is None
            else [f"{s.numerator}/{s.denominator}" for s in slopes],
            "checks": checks,
        }


def newton_coeffs_from_traces(traces, N, n):
    """Elementary symmetric functions from power sums; exact division checked."""
    e = [CyclotomicInt.one(N)]
    for k in range(1, n + 1):
        acc = CyclotomicInt.zero(N)
        sign = 1
        for i in range(1, k + 1):
            term = e[k - i] * traces[i - 1]
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        e.append(acc.exact_div_int(k))
    return e


def traces_from_newton_coeffs(e, N, n):
    """Inverse Newton recurrence (round-trip check)."""
    p = []
    for k in range(1, n + 1):
        acc = CyclotomicInt.zero(N)
        sign = 1
        for i in range(1, k):
            term = e[i] * p[k - i - 1]
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        ke = e[k] * k
        p.append(acc + ke if sign > 0 else acc - ke)
    return p


def char_poly(params: HGParams, k: FieldDesc, x: FFElem) -> CharPolyRecord:
    """det(X - Frob_x) from traces over F_{q^d}, d = 1..n: the d = 1 trace
    from the full map of k, the others read at the embedded x alone."""
    if x.is_zero() or x == k.one():
        raise BadPoint("char_poly is defined on k minus {0, 1}")
    N, n = params.N, params.n
    extensions = [extension_of(k, dd) for dd in range(2, n + 1)]
    traces = (trace_all_fast(params, k)[x],) + tuple(
        trace_at(params, E, embed(x, E)) for E in extensions)
    e = newton_coeffs_from_traces(traces, N, n)
    check(tuple(traces_from_newton_coeffs(e, N, n)) == traces,
          "Newton identity round trip failed")
    coeffs = [None] * (n + 1)
    for kk in range(n + 1):
        c = e[kk] if kk % 2 == 0 else -e[kk]
        coeffs[n - kk] = c
    return CharPolyRecord(params, k.q, k, x, traces, tuple(coeffs))


# ---------------------------------------------------------------------------
# polygon / determinant / purity checks

def newton_polygon(rec: CharPolyRecord, lam: LambdaPrime) -> tuple:
    """Normalized lambda-adic Newton slopes of the record, nondecreasing.

    Slopes are the root valuations (lower convex hull of (i, val(coeff_i))),
    divided by [k : F_l] when the point field k has characteristic l.
    """
    vals = [val_lambda(c, lam) for c in rec.coeffs]
    check(vals[-1] == 0, "polynomial must be monic")
    check(not rec.coeffs[0].is_zero(), "zero constant term has no finite polygon")
    pts = [(i, v) for i, v in enumerate(vals) if v != float("inf")]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    m = rec.field.f if rec.field.p == lam.l else 1
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y1 - y2, x2 - x1) / m
        slopes.extend([s] * (x2 - x1))
    slopes.sort()
    return tuple(slopes)


TOL = 1e-6   # relative tolerance of the floating-point |.| comparisons


@dataclass
class DetReport:
    skipped: bool
    abs_ok: bool
    sign: int | None
    expected: int

    @property
    def passed(self):
        return self.skipped or (self.abs_ok and self.sign is not None)


def verify_det(rec: CharPolyRecord) -> DetReport:
    """|const term|^2 = q^(n(n-1)) in every embedding, and the exact signed
    identity prod(eigenvalues) = sign * q^(n(n-1)/2). Complex conjugation
    commutes with every embedding of the CM field Q(zeta_N), so the modulus
    holds in all of them exactly when c0 * conj(c0) = q^(n(n-1)) in
    Z[zeta_N]. Non-sum-zero exponent sets are skipped (the determinant
    formula needs prod rho_i = 1)."""
    n = rec.params.n
    expected = rec.q ** (n * (n - 1) // 2)
    if not rec.params.sum_zero:
        return DetReport(True, False, None, expected)
    c0 = rec.coeffs[0]
    eig_prod = c0 if n % 2 == 0 else -c0
    if eig_prod == CyclotomicInt.from_int(rec.params.N, expected):
        sign = 1
    elif eig_prod == CyclotomicInt.from_int(rec.params.N, -expected):
        sign = -1
    else:
        sign = None
    abs_ok = c0 * c0.conj() == expected * expected
    return DetReport(False, abs_ok, sign, expected)


def verify_purity(rec: CharPolyRecord) -> bool:
    """Each complex root alpha satisfies |alpha|^2 = q^(n-1) within relative
    TOL."""
    import numpy as np
    n = rec.params.n
    coeffs = [c.embed_complex() for c in rec.coeffs]
    roots = np.roots(list(reversed(coeffs)))
    scale = max(abs(z) for z in coeffs) or 1.0
    for r in roots:
        val = 0j
        for c in reversed(coeffs):
            val = val * r + c
        if abs(val) > 1e-5 * scale * max(1.0, abs(r)) ** n:
            raise RootFindingFailed(
                f"root residual {abs(val):.3e} too big (scale {scale:.3e})")
    w = rec.q ** (n - 1)
    return all(abs(abs(r) ** 2 - w) <= TOL * w for r in roots)
