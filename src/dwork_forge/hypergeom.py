"""Frobenius data of the rank-n hypergeometric sheaf on P^1 - {0,1,oo}.

The trace at x in k (q = #k, N | q-1) is the character sum

    (-1)^(n-1) * sum_{x_1*...*x_n = x} prod_i chi_{m_i}(1 - x_i),

with chi_m(0) = 0 and m_1,...,m_n the exponent set of the datum. trace_naive
evaluates the sum literally (it is the oracle); trace_all_fast computes the
whole map at once as n-1 cyclic convolutions, indexed by discrete logs, of the
vectors f_i(y) = chi_{m_i}(1-y). Each convolution is a floating-point FFT that
is certified exact or else recomputed by the exact Kronecker engine (see
convolution.py), and the vectors come from one vectorized Zech-table lookup.
Characteristic polynomials come from traces over extension fields via
Newton's identities with exact division, and purity / determinant /
Newton-polygon checks quantify the expected weight n-1, determinant
q^(n(n-1)/2) and slope structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .convolution import conv2d_cyclic
from .cyclotomic import CyclotomicInt, all_embeddings
from .ff import FFElem, FieldDesc, _anchor_inverse, embed, extension_of
from .lambda_adic import LambdaPrime, val_lambda_auto

FAST_SCAN_LIMIT = 1 << 16


class BadPoint(ValueError):
    """Trace requested at x in {0, 1}."""


class NoSumZeroSet(ValueError):
    pass


class RootFindingFailed(ArithmeticError):
    pass


@dataclass(frozen=True)
class HGParams:
    N: int
    n: int
    rho_exponents: tuple
    sum_zero: bool
    trivial_stabilizer: bool

    def __post_init__(self):
        R = self.rho_exponents
        if len(R) != self.n or len(set(R)) != self.n:
            raise ValueError("exponent set must have n distinct elements")
        if any(m % self.N == 0 or not 0 < m < self.N for m in R):
            raise ValueError("exponents must be nonzero residues mod N")
        if self.sum_zero != (sum(R) % self.N == 0):
            raise ValueError("sum_zero flag does not match the exponent set")
        if self.trivial_stabilizer != _has_trivial_stabilizer(self.N, R):
            raise ValueError("trivial_stabilizer flag does not match")


def _has_trivial_stabilizer(N, R):
    Rset = set(R)
    from math import gcd
    return not any(gcd(m, N) == 1 and {m * r % N for r in R} == Rset
                   for m in range(2, N))


def hg_params(N, n, R) -> HGParams:
    R = tuple(sorted(r % N for r in R))
    return HGParams(N, n, R, sum(R) % N == 0, _has_trivial_stabilizer(N, R))


def select_chi(N, n) -> HGParams:
    """Lexicographically first sum-zero exponent set, preferring a trivial
    stabilizer in Gal(Q(zeta_N)/Q); falls back (with the flag cleared) when
    every sum-zero set is stabilized, which is unavoidable for n = 2."""
    from math import gcd
    if N % 2 == 0 or N <= n or gcd(N, n) != 1:
        raise ValueError("need N odd, N > n, gcd(N, n) = 1")
    fallback = None
    for R in combinations(range(1, N), n):
        if sum(R) % N != 0:
            continue
        if _has_trivial_stabilizer(N, R):
            return hg_params(N, n, R)
        if fallback is None:
            fallback = R
    if fallback is None:
        raise NoSumZeroSet(f"no sum-zero {n}-subset mod {N}")
    return hg_params(N, n, fallback)


# ---------------------------------------------------------------------------
# traces

def _char_rows(params: HGParams, k: FieldDesc):
    """Per-character tables: row[dlog y] = zeta-exponent of chi(1 - y), or -1
    at y = 1, as int64 arrays.

    1 - g^i = 1 + g^(i + (q-1)/2) (p odd; 1 + g^i when p = 2), so the dlog
    of 1 - g^i is one Zech lookup, and chi_m(g^d) = zeta_N^(m d j^-1).
    """
    L = k.q - 1
    shift = 0 if k.p == 2 else L // 2
    d = np.roll(k._zech_arr, -shift).astype(np.int64)  # dlog(1 - g^i); d[0] = -1
    valid = d >= 0
    d %= params.N
    jinv = _anchor_inverse(k, params.N)
    rows = []
    for m in params.rho_exponents:
        row = d * (m * jinv % params.N) % params.N
        row[~valid] = -1
        rows.append(row)
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


FAST_CACHE_SIZE = 8
_fast_cache: dict = {}     # (params, FieldDesc) -> trace map, oldest first


def trace_all_fast(params: HGParams, k: FieldDesc):
    """Map x -> trace for every x in k - {0,1}, by exact convolution.

    Agrees with trace_naive pointwise (tested); the last FAST_CACHE_SIZE
    (params, field) pairs are cached. The key holds the field itself, so a
    cached entry can never be read back for a different field.
    """
    key = (params, k)
    hit = _fast_cache.get(key)
    if hit is not None:
        return hit
    N, n = params.N, params.n
    L = k.q - 1
    C = None
    for row in _char_rows(params, k):
        mat = np.zeros((L, N), dtype=np.int8)
        idx = np.flatnonzero(row >= 0)
        mat[idx, row[idx]] = 1
        mat = mat.tolist()
        C = mat if C is None else conv2d_cyclic(C, mat, L, N)
    sign = -1 if (n - 1) % 2 else 1
    out = {}
    for idx in range(1, L):  # idx 0 is x = 1, excluded from T_1
        val = CyclotomicInt.from_zeta_counts(N, C[idx])
        out[k.from_dlog(idx)] = val * sign if sign < 0 else val
    if len(_fast_cache) >= FAST_CACHE_SIZE:
        del _fast_cache[next(iter(_fast_cache))]
    _fast_cache[key] = out
    return out


def _trace_over_extension(params, k: FieldDesc, dd: int, x: FFElem):
    """Trace of Frob^dd at x, i.e. the trace over F_{q^dd} at the embedded x."""
    E = extension_of(k, dd)
    xe = x if dd == 1 else embed(x, E)
    if E.q - 1 <= FAST_SCAN_LIMIT:
        return trace_all_fast(params, E)[xe]
    return trace_naive(params, E, xe)


# ---------------------------------------------------------------------------
# characteristic polynomials

@dataclass
class CharPolyRecord:
    params: HGParams
    q: int
    field: FieldDesc
    x: FFElem
    traces: tuple          # tr Frob^d, d = 1..n
    coeffs: tuple          # det(X - Frob) ascending: coeffs[j] multiplies X^j
    slopes: tuple | None = None
    checks: dict = dc_field(default_factory=dict)

    @property
    def x_dlog(self):
        return self.field.dlog(self.x)

    def to_json_dict(self):
        d = {
            "schema_version": 1,
            "N": self.params.N,
            "n": self.params.n,
            "R": list(self.params.rho_exponents),
            "q": self.q,
            "x_dlog": self.x_dlog,
            "traces": [list(t.coeffs) for t in self.traces],
            "coeffs": [list(c.coeffs) for c in self.coeffs],
            "slopes": None if self.slopes is None
            else [f"{s.numerator}/{s.denominator}" for s in self.slopes],
            "checks": self.checks,
        }
        return d


def newton_coeffs_from_traces(traces, N, n):
    """Elementary symmetric functions from power sums; exact division asserted."""
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
    """det(X - Frob_x) from traces over F_{q^d}, d = 1..n."""
    if x.is_zero() or x == k.one():
        raise BadPoint("char_poly is defined on k minus {0, 1}")
    N, n = params.N, params.n
    traces = tuple(_trace_over_extension(params, k, dd, x) for dd in range(1, n + 1))
    e = newton_coeffs_from_traces(traces, N, n)
    assert tuple(traces_from_newton_coeffs(e, N, n)) == traces, \
        "Newton identity round trip failed"
    coeffs = [None] * (n + 1)
    for kk in range(n + 1):
        c = e[kk] if kk % 2 == 0 else -e[kk]
        coeffs[n - kk] = c
    return CharPolyRecord(params, k.q, k, x, traces, tuple(coeffs))


# ---------------------------------------------------------------------------
# polygon / determinant / purity checks

def newton_polygon(rec: CharPolyRecord, lam: LambdaPrime):
    """Normalized lambda-adic Newton slopes of the record, nondecreasing.

    Slopes are the root valuations (lower convex hull of (i, val(coeff_i))),
    divided by [k : F_l] when the point field has characteristic l.
    """
    vals = []
    for c in rec.coeffs:
        v, lam = val_lambda_auto(c, lam)
        vals.append(v)
    assert vals[-1] == 0, "polynomial must be monic"
    assert not rec.coeffs[0].is_zero(), "zero constant term has no finite polygon"
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
    if rec.q % lam.l == 0:
        m = 0
        qq = rec.q
        while qq % lam.l == 0:
            qq //= lam.l
            m += 1
        assert qq == 1, "point field must be a power of l for normalization"
    else:
        m = 1
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y1 - y2, x2 - x1) / m
        slopes.extend([s] * (x2 - x1))
    slopes.sort()
    rec.slopes = tuple(slopes)
    return rec.slopes


@dataclass
class DetReport:
    skipped: bool
    abs_ok: bool
    sign: int | None
    expected: int

    @property
    def passed(self):
        return self.skipped or (self.abs_ok and self.sign is not None)


def verify_det(rec: CharPolyRecord, tol=1e-6) -> DetReport:
    """|const term| = q^(n(n-1)/2) in every embedding, and the exact signed
    identity prod(eigenvalues) = sign * q^(n(n-1)/2). Non-sum-zero exponent
    sets are skipped (the determinant formula needs prod rho_i = 1)."""
    n = rec.params.n
    expected = rec.q ** (n * (n - 1) // 2)
    if not rec.params.sum_zero:
        rec.checks["det"] = "skipped"
        return DetReport(True, False, None, expected)
    c0 = rec.coeffs[0]
    eig_prod = c0 if n % 2 == 0 else -c0
    if eig_prod == CyclotomicInt.from_int(rec.params.N, expected):
        sign = 1
    elif eig_prod == CyclotomicInt.from_int(rec.params.N, -expected):
        sign = -1
    else:
        sign = None
    abs_ok = all(abs(abs(z) - expected) <= tol * expected
                 for z in all_embeddings(c0))
    rep = DetReport(False, abs_ok, sign, expected)
    rec.checks["det"] = "pass" if rep.passed else "fail"
    return rep


def verify_purity(rec: CharPolyRecord, tol=1e-6) -> bool:
    """Each complex root alpha satisfies |alpha|^2 = q^(n-1) within tol."""
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
    ok = all(abs(abs(r) ** 2 - w) <= tol * w for r in roots)
    rec.checks["purity"] = "pass" if ok else "fail"
    return ok
