"""Exact arithmetic in Z[zeta_N].

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) modulo the
N-th cyclotomic polynomial Phi_N, with arbitrary-precision integer coordinates.
Phi_N is computed by recursive exact division of x^N - 1, so there is no
factorization dependency and the basis is deterministic.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd

from .util import VerificationFailed, check


class ExactDivisionFailed(VerificationFailed):
    """An exact division was requested but the dividend is not divisible."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_monic(num, den):
    """Divide by a monic integer polynomial; quotient and remainder over Z."""
    check(den[-1] == 1, "divisor must be monic")
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple:
    """Coefficients of Phi_N, ascending, computed by dividing x^N - 1."""
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        return (-1, 1)
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
            check(rem == [0], (N, d))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_tables(N: int):
    """Power-basis data for Z[zeta_N].

    Returns (phi, zeta_pow, high_pow) where zeta_pow[j] is x^j mod Phi_N for
    0 <= j < N and high_pow[k] is x^(phi+k) mod Phi_N for the degrees reached
    by a product of two reduced elements.
    """
    phi_coeffs = cyclotomic_polynomial(N)
    phi = len(phi_coeffs) - 1
    # x^phi = -(lower part of Phi), then multiply up by x and re-reduce
    rows = []
    cur = [-c for c in phi_coeffs[:phi]]
    rows.append(tuple(cur))
    for _ in range(max(N, 2 * phi - 1) - phi - 1):
        cur = [0] + cur
        if len(cur) > phi:
            lead = cur.pop()
            if lead:
                cur = [c + lead * r for c, r in zip(cur, rows[0])]
        rows.append(tuple(cur))
    zeta_pow = []
    for j in range(N):
        if j < phi:
            row = [0] * phi
            row[j] = 1
            zeta_pow.append(tuple(row))
        else:
            zeta_pow.append(rows[j - phi])
    return phi, tuple(zeta_pow), tuple(rows)


def euler_phi_of(N: int) -> int:
    return _reduction_tables(N)[0]


class CyclotomicInt:
    """An element of Z[zeta_N] in the power basis modulo Phi_N.

    Immutable; all operations return new values, so instances are safe to
    share across threads.
    """

    __slots__ = ("N", "coeffs")

    def __init__(self, N, coeffs):
        phi = euler_phi_of(N)
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for N={N}, got {len(coeffs)}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicInt is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(N):
        return CyclotomicInt(N, (0,) * euler_phi_of(N))

    @staticmethod
    def from_int(N, c):
        phi = euler_phi_of(N)
        return CyclotomicInt(N, (c,) + (0,) * (phi - 1))

    @staticmethod
    def one(N):
        return CyclotomicInt.from_int(N, 1)

    @staticmethod
    def zeta_pow(N, j):
        """zeta_N^j as an element."""
        _, zpow, _ = _reduction_tables(N)
        return CyclotomicInt(N, zpow[j % N])

    @staticmethod
    def from_zeta_counts(N, counts):
        """sum_j counts[j] * zeta^j for a length-N integer vector."""
        if len(counts) != N:
            raise ValueError("counts must have length N")
        phi, zpow, _ = _reduction_tables(N)
        out = [0] * phi
        for j, c in enumerate(counts):
            if c:
                row = zpow[j]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return CyclotomicInt(N, out)

    # -- ring operations ---------------------------------------------------
    def _check(self, other):
        if not isinstance(other, CyclotomicInt):
            if isinstance(other, int):
                return CyclotomicInt.from_int(self.N, other)
            return NotImplemented
        if other.N != self.N:
            raise ValueError("mixed cyclotomic moduli")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.N, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.N, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return CyclotomicInt(self.N, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.N, tuple(a * other for a in self.coeffs))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        phi, _, high = _reduction_tables(self.N)
        prod = _poly_mul(self.coeffs, other.coeffs)
        out = list(prod[:phi]) + [0] * (phi - min(phi, len(prod)))
        for k in range(phi, len(prod)):
            c = prod[k]
            if c:
                row = high[k - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return CyclotomicInt(self.N, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined in Z[zeta]")
        result = CyclotomicInt.one(self.N)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.N, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.N == other.N and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.N, self.coeffs))

    def __repr__(self):
        return f"CyclotomicInt(N={self.N}, {list(self.coeffs)})"

    # -- structure ---------------------------------------------------------
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def galois_apply(self, c):
        """The automorphism zeta -> zeta^c for c coprime to N."""
        if gcd(c, self.N) != 1:
            raise ValueError("galois index must be coprime to N")
        counts = [0] * self.N
        for i, a in enumerate(self.coeffs):
            if a:
                counts[(i * c) % self.N] += a
        return CyclotomicInt.from_zeta_counts(self.N, counts)

    def conj(self):
        """Complex conjugation, the substitution zeta -> zeta^(N-1)."""
        if self.N == 1:
            return self
        return self.galois_apply(self.N - 1)

    def exact_div_int(self, k):
        """Divide by a nonzero integer; every coordinate must be divisible."""
        if k == 0:
            raise ZeroDivisionError("division by zero")
        out = []
        for a in self.coeffs:
            q, r = divmod(a, k)
            if r:
                raise ExactDivisionFailed(f"{a} not divisible by {k}")
            out.append(q)
        return CyclotomicInt(self.N, out)

    def embed_complex(self, root_index=1):
        """Image under zeta -> exp(2*pi*i*root_index/N), gcd(root_index, N)=1."""
        if gcd(root_index, self.N) != 1:
            raise ValueError("root_index must be coprime to N")
        z = cmath.exp(2j * cmath.pi * root_index / self.N)
        acc = 0j
        for a in reversed(self.coeffs):
            acc = acc * z + a
        return acc


def conj(a: CyclotomicInt) -> CyclotomicInt:
    return a.conj()


def embed_complex(a: CyclotomicInt, root_index: int = 1) -> complex:
    return a.embed_complex(root_index)


def all_embeddings(a: CyclotomicInt):
    """Complex images under every embedding of Q(zeta_N)."""
    return [a.embed_complex(c) for c in range(1, a.N + 1) if gcd(c, a.N) == 1]
