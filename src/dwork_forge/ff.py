"""Finite fields F_{p^f} in discrete-log form.

A FieldDesc fixes a deterministic defining polynomial (lexicographically first
monic irreducible), a multiplicative generator g, a full dlog table and a Zech
logarithm table, so multiplication is exponent arithmetic and addition is one
table lookup. Fields with q <= SCALAR_TABLE_LIMIT build their tables as
Python lists, one multiplication by g at a time, so the algebra layers run
without numpy; larger fields build numpy int32 arrays block-wise and make
the list form of their Zech table only when a scalar kernel first reads it
(_NumpyTableField), so a field that only feeds the vectorized trace engine
holds no second copy. The list is what the dlog-integer kernels (k_add,
k_mul, k_neg, k_dot, k_row_sub, k_sparse_sub) read, one entry at a time:
FFElem addition goes through k_add; unitary's C-dagger A C = I certificate
through k_dot, and its dense row updates (the Hermitian elimination's
vector and Gram updates, the Hessenberg reduction) through k_row_sub;
the sparse elimination kernel of linalg through k_sparse_sub. The loop
kernels k_dot, k_row_sub and k_sparse_sub take the Zech step
a + b = g^a (1 + g^(b-a)) inline instead of calling k_add once per term.
k_of_encoding reads the dlog table for callers that draw encodings and
work on dlogs. zech_array() gives the Zech table as an array to the
vectorized trace engine.

Multiplicative characters valued in Z[zeta_N] are evaluated against a
recorded N-torsion anchor; fields built with extension_of() inherit the
anchor of their base through the recorded embedding, which is what makes
"the same point over a bigger field" well defined. A tower shares the
tables of the field_make() field of its size, the ones made on first use
included, and records its base and the dlog e of the base generator's
image, so the tower maps are dlog arithmetic.
Elements combine by their shared tables; characters and caches stay keyed
by the field object.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property, lru_cache
from operator import mul

from .util import row_blocks

TABLE_LIMIT = 1 << 20
SCALAR_TABLE_LIMIT = 1 << 12   # fields up to this size build list tables


class FFError(ValueError):
    """Bad input to the field layer."""


class NotPrime(FFError):
    pass


class TooLarge(FFError):
    pass


class IncompatibleFields(FFError):
    pass


class NNotDividingQMinus1(FFError):
    pass


class InvalidDegree(FFError):
    pass


# Miller-Rabin with the first 13 prime bases has no strong pseudoprime below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin (exact below 3.3e24)."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large for the exact primality test")
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def table_fits(p, f):
    """Whether F_{p^f} is within TABLE_LIMIT (p >= 2, f >= 1).

    A large f is decided without building p^f: p^f >= 2^f > TABLE_LIMIT
    once f reaches the limit's bit length. Callers ask it of the top field
    of a tower, (p, f*n), before they build any of it.
    """
    return f < TABLE_LIMIT.bit_length() and p ** f <= TABLE_LIMIT


def check_table_size(p, f):
    """TooLarge unless table_fits(p, f); callers run it before any primality
    test."""
    if p >= 2 and f >= 1 and not table_fits(p, f):
        q = p if f == 1 else f"{p}^{f}"
        raise TooLarge(f"q = {q} exceeds table limit {TABLE_LIMIT}")


def prime_power(q):
    """(p, f) with q = p^f for a prime p and f >= 1; NotPrime otherwise, and
    TooLarge above TABLE_LIMIT before any trial division."""
    check_table_size(q, 1)
    factors = _prime_factors(q) if q >= 2 else []
    if len(factors) != 1:
        raise NotPrime(f"q = {q} is not a prime power")
    p, f = factors[0], 0
    while q > 1:
        q //= p
        f += 1
    return p, f


# -- dense polynomial arithmetic over F_p (ascending tuples) ---------------

def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _ptrim(a, p):
    """Coefficients reduced mod p, trailing zeros dropped (zero is [0])."""
    a = [c % p for c in a]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _pdivmod(a, b, p):
    """(quotient, remainder), both trimmed, of a by b over F_p; b[-1] != 0."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _ptrim(quot, p), _ptrim(a, p)


def _pmod(a, m, p):
    return _pdivmod(a, m, p)[1]


def _ppowmod(base, n, m, p):
    result = [1]
    base = _pmod(base, m, p)
    while n:
        if n & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        n >>= 1
    return result


def _psub_x(a, p):
    """a(y) - y, trimmed."""
    out = list(a) + [0] * max(0, 2 - len(a))
    out[1] -= 1
    return _ptrim(out, p)


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while len(b) > 1 or b[0] != 0:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(poly, p):
    """Rabin irreducibility test for a monic polynomial over F_p."""
    f = len(poly) - 1
    x = [0, 1]
    if _psub_x(_ppowmod(x, p ** f, poly, p), p) != [0]:
        return False
    for r in _prime_factors(f):
        g = _pgcd(poly, _psub_x(_ppowmod(x, p ** (f // r), poly, p), p), p)
        if len(g) > 1:
            return False
    return True


class FFElem:
    """Field element: either zero or g^k for the field's generator g."""

    __slots__ = ("field", "k")

    def __init__(self, field, k):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "k", None if k is None else k % (field.q - 1))

    def __setattr__(self, *a):
        raise AttributeError("FFElem is immutable")

    def is_zero(self):
        return self.k is None

    @property
    def encoding(self):
        """Integer encoding (base-p digits are the coordinates)."""
        return 0 if self.k is None else int(self.field._pow[self.k])

    def _same(self, other):
        if not isinstance(other, FFElem):
            raise IncompatibleFields(f"expected FFElem, got {type(other).__name__}")
        if other.field is not self.field and other.field._pow is not self.field._pow:
            raise IncompatibleFields("elements of different fields")

    def __mul__(self, other):
        self._same(other)
        if self.k is None or other.k is None:
            return self.field.zero()
        return FFElem(self.field, self.k + other.k)

    def __truediv__(self, other):
        self._same(other)
        if other.k is None:
            raise ZeroDivisionError("division by field zero")
        if self.k is None:
            return self
        return FFElem(self.field, self.k - other.k)

    def inv(self):
        if self.k is None:
            raise ZeroDivisionError("inverting field zero")
        return FFElem(self.field, -self.k)

    def __pow__(self, n):
        if self.k is None:
            if n <= 0:
                raise ZeroDivisionError("0**n for n <= 0")
            return self
        return FFElem(self.field, self.k * n)

    def __add__(self, other):
        self._same(other)
        if self.k is None:
            return other
        if other.k is None:
            return self
        return FFElem(self.field, self.field.k_add(self.k, other.k))

    def __neg__(self):
        if self.k is None or self.field.p == 2:
            return self
        return FFElem(self.field, self.field.k_neg(self.k))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.k == other.k and (self.field is other.field
                                      or self.field._pow is other.field._pow)

    def __hash__(self):
        return hash((id(self.field._pow), self.k))

    def __repr__(self):
        if self.k is None:
            return f"FF(0; {self.field.label})"
        return f"FF(g^{self.k}={self.encoding}; {self.field.label})"


def _foreign(x):
    if not isinstance(x, FFElem):
        raise IncompatibleFields(f"expected FFElem, got {type(x).__name__}")
    raise IncompatibleFields("elements of different fields")


def _scalar_tables(cols, p, q):
    """(powers, dlog, zech) of F_q as lists, one multiplication by g at a time.

    cols[j] holds the digits of g * x^j; dlog[0] = -1 and zech[k] = -1 where
    1 + g^k = 0.
    """
    rows = list(zip(*cols))
    place = [p ** i for i in range(len(cols))]
    v = [1] + [0] * (len(cols) - 1)
    powtab = [0] * (q - 1)
    for k in range(q - 1):
        powtab[k] = sum(map(mul, place, v))
        v = [sum(map(mul, row, v)) % p for row in rows]
    dlog = [-1] * q
    for k, e in enumerate(powtab):
        dlog[e] = k
    # 1 + g^k adds 1 to the constant digit of g^k's encoding, mod p
    zech = [dlog[e - (p - 1) if e % p == p - 1 else e + 1] for e in powtab]
    return powtab, dlog, zech


def _block_tables(cols, p, q):
    """(powers, dlog, zech) of F_q as numpy int32 arrays, as _scalar_tables.

    Powers of g are built in blocks of about sqrt(q - 1): the first block
    step by step, every later one as mul_g^B times the block before it.
    """
    import numpy as np
    f, L = len(cols), q - 1
    mul_g = np.array(cols, dtype=np.int64).T
    B = math.isqrt(L - 1) + 1
    block = np.empty((f, B), dtype=np.int64)
    v = np.zeros(f, dtype=np.int64)
    v[0] = 1
    for i in range(B):
        block[:, i] = v
        v = mul_g @ v % p
    step = np.eye(f, dtype=np.int64)
    for i in range(B):
        step = mul_g @ step % p
    place = p ** np.arange(f, dtype=np.int64)
    powtab = np.empty(B * (-(-L // B)), dtype=np.int32)
    for start in range(0, L, B):
        powtab[start:start + B] = place @ block
        block = step @ block % p
    powtab = powtab[:L]
    dlog = np.empty(q, dtype=np.int32)
    dlog[0] = -1
    dlog[powtab] = np.arange(L, dtype=np.int32)
    # 1 + g^i has the encoding of g^i plus one, less p where the constant
    # coefficient wraps; one block at a time keeps the index temporaries small
    zech = np.empty(L, dtype=np.int32)
    for blk in row_blocks(L):
        enc = powtab[blk] + 1
        enc[enc % p == 0] -= p
        zech[blk] = dlog[enc]
    return powtab, dlog, zech


def field_label(p, f):
    """How messages name F_{p^f}: F_7, F_3^3."""
    return f"F_{p}" if f == 1 else f"F_{p}^{f}"


def invalid_encoding(enc, p, f):
    """The error for an encoding enc outside range(p^f)."""
    return FFError(f"invalid encoding {enc} for {field_label(p, f)}")


class FieldDesc:
    """Immutable description of F_{p^f} with dlog and Zech tables."""

    def __init__(self, p, f):
        check_table_size(p, f)
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if f < 1:
            raise InvalidDegree(f"field degree f = {f} must be at least 1")
        q = p ** f
        self.p = p
        self.f = f
        self.q = q
        self.defining_poly = self._find_defining_poly()
        self._build_tables()
        self.label = field_label(p, f)
        self._parent = None     # (base, e) on a tower made by extension_of()

    def _find_defining_poly(self):
        p, f = self.p, self.f
        if f == 1:
            return (0, 1)
        for enc in range(p ** f):
            low = []
            e = enc
            for _ in range(f):
                low.append(e % p)
                e //= p
            poly = tuple(low) + (1,)
            if _is_irreducible(poly, p):
                return poly
        raise FFError("no irreducible polynomial found")  # pragma: no cover

    def _enc_to_poly(self, enc):
        out = []
        for _ in range(self.f):
            out.append(enc % self.p)
            enc //= self.p
        return out

    def _poly_to_enc(self, poly):
        enc = 0
        for c in reversed(poly):
            enc = enc * self.p + (c % self.p)
        return enc

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        defpoly = list(self.defining_poly)

        # enc = 1 is a generator only of F_2^*, whose q - 1 has no prime factor.
        # For f > 1 the constants 1..p-1 lie in F_p^*, so none generates F_q^*
        # and the search starts at enc = p with the same result.
        factors = _prime_factors(q - 1)
        gen = next(enc for enc in range(1 if f == 1 else p, q)
                   if all(_ppowmod(self._enc_to_poly(enc), (q - 1) // r, defpoly, p)
                          != [1] for r in factors))
        self.g_encoding = gen

        # Multiplication by g is F_p-linear on coordinate vectors: column j
        # of its matrix holds the f digits of g * x^j.
        g = self._enc_to_poly(gen)
        cols = [_pmod([0] * j + g, defpoly, p) for j in range(f)]
        cols = [col + [0] * (f - len(col)) for col in cols]
        self._half = 0 if p == 2 else (q - 1) // 2     # dlog of -1
        # The Zech table's second form (the array of a list-built field, the
        # list of a numpy-built one) is made on first use. Both forms sit in
        # one dict that every tower copy of this field shares, so each is
        # made once, whichever copy asks first.
        self._lazy = {}
        if q <= SCALAR_TABLE_LIMIT:
            self._pow, self._dlog, zech = _scalar_tables(cols, p, q)
            zech[self._half] = None      # the one k with 1 + g^k = 0
            self._zech = zech
        else:
            self._pow, self._dlog, self._lazy["zech_arr"] = _block_tables(cols, p, q)
            self.__class__ = _NumpyTableField    # its _zech list is made lazily

    def zech_array(self):
        """The Zech table as a numpy int32 array, -1 where 1 + g^k = 0."""
        arr = self._lazy.get("zech_arr")
        if arr is None:
            import numpy as np
            arr = self._lazy["zech_arr"] = np.array(
                [-1 if z is None else z for z in self._zech], dtype=np.int32)
        return arr

    # -- dlog-integer kernels ---------------------------------------------
    # An element is its dlog k in [0, q-1), or None for zero. These are the
    # inner loops of linalg and unitary; FFElem stays the public interface.
    def to_ks(self, elems):
        """Dlogs of FFElem entries of this field; IncompatibleFields otherwise."""
        return [x.k if x.__class__ is FFElem and (x.field is self or x.field._pow is self._pow)
                else _foreign(x) for x in elems]

    def from_ks(self, ks):
        """FFElem entries for a list of dlogs (one shared zero)."""
        zero = FFElem(self, None)
        return [zero if k is None else FFElem(self, k) for k in ks]

    def k_of_encoding(self, enc):
        """The dlog of the element with integer encoding enc (None for 0)."""
        return None if enc == 0 else int(self._dlog[enc])

    def k_add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        L = self.q - 1
        z = self._zech[(b - a) % L]    # a + b = g^a (1 + g^(b-a))
        return None if z is None else (a + z) % L

    def k_mul(self, a, b):
        return None if a is None or b is None else (a + b) % (self.q - 1)

    def k_neg(self, a):
        return None if a is None else (a + self._half) % (self.q - 1)

    def k_dot(self, xs, ys):
        """sum_i xs[i] * ys[i]."""
        zech, L = self._zech, self.q - 1
        acc = None
        for x, y in zip(xs, ys):
            if x is None or y is None:
                continue
            b = (x + y) % L
            if acc is None:
                acc = b
            else:
                z = zech[(b - acc) % L]    # acc + b = g^acc (1 + g^(b-acc))
                acc = None if z is None else (acc + z) % L
        return acc

    def k_row_sub(self, row, f, prow, cols):
        """row[c] -= f * prow[c] in place, for the columns c in cols (f and
        every prow[c] nonzero)."""
        zech, L = self._zech, self.q - 1
        nf = f + self._half
        for c in cols:
            b = (nf + prow[c]) % L
            a = row[c]
            if a is None:
                row[c] = b
            else:
                z = zech[(b - a) % L]      # a + b = g^a (1 + g^(b-a))
                row[c] = None if z is None else (a + z) % L

    def k_sparse_sub(self, row, f, prow):
        """row -= f * prow in place, for sparse rows {column: dlog} and f
        nonzero; entries that cancel are deleted."""
        zech, L = self._zech, self.q - 1
        nf = f + self._half
        for c, v in prow.items():
            b = (nf + v) % L
            a = row.get(c)
            if a is None:
                row[c] = b
                continue
            z = zech[(b - a) % L]      # a + b = g^a (1 + g^(b-a))
            if z is None:
                del row[c]
            else:
                row[c] = (a + z) % L

    # -- element constructors ---------------------------------------------
    def zero(self):
        return FFElem(self, None)

    def one(self):
        return FFElem(self, 0)

    def gen(self):
        return FFElem(self, 1)

    def from_dlog(self, k):
        return FFElem(self, k)

    def from_encoding(self, enc):
        if not 0 <= enc < self.q:
            raise invalid_encoding(enc, self.p, self.f)
        if enc == 0:
            return self.zero()
        return FFElem(self, int(self._dlog[enc]))

    def from_int(self, c):
        """Image of the integer c under Z -> F_p -> field."""
        return self.from_encoding(c % self.p)

    def dlog(self, x):
        if x.field._pow is not self._pow:
            raise IncompatibleFields("dlog of foreign element")
        if x.k is None:
            raise ValueError("dlog of zero")
        return x.k

    def elements(self):
        yield self.zero()
        for k in range(self.q - 1):
            yield FFElem(self, k)

    def nonzero_elements(self):
        for k in range(self.q - 1):
            yield FFElem(self, k)

    # -- subfield structure -------------------------------------------------
    def zeta_anchor(self, N):
        """The N-torsion element g^(j(q-1)/N) anchoring characters.

        j = 1, except on a tower whose base contains mu_N: there the anchor
        is the embedded base anchor. With the base anchor at j_base and the
        embedding sending the base generator to g^e, e = c(q-1)/(q_base-1),
        that is j = c j_base mod N.
        """
        return FFElem(self, self._anchor_j(N) * ((self.q - 1) // N))

    def _anchor_j(self, N):
        """j of zeta_anchor(N); NNotDividingQMinus1 unless N | q - 1."""
        if (self.q - 1) % N != 0:
            raise NNotDividingQMinus1(f"N={N} does not divide q-1={self.q - 1}")
        if self._parent is None or (self._parent[0].q - 1) % N:
            return 1
        base, e = self._parent
        return e // ((self.q - 1) // (base.q - 1)) * base._anchor_j(N) % N

    def __repr__(self):
        return f"FieldDesc(p={self.p}, f={self.f}, poly={self.defining_poly}, g={self.g_encoding})"


class _NumpyTableField(FieldDesc):
    """A field whose tables _build_tables made as numpy arrays.

    Its Zech list, which only the scalar kernels read, is made from the
    array on first read. The property lives on this subclass alone: on
    FieldDesc, a class attribute named _zech would slow every read of the
    list-built fields' instance attribute, the hot read of FFElem addition.
    """

    @cached_property
    def _zech(self):
        zech = self._lazy.get("zech")
        if zech is None:
            zech = self._lazy["zech"] = self._lazy["zech_arr"].tolist()
            zech[self._half] = None      # the one k with 1 + g^k = 0
        return zech


@lru_cache(maxsize=None)
def field_make(p, f) -> FieldDesc:
    """Deterministic construction of F_{p^f} (cached, shared, immutable)."""
    return FieldDesc(p, f)


@lru_cache(maxsize=None)
def extension_of(base: FieldDesc, d: int) -> FieldDesc:
    """F_{q^d} over base: a copy of field_make(p, f d), its tables shared
    (through _lazy, also those made on first use), recording (base, e) with
    g^e the image of the base generator. The base's x-bar goes to the first
    root, in dlog order, of its defining polynomial among the subfield
    elements g^(i(q^d-1)/(q-1)) (1 for a prime base)."""
    if d < 1:
        raise InvalidDegree(f"extension degree d = {d} must be at least 1")
    if d == 1:
        return base
    field = field_make(base.p, base.f * d)
    L = field.q - 1

    def value(digits, k):    # sum_i digits[i] g^(i k), on coordinates: no Zech list
        coords = [0] * field.f
        for i, c in enumerate(digits):
            for j, v in enumerate(field._enc_to_poly(int(field._pow[i * k % L]))):
                coords[j] += c * v
        return field.k_of_encoding(field._poly_to_enc(coords))
    rho = 0 if base.f == 1 else next(k for k in range(0, L, L // (base.q - 1))
                                     if value(base.defining_poly, k) is None)
    big = copy.copy(field)
    big._parent = (base, value(base._enc_to_poly(base.g_encoding), rho))
    return big


def _exponent(big: FieldDesc, base: FieldDesc) -> int:
    """e of the tower big over base; IncompatibleFields unless big is one."""
    if big._parent is None or big._parent[0]._pow is not base._pow:
        raise IncompatibleFields("no recorded embedding between these fields")
    return big._parent[1]


def embed(x: FFElem, big: FieldDesc) -> FFElem:
    """Apply the recorded embedding of x's field into big: g_base^k -> g^(k e)."""
    e = _exponent(big, x.field)
    return big.zero() if x.k is None else FFElem(big, x.k * e)


def pull_back(y: FFElem, base: FieldDesc):
    """The x of base with embed(x, y.field) == y, or None if there is none:
    with M = (Q-1)/(q-1) and e = c M, g^k is embedded iff M | k, from
    g_base^j for j = (k/M) c^-1 mod q - 1."""
    big = y.field
    e = _exponent(big, base)
    if y.k is None:
        return base.zero()
    M = (big.q - 1) // (base.q - 1)
    if y.k % M:
        return None
    return FFElem(base, y.k // M * pow(e // M, -1, base.q - 1))


def norm_to_subfield(x: FFElem, base: FieldDesc) -> FFElem:
    """Norm F_{q^d} -> F_q along the recorded embedding: x^(1+q+...+q^(d-1))."""
    big = x.field
    if big is base:
        return x
    return pull_back(x ** ((big.q - 1) // (base.q - 1)), base)


@lru_cache(maxsize=None)
def _anchor_inverse(field: FieldDesc, N: int) -> int:
    """Inverse mod N of j where zeta_anchor = g^(j*(q-1)/N)."""
    return pow(field._anchor_j(N), -1, N)


def char_exponent(N: int, m: int, y: FFElem):
    """Exponent a with chi_m(y) = zeta_N^a, or None for y = 0.

    chi_m sends the anchored N-torsion generator to zeta_N^m; equivalently
    chi_m(y) = rho_m(y^((q-1)/N)) with rho_m anchored at zeta_anchor(N).
    """
    if y.is_zero():
        return None
    jinv = _anchor_inverse(y.field, N)
    return (m * y.k * jinv) % N


def char_value(N: int, m: int, y: FFElem) -> CyclotomicInt:
    """Multiplicative character value in Z[zeta_N]; chi_m(0) = 0."""
    from .cyclotomic import CyclotomicInt   # only this oracle needs Z[zeta_N]
    e = char_exponent(N, m, y)
    if e is None:
        return CyclotomicInt.zero(N)
    return CyclotomicInt.zeta_pow(N, e)
