"""Places lambda of Q(zeta_N) above a rational prime l with l not dividing N.

Such a place is unramified with residue degree d = ord(l mod N). It is
represented by a Hensel-lifted N-th root of unity W inside the truncated
unramified ring Z[y]/(l^M, h(y)), where h lifts the minimal polynomial of the
chosen order-N element w of the residue field F_{l^d}. For d = 1 the lift
degenerates to a single integer root; evaluation at W computes reductions
and l-adic valuations of cyclotomic integers without any ideal machinery.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, inf

from .cyclotomic import CyclotomicInt, euler_phi_of
from .ff import FFElem, FieldDesc, field_make, _is_prime, _pdivmod, _pmul, _ptrim


class PrecisionExhausted(ArithmeticError):
    """A lambda-adic valuation reached the lift precision; raise M and retry."""


DEFAULT_PRECISION = 64


def _multiplicative_order(l, N):
    o, x = 1, l % N
    while x != 1:
        x = x * l % N
        o += 1
    return o


class _UnramifiedRing:
    """Z[y]/(l^M, h(y)) with h monic of degree d, coefficients as int tuples."""

    def __init__(self, l, M, h):
        self.l = l
        self.M = M
        self.mod = l ** M
        self.h = h
        self.d = len(h) - 1

    def reduce(self, coeffs):
        c = [x % self.mod for x in coeffs]
        for i in range(len(c) - 1, self.d - 1, -1):
            top = c[i]
            if top:
                for j in range(self.d + 1):
                    c[i - self.d + j] = (c[i - self.d + j] - top * self.h[j]) % self.mod
        return tuple(c[:self.d]) + (0,) * (self.d - len(c[:self.d]))

    def mul(self, a, b):
        out = [0] * (2 * self.d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return self.reduce(out)

    def pow(self, a, n):
        r = (1,) + (0,) * (self.d - 1)
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def sub(self, a, b):
        return tuple((x - y) % self.mod for x, y in zip(a, b))

    def scalar(self, c):
        return (c % self.mod,) + (0,) * (self.d - 1)

    def invert(self, a):
        """Newton inversion; a must be a unit mod l."""
        Rl = _UnramifiedRing(self.l, 1, tuple(c % self.l for c in self.h))
        v = _field_inverse_mod_l(Rl, tuple(c % self.l for c in a))
        prec = 1
        while prec < self.M:
            prec = min(2 * prec, self.M)
            Rk = _UnramifiedRing(self.l, prec, self.h)
            av = Rk.mul(tuple(a), v + (0,) * (Rk.d - len(v)))
            two_minus = Rk.sub(Rk.scalar(2), av)
            v = Rk.mul(v + (0,) * (Rk.d - len(v)), two_minus)
        return self.reduce(v)


def _field_inverse_mod_l(Rl, a):
    """Inverse in F_l[y]/(h) by extended Euclid."""
    l = Rl.l
    r0, r1 = _ptrim(Rl.h, l), _ptrim(a, l)
    s0, s1 = [0], [1]
    while r1 != [0]:
        q, r = _pdivmod(r0, r1, l)
        prod = _pmul(q, s1, l)
        s_new = [x - y for x, y in zip_longest(s0, prod, fillvalue=0)]
        r0, r1 = r1, r
        s0, s1 = s1, _ptrim(s_new, l)
    assert r0 != [0] and len(r0) == 1, "element not invertible mod l"
    c = pow(r0[0], -1, l)
    return tuple(x * c % l for x in s0)


class LambdaPrime:
    """A place of Q(zeta_N) over l (l prime, l not dividing N).

    tau_choice in (Z/N)^x selects which order-N residue anchors the
    identification of the place with its residue field; the default 1 uses
    the residue field's own anchor. residue_field is the FieldDesc F_{l^d}
    that reduce_mod_lambda maps into, and zeta_image is the image of zeta_N
    there.
    """

    def __init__(self, N, l, tau_choice=1, precision=DEFAULT_PRECISION):
        if not _is_prime(l):
            raise ValueError(f"l = {l} is not prime")
        if N % l == 0:
            raise ValueError(f"l = {l} divides N = {N}")
        if gcd(tau_choice, N) != 1:
            raise ValueError("tau_choice must be coprime to N")
        self.N = N
        self.l = l
        self.tau_choice = tau_choice % N
        self.precision = precision
        self.d = _multiplicative_order(l, N)
        self.residue_field = field_make(l, self.d)
        K = self.residue_field
        w = K.zeta_anchor(N) ** self.tau_choice
        self.zeta_image = w
        self._lift(w)

    def _lift(self, w):
        K, l, M = self.residue_field, self.l, self.precision
        d = self.d
        # minimal polynomial of w over F_l: prod (x - w^(l^j))
        conj = [w]
        for _ in range(d - 1):
            conj.append(conj[-1] ** l)
        poly = [K.one()]
        for r in conj:
            nxt = [K.zero()] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - c * r
            poly = nxt
        h = []
        for c in poly:
            enc = c.encoding
            assert enc < l, "minimal polynomial coefficient not in F_l"
            h.append(enc)
        self.min_poly_mod_l = tuple(h)
        # Hensel/Newton lift of the root X = y of X^N - 1 in Z[y]/(l^m, h)
        X = (0, 1) + (0,) * (d - 2) if d >= 2 else ((l - h[0]) % l,)
        prec = 1
        while prec < M:
            prec = min(2 * prec, M)
            R = _UnramifiedRing(l, prec, self.min_poly_mod_l)
            Xp = tuple(X) + (0,) * (R.d - len(X))
            fX = R.sub(R.pow(Xp, self.N), R.scalar(1))
            dfX = R.mul(R.scalar(self.N), R.pow(Xp, self.N - 1))
            X = R.sub(Xp, R.mul(fX, R.invert(dfX)))
        self.ring = _UnramifiedRing(l, M, self.min_poly_mod_l)
        self.root_lift = tuple(X)
        R = self.ring
        assert R.pow(self.root_lift, self.N) == R.scalar(1)
        if d == 1:
            self.lifted_root = self.root_lift[0]
        else:
            self.lifted_root = None
        # powers of zeta_image for fast reduction
        phi = euler_phi_of(self.N)
        zpows = [K.one()]
        for _ in range(phi - 1):
            zpows.append(zpows[-1] * self.zeta_image)
        self._zeta_pows = zpows

    def with_precision(self, M):
        return LambdaPrime(self.N, self.l, self.tau_choice, M)

    def __repr__(self):
        return (f"LambdaPrime(N={self.N}, l={self.l}, d={self.d}, "
                f"tau={self.tau_choice}, M={self.precision})")


def lambda_prime(N, l, tau_choice=1, precision=DEFAULT_PRECISION) -> LambdaPrime:
    return LambdaPrime(N, l, tau_choice, precision)


def reduce_mod_lambda(a: CyclotomicInt, lam: LambdaPrime) -> FFElem:
    """Ring homomorphism Z[zeta_N] -> F_{l^d} sending zeta_N to zeta_image."""
    if a.N != lam.N:
        raise ValueError("modulus mismatch")
    K = lam.residue_field
    acc = K.zero()
    for c, zp in zip(a.coeffs, lam._zeta_pows):
        if c % lam.l:
            acc = acc + K.from_int(c) * zp
    return acc


def val_lambda(a: CyclotomicInt, lam: LambdaPrime):
    """lambda-adic valuation; +inf for 0; PrecisionExhausted if >= precision."""
    if a.N != lam.N:
        raise ValueError("modulus mismatch")
    if a.is_zero():
        return inf
    R = lam.ring
    acc = R.scalar(0)
    # Horner evaluation at the lifted root
    for c in reversed(a.coeffs):
        acc = R.mul(acc, lam.root_lift)
        acc = ((acc[0] + c) % R.mod,) + acc[1:]
    v = 0
    l = lam.l
    coords = list(acc)
    while v < lam.precision:
        if any(c % l for c in coords):
            return v
        coords = [c // l for c in coords]
        v += 1
    raise PrecisionExhausted(
        f"valuation >= precision {lam.precision}; retry with higher M")


def val_lambda_auto(a: CyclotomicInt, lam: LambdaPrime):
    """val_lambda with the default retry policy: double M until it resolves."""
    while True:
        try:
            return val_lambda(a, lam), lam
        except PrecisionExhausted:
            lam = lam.with_precision(2 * lam.precision)
