"""Places lambda of Q(zeta_N) above a rational prime l with l not dividing N.

Such a place is unramified with residue degree d = ord(l mod N): lambda =
(l, h(zeta)), where h is the minimal polynomial over F_l of the chosen
order-N element w of the residue field F_{l^d}. Reduction mod lambda sends
zeta to w. The valuation is exact: with c = Phi_N / h mod l, the element
pi = c(zeta) lies in every other place over l and not in lambda, so for a in
lambda the product a * pi lies in (l) and v(a * pi / l) = v(a) - 1.
"""

from __future__ import annotations

from math import gcd, inf

from .cyclotomic import CyclotomicInt, cyclotomic_polynomial, euler_phi_of
from .ff import FFElem, _is_prime, _pdivmod, field_make
from .util import check


def _multiplicative_order(l, N):
    o, x = 1, l % N
    while x != 1 % N:     # (Z/1)^x is trivial: order 1
        x = x * l % N
        o += 1
    return o


def residue_field(N, l, tau_choice=1):
    """F_{l^d}, d = ord(l mod N): the residue field of the places of
    Q(zeta_N) over l. ValueError unless l is a prime not dividing N and
    tau_choice is coprime to N; TooLarge past the table limit."""
    if not _is_prime(l):
        raise ValueError(f"l = {l} is not prime")
    if N % l == 0:
        raise ValueError(f"l = {l} divides N = {N}")
    if gcd(tau_choice, N) != 1:
        raise ValueError("tau_choice must be coprime to N")
    return field_make(l, _multiplicative_order(l, N))


class LambdaPrime:
    """A place of Q(zeta_N) over l (l prime, l not dividing N).

    tau_choice in (Z/N)^x selects which order-N residue anchors the
    identification of the place with its residue field; the default 1 uses
    the residue field's own anchor. residue_field is the FieldDesc F_{l^d}
    that reduce_mod_lambda maps into, and zeta_image is the image of zeta_N
    there.
    """

    def __init__(self, N, l, tau_choice=1):
        K = residue_field(N, l, tau_choice)
        self.N = N
        self.l = l
        self.tau_choice = tau_choice % N
        self.d = K.f
        self.residue_field = K
        w = K.zeta_anchor(N) ** self.tau_choice
        self.zeta_image = w
        self._lift(w)

    # perfbench/traced.py times this method by name (METHOD_SPANS).
    def _lift(self, w):
        K, l, d = self.residue_field, self.l, self.d
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
            check(enc < l, "minimal polynomial coefficient not in F_l")
            h.append(enc)
        self.min_poly_mod_l = tuple(h)
        # pi = c(zeta) with c = Phi_N / h mod l: Phi_N is squarefree mod l,
        # so c vanishes at every other place over l and not at lambda.
        phi = euler_phi_of(self.N)
        c, rem = _pdivmod(cyclotomic_polynomial(self.N), h, l)
        check(rem == [0], "minimal polynomial does not divide Phi_N mod l")
        self.pi = CyclotomicInt(self.N, c + [0] * (phi - len(c)))
        # powers of zeta_image for fast reduction
        zpows = [K.one()]
        for _ in range(phi - 1):
            zpows.append(zpows[-1] * self.zeta_image)
        self._zeta_pows = zpows

    def __repr__(self):
        return (f"LambdaPrime(N={self.N}, l={self.l}, d={self.d}, "
                f"tau={self.tau_choice})")


def lambda_prime(N, l, tau_choice=1) -> LambdaPrime:
    return LambdaPrime(N, l, tau_choice)


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
    """Exact lambda-adic valuation; +inf for 0."""
    if a.N != lam.N:
        raise ValueError("modulus mismatch")
    if a.is_zero():
        return inf
    v = 0
    while reduce_mod_lambda(a, lam).is_zero():
        a = (a * lam.pi).exact_div_int(lam.l)
        v += 1
    return v


# perfbench/traced.py wraps this name to count precision retries (always 0).
def val_lambda_auto(a: CyclotomicInt, lam: LambdaPrime):
    return val_lambda(a, lam), lam
