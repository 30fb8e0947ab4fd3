"""The ordinarity test: character exponents c_i, the certificate polynomial
u(T), the ordinary locus, the exact mod-lambda norm identity, the Lucas
congruence, and the unit-root implication.

Conventions. k(v) = F_{q_v} is the residue field at the test prime l (q_v =
l^a, a = ord(l mod N)); the identification tau of v with the place lambda is
carried by the LambdaPrime (its tau_choice picks the order-N anchor). The
exponents c_i are defined by g^(c_i) = w^(m_i) in k(v), w the image of zeta_N,
i.e. z -> z^(c_i) is the reduction of chi_{m_i} on all of k(v)^x. With

    u(T) = sum_r (-1)^(nr) * prod_i binom(c_i, r) * T^r  (coefficients in F_l)

the identity reduce_lambda(trace at x over k) = Norm_{k/k(v)}(u(x)) holds at
every x: the two (-1)^(n-1) factors (one in the trace, one from the n-1
vanishing-character sums) cancel. The variant with a surviving (-1)^(n-1)
prefactor is the identity for the bare character sum, without the trace's
own prefactor.

verify_norm_identity checks it at every point of F_{q_v^d} on arrays: the
reduction mod lambda is a linear map of the trace map's count rows, u(x)
runs on dlog integers through the Zech table, and the norm is a dlog
multiply. u_at, the element-wise evaluation, serves the one-point readers:
the ordinary locus and the unit-root check, which is handed the slopes
that hypergeom.newton_polygon returned for the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .ff import FFElem, FieldDesc, _exponent, extension_of
from .hypergeom import CharPolyRecord, HGParams, trace_all_fast
from .lambda_adic import LambdaPrime, lambda_prime
from .util import VerificationFailed, check, row_blocks

# Calibrated against the (N=3, n=2, l=7) and (N=11, n=3, l=23) sweeps: the
# reduced trace equals +Norm(u(x)), for every n.
NORM_IDENTITY_SIGN = 1


@dataclass
class OrdinaryTest:
    params: HGParams
    l: int
    lam: LambdaPrime
    field_v: FieldDesc          # k(v) = F_{q_v}
    q_v: int
    c: tuple                    # character exponents, one per rho_i
    u_coeffs: tuple             # u(T) over F_l, ascending
    tau: int                    # recorded identification residue

    def u_at(self, x: FFElem) -> FFElem:
        K = x.field
        acc = K.zero()
        for co in reversed(self.u_coeffs):
            acc = acc * x + K.from_int(co)
        return acc


def exponents_c(params: HGParams, l: int, tau_choice: int = 1):
    """The exponents c_i in [1, q_v - 2] with z^(c_i) = reduced chi_{m_i}(z)."""
    lam = lambda_prime(params.N, l, tau_choice)
    K = lam.residue_field
    D = K.dlog(lam.zeta_image)
    q_v = K.q
    c = tuple((m * D) % (q_v - 1) for m in params.rho_exponents)
    check(all(1 <= ci <= q_v - 2 for ci in c), (c, q_v))
    return c, lam


def u_poly(c, n, l):
    """u(T) = sum_r (-1)^(nr) prod_i binom(c_i, r) T^r over F_l.

    Binomials are exact big integers reduced mod l (no Lucas shortcut here;
    Lucas is the thing under test elsewhere). deg u <= min(c_i), u(0) = 1.
    """
    out = []
    for r in range(min(c) + 1):
        term = 1
        for ci in c:
            term *= comb(ci, r)
        if (n * r) % 2:
            term = -term
        out.append(term % l)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    check(out[0] == 1, "u(0) must be 1")
    return tuple(out)


def build_ordinary_test(params: HGParams, l: int, tau_choice: int = 1) -> OrdinaryTest:
    c, lam = exponents_c(params, l, tau_choice)
    u = u_poly(c, params.n, l)
    K = lam.residue_field
    if (K.q - 1) % params.N != 0:
        raise ValueError("N must divide q_v - 1")
    return OrdinaryTest(params, l, lam, K, K.q, c, u,
                        tau=K.dlog(lam.zeta_image) * params.N // (K.q - 1))


def ordinary_locus(test: OrdinaryTest, d: int):
    """Points x of F_{q_v^d} - {0,1} with u(x) != 0, in dlog order."""
    K = extension_of(test.field_v, d)
    one = K.one()
    return [x for x in K.nonzero_elements()
            if x != one and not test.u_at(x).is_zero()]


@dataclass
class NormIdentity:
    """The norm identity over F_{q_v^d}, as arrays with one entry per point
    x in dlog order 1..q_v^d - 2. The reduced trace and the norm are given
    by their integer encodings in k(v)."""
    x_dlog: object         # int64
    u_nonzero: object      # bool: u(x) != 0
    trace_red: object      # int64: reduce_lambda(trace at x)
    norm_u: object         # int64: Norm_{k/k(v)}(u(x))
    ok: object             # bool: trace_red == norm_u


def verify_norm_identity(test: OrdinaryTest, d: int) -> NormIdentity:
    """Check reduce_lambda(trace) = Norm_{k/k(v)}(u(x)) at every point of
    k = F_{q_v^d}; the sign is the calibrated NORM_IDENTITY_SIGN = +1.

    It runs on the trace map's count array a block of rows at a time, with
    no field element per point. The reduction is linear in a row: with w the
    image of zeta_N in k(v) = F_{l^a} and row z of W the F_l coordinates of
    w^z, the coordinates of the reduced trace are (-1)^(n-1) (counts mod l)
    @ W mod l. u(x) is evaluated by Horner's rule on dlogs, an addition
    being one Zech lookup. Norm(x) = x^M, M = (q_v^d - 1)/(q_v - 1), is the
    dlog times M, pulled back along the recorded embedding g_v -> g^e
    (e = c M) as the dlog (k / M) c^-1 of k(v).

    Exact equality in k(v); failures are returned as data, not raised.
    """
    Fv, l, N = test.field_v, test.l, test.params.N
    K = extension_of(Fv, d)
    counts = trace_all_fast(test.params, K).counts
    import numpy as np
    L, Lv = K.q - 1, Fv.q - 1
    place = l ** np.arange(Fv.f, dtype=np.int64)      # F_l coordinates -> encoding
    w = test.lam.zeta_image
    W = np.array([(w ** z).encoding for z in range(N)], dtype=np.int64)[:, None]
    W = W // place % l
    if (test.params.n - 1) % 2:
        W = -W % l
    zech = K.zech_array()
    u_dlogs = [K.dlog(K.from_int(c)) if c else -1 for c in reversed(test.u_coeffs)]
    M = L // Lv
    e = 1 if d == 1 else _exponent(K, Fv)
    pull = pow(e // M, -1, Lv)
    encode_v = np.asarray(Fv._pow)
    x = np.arange(1, L, dtype=np.int64)
    u_nonzero = np.empty(L - 1, dtype=bool)
    trace_red = np.empty(L - 1, dtype=np.int64)
    norm_u = np.zeros(L - 1, dtype=np.int64)
    for blk in row_blocks(L - 1, N):
        rows = counts[blk.start + 1:blk.stop + 1] % l     # row 0 is x = 1
        trace_red[blk] = (rows.astype(np.int64, copy=False) @ W % l) @ place
        xb = x[blk]
        acc = np.full(len(xb), -1, dtype=np.int64)        # dlog of u(x), -1 for 0
        for c in u_dlogs:
            nz = acc >= 0
            acc[nz] = (acc[nz] + xb[nz]) % L              # acc * x
            if c >= 0:                                    # acc + c
                z = zech[(c - acc) % L]
                acc = np.where(acc < 0, c, np.where(z < 0, -1, (acc + z) % L))
        nz = acc >= 0
        u_nonzero[blk] = nz
        norm_u[blk][nz] = encode_v[acc[nz] * M % L // M * pull % Lv]
    return NormIdentity(x, u_nonzero, trace_red, norm_u, trace_red == norm_u)


def lucas_check(c: int, q_v: int, d: int, digits, l: int) -> bool:
    """binom(c*(q_v^d-1)/(q_v-1), sum r_j q_v^j) = prod binom(c, r_j) mod l.

    q_v must be a power of l; digits are the base-q_v digits r_j < q_v - 1.
    Both sides are computed with exact integer binomials.
    """
    qq = q_v
    while qq % l == 0:
        qq //= l
    if qq != 1:
        raise ValueError("q_v must be a power of l")
    if len(digits) != d or not all(0 <= r < q_v - 1 for r in digits):
        raise ValueError("need d digits, each in [0, q_v - 2]")
    c_tilde = c * (q_v ** d - 1) // (q_v - 1)
    r = sum(rj * q_v ** j for j, rj in enumerate(digits))
    lhs = comb(c_tilde, r) % l
    rhs = 1
    for rj in digits:
        rhs = rhs * comb(c, rj) % l
    return lhs == rhs


@dataclass
class UnitRootReport:
    skipped: bool            # u(x) = 0, nothing to check
    min_slope_zero: bool
    fully_ordinary: bool     # advisory: slopes == (0, 1, ..., n-1)


def unit_root_check(test: OrdinaryTest, rec: CharPolyRecord,
                    slopes: tuple) -> UnitRootReport:
    """u(x) != 0 forces a unit Frobenius eigenvalue: min normalized slope 0,
    for the slopes that newton_polygon returned for the record at test.lam.

    The slope chain s_i <= s_(i+1) + 1 is quoted from Drinfeld--Kedlaya and
    not re-verified; full ordinarity is reported as advisory only.
    """
    # u has coefficients in F_l, so it evaluates in whatever field rec.x lives in
    if test.u_at(rec.x).is_zero():
        return UnitRootReport(True, False, False)
    min_zero = min(slopes) == 0
    full = list(slopes) == list(range(test.params.n))
    if not min_zero:
        raise VerificationFailed(
            f"unit-root violation at x_dlog={rec.x_dlog}: slopes {slopes}")
    return UnitRootReport(False, min_zero, full)
