"""Finite unitary groups GU_n(F_{q^2}) and constructive Hermitian normalization.

Conjugation is x -> x^q; the adjoint is conjugate transpose. A Hermitian space
is a Gram matrix A with A-dagger = A. Normalization to the identity form runs
Hilbert 90 (a dlog division), a rescale making the pairing Hermitian, and
Hermitian elimination on the Gram matrix using surjectivity of the norm
F_{q^2} -> F_q.

The normalization layer runs on dlog rows (an entry is its dlog, or None for
zero; conjugation multiplies a dlog by q). HermitianSpace holds the Gram
matrix that way, checks it and runs _eliminate once, which both decides
nondegeneracy and finds C; normal_form returns that C after
certifies_identity, the one check of C-dagger A C = I. FFElem matrices appear
only at the interface: hermitian_space, diagonalize_to_identity and _pairing
convert on the way in and out.

The symmetric-power embedding and induced-representation spectra realize the
matrix constructions used in the big-image arguments. Both spectra are fixed
by the construction and checked by one characteristic-polynomial identity;
matrix_eigenvalues, the root scan, is used by neither.
"""

from __future__ import annotations

from itertools import chain
from math import prod

from .ff import (TABLE_LIMIT, FFElem, FieldDesc, NotPrime, TooLarge, _is_prime,
                 check_table_size, embed, extension_of, field_make, prime_power,
                 pull_back)
from .linalg import det, mat_inv, mat_mul
from .util import check


class Degenerate(ValueError):
    pass


def gu_fields(q):
    """(F_q, F_{q^2}) with the quadratic extension's embedding recorded."""
    Fq = field_make(*prime_power(q))
    return Fq, extension_of(Fq, 2)


def adjoint(M, q):
    """Conjugate transpose: (M^c)^t with c the q-power map."""
    n = len(M)
    return [[M[j][i] ** q for j in range(n)] for i in range(len(M[0]))]


def is_gu(M, q, Fq: FieldDesc):
    """The multiplier in F_q^x if M-dagger * M is a scalar fixed by x -> x^q,
    else None."""
    n = len(M)
    P = mat_mul(adjoint(M, q), M)
    lam = P[0][0]
    if lam.is_zero():
        return None
    Fq2 = lam.field
    for i in range(n):
        for j in range(n):
            want = lam if i == j else Fq2.zero()
            if P[i][j] != want:
                return None
    # None unless lam = lam^q, i.e. unless lam lies in the embedded F_q
    return pull_back(lam, Fq)


def hilbert90_eta(lam: FFElem, q: int) -> FFElem:
    """The first eta (in dlog order) with lam = eta^q / eta, for lam of norm
    one in F_{q^2}.

    eta = g^k gives eta^q / eta = g^(k(q-1)), and lam has norm one exactly
    when q - 1 divides its dlog, so eta is g^(dlog(lam) / (q-1)).
    """
    if lam.is_zero() or lam.k % (q - 1):
        raise ValueError("input must have norm 1")
    return lam.field.from_dlog(lam.k // (q - 1))


def _conj(ks, q, L):
    """x -> x^q on dlogs k in [0, L): k -> q k mod L."""
    return [None if k is None else k * q % L for k in ks]


def adjoint_ks(field: FieldDesc, M, q):
    """The conjugate transpose of the dlog rows M."""
    return [_conj(col, q, field.q - 1) for col in zip(*M)]


class HermitianSpace:
    """A Hermitian form on F_{q^2}^n as the dlog rows of its Gram matrix A.

    Construction checks A-dagger = A and runs the Hermitian elimination
    (_eliminate) once: the form is nondegenerate exactly when it completes,
    and normal_form returns the basis change it found.
    """
    __slots__ = ("q", "field", "rows", "nondegenerate", "_columns")

    def __init__(self, q: int, field: FieldDesc, rows: list):
        # field is F_{q^2}; rows are n x n dlogs (None for zero)
        if any(len(row) != len(rows) for row in rows) or \
                adjoint_ks(field, rows, q) != rows:
            raise ValueError("gram matrix is not Hermitian")
        self.q, self.field, self.rows = q, field, rows
        self._columns = _eliminate(field, rows, q)
        self.nondegenerate = self._columns is not None


def hermitian_space(q, gram) -> HermitianSpace:
    """The space of an FFElem Gram matrix over F_{q^2}."""
    return HermitianSpace(q, *_gram_ks(gram))


def _gram_ks(A):
    """(field, rows of A as dlogs): the form as _pairing reads it."""
    field = A[0][0].field
    return field, [field.to_ks(row) for row in A]


def _pair(field, A, x, y, q):
    """x-dagger A y for dlog column vectors: sum_i x_i^q (A y)_i."""
    dot = field.k_dot
    return dot(_conj(x, q, field.q - 1), [dot(row, y) for row in A])


def _pairing(G, x, y, q):
    """x-dagger A y for FFElem column vectors, with G = _gram_ks(A)."""
    field, A = G
    return FFElem(field, _pair(field, A, field.to_ks(x), field.to_ks(y), q))


def _eliminate(field: FieldDesc, A, q):
    """The columns of a basis change C with C-dagger A C = I, by Hermitian
    elimination on the Gram matrix; None when A is degenerate.

    W holds the remaining vectors w_k (dlog columns, from the standard basis)
    and G their Gram matrix G[j][k] = <w_j, w_k> (from A). Each step takes
    v = w_i for the first i with G[i][i] != 0; else, every w_k being
    isotropic, v = w_i + g^c w_j for the first pair i < j with G[i][j] != 0
    and the first c in dlog order with
      <v, v> = g^(cq) G[j][i] + g^c G[i][j] != 0,
    which exists because x -> x^q is additive and the trace F_{q^2} -> F_q is
    onto. The row of v is <v, w_k> = G[i][k] + g^(cq) G[j][k]. v is scaled
    by eta with N(eta) = <v,v>^(-1) (a dlog division: <v,v> lies in F_q^x);
    then with a_k = <v, w_k>, w_k <- w_k - a_k v and, as <v,v> = 1,
    G[j][k] <- G[j][k] - a_j^q a_k. A vector that reaches zero keeps a zero
    row and column of G, so no later step picks it. A step that finds
    neither a pivot nor a pair has G = 0 on a nonzero span: the form is
    degenerate there, and on F_{q^2}^n.
    """
    n, L = len(A), field.q - 1
    add, mul, row_sub = field.k_add, field.k_mul, field.k_row_sub
    W = [[0 if i == j else None for j in range(n)] for i in range(n)]
    G = [list(row) for row in A]
    columns = []
    for _ in range(n):
        i = next((i for i in range(n) if G[i][i] is not None), None)
        if i is not None:
            v, r, vv = list(W[i]), G[i], G[i][i]
        else:                 # G stays Hermitian: G[j][i] = G[i][j]^q
            i, j = next(((i, j) for i in range(n) for j in range(i + 1, n)
                         if G[i][j] is not None), (None, None))
            if i is None:
                return None
            wv, vw = G[j][i], G[i][j]
            for c in range(L):
                vv = add(mul(c * q, wv), mul(c, vw))
                if vv is not None:
                    break
            v = [add(x, mul(c, y)) for x, y in zip(W[i], W[j])]
            r = [add(x, mul(c * q, y)) for x, y in zip(G[i], G[j])]
        eta, rem = divmod(-vv % L, q + 1)
        check(not rem, "<v,v> is not in F_q")
        v = [None if k is None else (k + eta) % L for k in v]
        a = [None if k is None else (k + eta * q) % L for k in r]
        columns.append(v)
        if len(columns) == n:
            break
        vcols = [k for k, x in enumerate(v) if x is not None]
        acols = [k for k, x in enumerate(a) if x is not None]
        for w, row, aj in zip(W, G, a):
            if aj is not None:
                row_sub(w, aj, v, vcols)          # w_j - a_j v
                row_sub(row, aj * q, a, acols)    # G[j][k] - a_j^q a_k
    return columns


def normal_form(space: HermitianSpace):
    """The dlog rows of a basis change C with C-dagger A C = I: the columns
    of the space's one elimination (_eliminate), certified by
    certifies_identity."""
    if not space.nondegenerate:
        raise Degenerate("the form is degenerate")
    C = [list(row) for row in zip(*space._columns)]
    check(certifies_identity(space.field, space.rows, C, space.q),
          "C-dagger A C is not I")
    return C


def diagonalize_to_identity(space: HermitianSpace):
    """normal_form as FFElem rows: C with C-dagger A C = I."""
    return [space.field.from_ks(row) for row in normal_form(space)]


def certifies_identity(field: FieldDesc, A, C, q):
    """Whether C-dagger A C = I, for square dlog rows A and C over F_{q^2}.

    Entry (i, j) is <c_i, c_j> for the columns c of C; every entry is
    computed, so a non-Hermitian A is rejected too.
    """
    L, dot = field.q - 1, field.k_dot
    cols = list(zip(*C))
    ACs = [[dot(row, c) for row in A] for c in cols]
    for i, c in enumerate(cols):
        cq = _conj(c, q, L)
        for j, ac in enumerate(ACs):
            if dot(cq, ac) != (0 if i == j else None):
                return False
    return True


def conjugate_into_gu(generators, P, q):
    """Conjugate matrices preserving the pairing P up to multiplier into GU_n.

    P must satisfy P-dagger = lam * P with lam of norm 1. Pipeline: Hilbert 90
    gives eta with lam = eta^q/eta, so eta^(-1) P is Hermitian; diagonalize it
    to I; conjugate. Returns (new generators, C, certificate multipliers).
    """
    n = len(P)
    Fq = gu_fields(q)[0]
    Pdag = adjoint(P, q)
    lam = None
    for i in range(n):
        for j in range(n):
            if not P[i][j].is_zero():
                lam = Pdag[i][j] / P[i][j]
                break
        if lam is not None:
            break
    if lam is None:
        raise Degenerate("zero pairing")
    if [[lam * x for x in row] for row in P] != Pdag:
        raise ValueError("P-dagger is not a scalar multiple of P")
    eta = hilbert90_eta(lam, q)
    einv = eta.inv()
    A = [[einv * x for x in row] for row in P]
    space = hermitian_space(q, A)
    C = diagonalize_to_identity(space)
    Cinv = mat_inv(C)
    out = []
    multipliers = []
    for M in generators:
        Mc = mat_mul(Cinv, mat_mul(M, C))
        mult = is_gu(Mc, q, Fq)
        check(mult is not None, "conjugated generator not unitary")
        out.append(Mc)
        multipliers.append(mult)
    return out, C, multipliers


# ---------------------------------------------------------------------------
# symmetric powers and induced representations

def sym_power_matrix(M, m):
    """Action of a 2x2 matrix on Sym^(m-1) of the standard representation,
    in the monomial basis x^(m-1), x^(m-2) y, ..., y^(m-1)."""
    a, b, c, d = M[0][0], M[0][1], M[1][0], M[1][1]
    field = a.field
    deg = m - 1
    out = [[field.zero()] * m for _ in range(m)]
    # column j: image of x^(deg-j) y^j = (a x + c y)^(deg-j) (b x + d y)^j
    for j in range(m):
        poly = {0: field.one()}  # exponent of y -> coefficient
        for _ in range(deg - j):
            poly = _lin_mul(poly, a, c, field)
        for _ in range(j):
            poly = _lin_mul(poly, b, d, field)
        for ey, coeff in poly.items():
            out[ey][j] = coeff
    return out


def _lin_mul(poly, cx, cy, field):
    out = {}
    for ey, co in poly.items():
        if not cx.is_zero():
            out[ey] = out.get(ey, field.zero()) + co * cx
        if not cy.is_zero():
            out[ey + 1] = out.get(ey + 1, field.zero()) + co * cy
    return out


def sym_power_form(m, field):
    """Gram matrix on Sym^(m-1) induced by the standard symplectic form,
    from monomial-basis pairings: antidiagonal (m-1-i)! i! (-1)^i."""
    G = [[field.zero()] * m for _ in range(m)]
    fact = [1] * m
    for i in range(1, m):
        fact[i] = fact[i - 1] * i
    for i in range(m):
        v = fact[m - 1 - i] * fact[i] * (-1) ** i
        G[i][m - 1 - i] = field.from_int(v % field.p)
    return G


def sym_power_embed(beta: int, n: int, m: int, p: int):
    """Sym^(m-1) of diag(beta, beta^(-1))^n, conjugated into SU_m(F_{p^2}).

    Returns (B, spectrum, alpha): B-dagger B = I, det B = 1, alpha = beta^2
    and the spectrum e_j = beta^(-n(m-1)) alpha^(nj), j < m, in dlog order,
    that of the diagonal matrix B is conjugate to; char_poly_matrix(B) =
    prod_j (X - e_j) checks it. TooLarge when m^3 exceeds TABLE_LIMIT.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if m ** 3 > TABLE_LIMIT:
        raise TooLarge(f"m = {m}: m^3 exceeds table limit {TABLE_LIMIT}")
    check_table_size(p, 2)
    if p == 2 or not _is_prime(p):
        raise NotPrime(f"p = {p} must be an odd prime")
    if p <= m - 1:
        raise ValueError("need p > m-1 for the induced form")
    Fp, Fp2 = gu_fields(p)
    b2 = embed(Fp.from_int(beta), Fp2)
    if b2.is_zero():
        raise ValueError("beta must be nonzero mod p")
    # diag(beta, beta^(-1))^n = diag(beta^n, beta^(-n)): one dlog product each
    Mn = [[b2 ** n, Fp2.zero()], [Fp2.zero(), b2 ** -n]]
    S = sym_power_matrix(Mn, m)
    alpha = b2 * b2
    if m == 1:
        return S, [Fp2.one()], alpha
    G = sym_power_form(m, Fp2)
    (B,), _, mults = conjugate_into_gu([S], G, p)
    check(mults[0] == Fp.one() and det(B) == Fp2.one(), "B is not in SU_m")
    spectrum = sorted((b2 ** (-n * (m - 1)) * alpha ** (n * j) for j in range(m)),
                      key=lambda e: e.k)
    poly = [Fp2.one()]                        # prod_j (X - e_j), ascending
    for e in spectrum:
        poly = [a - e * c for a, c in zip([Fp2.zero()] + poly, poly + [Fp2.zero()])]
    check(char_poly_matrix(B) == poly,
          "the spectrum is not beta^(-n(m-1)) alpha^(nj)")
    return B, spectrum, alpha


def char_poly_matrix(M):
    """det(X I - M) as an ascending coefficient list over the entry field.

    M is brought to upper Hessenberg form H by similarity (Gaussian
    elimination below the subdiagonal, row swaps paired with column swaps),
    then the leading principal minors p_k = det(X I - H_k) follow the
    recurrence p_k = (X - h_kk) p_(k-1) - sum_(i<k) h_ik (h_(i+1,i) ...
    h_(k,k-1)) p_(i-1). O(n^3) field operations, on dlogs.
    """
    n = len(M)
    field = M[0][0].field
    add, mul, neg = field.k_add, field.k_mul, field.k_neg
    H = [field.to_ks(row) for row in M]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1] is not None), None)
        if piv is None:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        pk = H[m][m - 1]
        for i in range(m + 1, n):
            if H[i][m - 1] is None:
                continue
            u = H[i][m - 1] - pk              # row_i -= u row_m
            field.k_row_sub(H[i], u, H[m],
                            [c for c in range(n) if H[m][c] is not None])
            for row in H:                     # col_m += u col_i
                row[m] = add(row[m], mul(u, row[i]))
    polys = [[0]]                             # p_0 = 1
    for k in range(n):
        p = [None] + polys[k]                 # X p_(k-1)
        for d, c in enumerate(polys[k]):
            p[d] = add(p[d], neg(mul(H[k][k], c)))
        prod = 0                              # h_(i+1,i) ... h_(k,k-1)
        for i in range(k - 1, -1, -1):
            prod = mul(prod, H[i + 1][i])
            if prod is None:
                break
            f = mul(H[i][k], prod)
            for d, c in enumerate(polys[i]):
                p[d] = add(p[d], neg(mul(f, c)))
        polys.append(p)
    return field.from_ks(polys[n])


def matrix_eigenvalues(M):
    """Eigenvalues (with multiplicity) by scanning the field for roots of the
    characteristic polynomial; extends the field if some roots live upstairs."""
    field = M[0][0].field
    cp = char_poly_matrix(M)
    eigs, rem = _roots_with_multiplicity(cp, field)
    if not rem and len(eigs) == len(M):
        return eigs
    deg = len(rem) - 1
    E = extension_of(field, deg)
    cp_up = [embed(c, E) for c in cp]
    eigs_up, rem_up = _roots_with_multiplicity(cp_up, E)
    check(not rem_up, "splitting field too small")
    return eigs_up


def _roots_with_multiplicity(poly, field):
    """Roots of poly in field, with multiplicity, scanning zero and then the
    dlog order; also the cofactor without roots, as dlogs ([] if constant).

    A candidate that is no root of the cofactor is no root of any factor of
    it, so the scan never goes back: it stays on a root until that root is
    divided out completely, then moves on."""
    add, mul = field.k_add, field.k_mul

    def ev(pol, x):
        acc = None                            # Horner's rule
        for c in reversed(pol):
            acc = add(mul(acc, x), c)
        return acc

    def divide_linear(pol, r):
        # pol / (X - r), exact
        n = len(pol) - 1
        q = [None] * n
        q[n - 1] = pol[n]
        for i in range(n - 1, 0, -1):
            q[i - 1] = add(pol[i], mul(r, q[i]))
        check(add(pol[0], mul(r, q[0])) is None, "X - r does not divide")
        return q

    eigs = []
    cur = field.to_ks(poly)
    candidates = chain((None,), range(field.q - 1))
    missing = object()
    x = next(candidates)
    while len(cur) > 1 and x is not missing:
        if ev(cur, x) is None:
            eigs.append(x)
            cur = divide_linear(cur, x)
        else:
            x = next(candidates, missing)
    return field.from_ks(eigs), (cur if len(cur) > 1 else [])


def induced_spectrum(psi_values, field: FieldDesc):
    """Eigenvalues of the induced block-cycle matrix for a generator Frobenius.

    psi_values are the m nonzero values of the character on the sigma-orbit;
    Frobenius acts by the generator 1 of Z/m, so the matrix M sends e_i to
    psi_i e_(i+1) and det(X - M) = X^m - c with c = prod_i psi_i, which
    char_poly_matrix checks. As mu_m lies in F, the roots are lam * mu_m for
    any lam with lam^m = c: in F when c is an m-th power there, else in the
    degree-m extension. Returned in dlog order, each checked to satisfy
    e^m = c.
    """
    m = len(psi_values)
    if m < 2:
        raise ValueError("need m >= 2")
    if (field.q - 1) % m != 0:
        raise ValueError("ambient field must contain mu_m")
    M = [[field.zero()] * m for _ in range(m)]
    for i, v in enumerate(psi_values):
        if v.is_zero():
            raise ValueError("psi values must be nonzero")
        M[(i + 1) % m][i] = v
    c = prod(psi_values, start=field.one())
    check(char_poly_matrix(M) == [-c] + [field.zero()] * (m - 1) + [field.one()],
          "det(X - M) is not X^m - prod psi")
    if c.k % m:
        c = embed(c, extension_of(field, m))
    E, N = c.field, c.field.q - 1
    eigs = E.from_ks(sorted((c.k // m + j * N // m) % N for j in range(m)))
    check(all(e ** m == c for e in eigs), "an eigenvalue has e^m != c")
    return eigs
