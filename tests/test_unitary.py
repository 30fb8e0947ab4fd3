import random
import time
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwork_forge.ff import embed, field_make
from dwork_forge.linalg import _echelon, det, mat_mul
from dwork_forge import linalg, unitary
from dwork_forge.unitary import (Degenerate, HermitianSpace, _conj, _gram_ks,
                                 _pair, _pairing, _roots_with_multiplicity,
                                 adjoint, certifies_identity,
                                 conjugate_into_gu, diagonalize_to_identity,
                                 gu_fields, hermitian_space, hilbert90_eta,
                                 induced_spectrum, is_gu, matrix_eigenvalues,
                                 normal_form, sym_power_embed, sym_power_form,
                                 sym_power_matrix)
from dwork_forge.util import VerificationFailed, check

from test_linalg import mat_identity


def rand_matrix(rng, field, n):
    return [[field.from_encoding(rng.randrange(field.q)) for _ in range(n)]
            for _ in range(n)]


def test_adjoint_involution_and_antihom():
    q = 5
    Fq, Fq2 = gu_fields(q)
    rng = random.Random(0)
    I = mat_identity(Fq2, 3)
    assert adjoint(I, q) == I
    a = Fq2.gen()
    aI = [[a if i == j else Fq2.zero() for j in range(2)] for i in range(2)]
    assert adjoint(aI, q)[0][0] == a ** q
    for _ in range(25):
        A = rand_matrix(rng, Fq2, 3)
        B = rand_matrix(rng, Fq2, 3)
        assert adjoint(adjoint(A, q), q) == A
        assert adjoint(mat_mul(A, B), q) == mat_mul(adjoint(B, q), adjoint(A, q))


def test_is_gu():
    q = 3
    Fq, Fq2 = gu_fields(q)
    I = mat_identity(Fq2, 2)
    assert is_gu(I, q, Fq) == Fq.one()
    a = Fq2.gen()
    aI = [[a if i == j else Fq2.zero() for j in range(2)] for i in range(2)]
    mult = is_gu(aI, q, Fq)
    assert mult is not None and embed(mult, Fq2) == a ** (q + 1)
    # generic matrices are overwhelmingly not unitary (sampling report; the
    # tiny field keeps the unitary fraction around a percent)
    rng = random.Random(1)
    hits = sum(is_gu(rand_matrix(rng, Fq2, 2), q, Fq) is not None
               for _ in range(300))
    assert hits < 30


def test_hilbert90():
    for q in (3, 5, 7):
        Fq, Fq2 = gu_fields(q)
        assert hilbert90_eta(Fq2.one(), q) is not None
        lam = -Fq2.one()
        eta = hilbert90_eta(lam, q)
        assert eta ** q / eta == lam
        rng = random.Random(q)
        for _ in range(20):
            eta0 = Fq2.from_dlog(rng.randrange(Fq2.q - 1))
            lam = eta0 ** q / eta0
            assert lam ** (q + 1) == Fq2.one()
            eta = hilbert90_eta(lam, q)
            assert eta ** q / eta == lam
        with pytest.raises(ValueError):
            hilbert90_eta(Fq2.gen(), q)  # generator has norm != 1


# -- oracles: the exhaustive scans the closed forms replaced ------------------

def scan_hilbert90_eta(lam, q):
    """First eta in dlog order with lam = eta^q / eta; ValueError unless lam
    has norm 1."""
    Fq2 = lam.field
    if lam ** (q + 1) != Fq2.one():
        raise ValueError("input must have norm 1")
    for eta in Fq2.nonzero_elements():
        if eta ** q / eta == lam:
            return eta
    raise AssertionError("Hilbert 90 violated")


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_closed_forms_match_the_scans(q):
    # every element of F_{q^2}: norm-one inputs get the scan's first
    # solution, all others the scan's exception type
    Fq, Fq2 = gu_fields(q)
    for x in Fq2.elements():
        assert outcome(hilbert90_eta, x, q) == outcome(scan_hilbert90_eta, x, q)


def test_diagonalize_examples():
    q = 5
    Fq, Fq2 = gu_fields(q)
    I = mat_identity(Fq2, 2)
    sp = hermitian_space(q, I)
    C = diagonalize_to_identity(sp)
    assert mat_mul(adjoint(C, q), mat_mul(I, C)) == I
    two, three = embed(Fq.from_int(2), Fq2), embed(Fq.from_int(3), Fq2)
    A = [[two, Fq2.zero()], [Fq2.zero(), three]]
    C = diagonalize_to_identity(hermitian_space(q, A))
    assert mat_mul(adjoint(C, q), mat_mul(A, C)) == I
    # the diagonal entries are norm preimages of the inverses
    assert (C[0][0] ** (q + 1)) == embed(Fq.from_int(2).inv(), Fq2)


def test_diagonalize_degenerate_rejected():
    q = 3
    Fq, Fq2 = gu_fields(q)
    z = Fq2.zero()
    A = [[z, z], [z, z]]
    sp = hermitian_space(q, A)
    assert not sp.nondegenerate
    with pytest.raises(Degenerate):
        diagonalize_to_identity(sp)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (5, 4), (7, 3)])
def test_diagonalize_random_suite(q, n):
    Fq, Fq2 = gu_fields(q)
    rng = random.Random(q * 10 + n)
    done = 0
    while done < 50:
        M = rand_matrix(rng, Fq2, n)
        A = [[x + y for x, y in zip(r1, r2)]
             for r1, r2 in zip(M, adjoint(M, q))]
        if det(A).is_zero():
            continue
        C = diagonalize_to_identity(hermitian_space(q, A))
        assert mat_mul(adjoint(C, q), mat_mul(A, C)) == mat_identity(Fq2, n)
        done += 1


def test_conjugate_symplectic_generators_into_gu():
    q = 7
    Fq, Fq2 = gu_fields(q)
    z, o = Fq2.zero(), Fq2.one()
    J = [[z, o], [-o, z]]
    S = [[z, o], [-o, z]]
    T = [[o, o], [z, o]]
    gens, C, mults = conjugate_into_gu([S, T], J, q)
    assert all(m == Fq.one() for m in mults)
    for M in gens:
        assert is_gu(M, q, Fq) == Fq.one()
    # multiplier is multiplicative along products
    P = mat_mul(gens[0], gens[1])
    assert is_gu(P, q, Fq) == Fq.one()


def test_sym_power_matrix_is_homomorphism():
    F = field_make(7, 1)
    rng = random.Random(3)
    for m in (2, 3, 4):
        for _ in range(10):
            A = rand_matrix(rng, F, 2)
            B = rand_matrix(rng, F, 2)
            SA, SB = sym_power_matrix(A, m), sym_power_matrix(B, m)
            assert sym_power_matrix(mat_mul(A, B), m) == mat_mul(SA, SB)


def test_sym_power_form_parity():
    # G is symmetric for odd m (orthogonal case), antisymmetric for even m
    F = field_make(11, 1)
    for m in (2, 3, 4):
        G = sym_power_form(m, F)
        Gt = [list(r) for r in zip(*G)]
        if m % 2:
            assert Gt == G
        else:
            assert Gt == [[-x for x in row] for row in G]


@pytest.mark.parametrize("p,m,n,beta", [(7, 2, 1, 3), (11, 3, 2, 2), (13, 2, 3, 2)])
def test_sym_power_embed(p, m, n, beta):
    B, eigs, alpha = sym_power_embed(beta, n, m, p)
    Fq = field_make(p, 1)
    if m > 1:
        assert is_gu(B, p, Fq) == Fq.one()
        assert det(B) == B[0][0].field.one()
    # spectrum = {1, alpha^n, ..., alpha^(n(m-1))} up to a common scalar
    expect = sorted((alpha ** (n * j)).k for j in range(m))
    for e0 in eigs:
        scaled = sorted((e / e0).k for e in eigs)
        if scaled == expect:
            break
    else:
        pytest.fail("spectrum does not match up to scalar")
    # and exactly: beta^(-n(m-1)) alpha^(nj) for j < m, in dlog order
    b = embed(Fq.from_int(beta), alpha.field)
    assert eigs == sorted((b ** (-n * (m - 1)) * alpha ** (n * j)
                           for j in range(m)), key=lambda e: e.k)


def _off_in_one_coefficient(char_poly):
    def mutant(M):
        cp = char_poly(M)
        cp[1] = cp[1] + cp[1].field.one()
        return cp
    return mutant


def _spectrum_times_beta(char_poly):
    def mutant(M):    # beta = 2 below
        b = M[0][0].field.from_int(2)
        return char_poly([[b * x for x in row] for row in M])
    return mutant


@pytest.mark.parametrize("mutate", [_off_in_one_coefficient,
                                    _spectrum_times_beta])
@pytest.mark.parametrize("p,m,n", [(11, 3, 2), (13, 6, 1)])
def test_sym_power_embed_checks_the_spectrum_identity(monkeypatch, mutate,
                                                      p, m, n):
    # the check pins the scalar: beta times the spectrum fails it too
    monkeypatch.setattr(unitary, "char_poly_matrix",
                        mutate(unitary.char_poly_matrix))
    with pytest.raises(VerificationFailed, match="spectrum"):
        sym_power_embed(2, n, m, p)


def test_sym_power_embed_scans_no_roots(monkeypatch):
    # the spectrum is fixed by the construction: no root scan of F_{p^2}
    def refuse(*args):
        raise AssertionError("root scan")
    monkeypatch.setattr(unitary, "matrix_eigenvalues", refuse)
    monkeypatch.setattr(unitary, "_roots_with_multiplicity", refuse)
    B, eigs, alpha = sym_power_embed(2, 1, 6, 13)
    assert len(eigs) == 6


@pytest.mark.parametrize("n", [10 ** 9, 10 ** 9 + 3])
def test_sym_power_embed_large_exponent_is_one_dlog_step(n):
    # diag(beta, beta^-1)^n is formed by dlogs, not n products: a huge n
    # answers at once and equals n mod p^2 - 1, the order of F_{p^2}^x
    t0 = time.perf_counter()
    B, eigs, alpha = sym_power_embed(2, n, 3, 11)
    assert time.perf_counter() - t0 < 1.0
    assert (B, eigs, alpha) == sym_power_embed(2, n % (11 ** 2 - 1), 3, 11)


def test_induced_spectrum():
    F13 = field_make(13, 1)
    # m = 2 with the antidiagonal example [[0, c], [1, 0]]
    c = F13.from_int(4)  # a square: eigenvalues +-2 in F_13
    eigs = induced_spectrum([c, F13.one()], F13)
    assert sorted(e.encoding for e in eigs) == [2, 11]
    # non-square product: eigenvalues live in F_169, ratio still -1
    c = F13.from_int(2)
    eigs = induced_spectrum([c, F13.one()], F13)
    assert eigs[0].field.q == 169
    assert (eigs[0] / eigs[1]) ** 2 == eigs[0].field.one()
    # m = 3: ratios are exactly the cube roots of unity
    rng = random.Random(9)
    for _ in range(10):
        psis = [F13.from_dlog(rng.randrange(12)) for _ in range(3)]
        eigs = induced_spectrum(psis, F13)
        field = eigs[0].field
        ratios = {(e / eigs[0]).k for e in eigs}
        mu3 = {(field.q - 1) // 3 * j % (field.q - 1) for j in range(3)}
        assert ratios == mu3


def test_induced_spectrum_validation():
    F13 = field_make(13, 1)
    with pytest.raises(ValueError):
        induced_spectrum([F13.one()], F13)           # m < 2
    with pytest.raises(ValueError):
        induced_spectrum([F13.zero(), F13.one()], F13)
    F7 = field_make(7, 1)
    with pytest.raises(ValueError):
        induced_spectrum([F7.one()] * 4, F7)         # 4 does not divide 6


def induced_matrix(psis, field):
    """The block-cycle matrix sending e_i to psi_i e_(i+1)."""
    m = len(psis)
    M = [[field.zero()] * m for _ in range(m)]
    for i, v in enumerate(psis):
        M[(i + 1) % m][i] = v
    return M


def induced_cases():
    """(field, psis): every psi pair over F_7 and F_13, and 100 seeded
    triples over each."""
    rng = random.Random(25)
    for p in (7, 13):
        F = field_make(p, 1)
        units = list(F.nonzero_elements())
        for a in units:
            for b in units:
                yield F, [a, b]
        for _ in range(100):
            yield F, [rng.choice(units) for _ in range(3)]


def test_induced_spectrum_matches_the_root_scan():
    # the closed form returns the scan's field and its dlog order, over the
    # base field when c is an m-th power and over the degree-m extension
    # otherwise
    fields = set()
    for F, psis in induced_cases():
        got = [(e.field, e.k) for e in induced_spectrum(psis, F)]
        want = [(e.field, e.k)
                for e in matrix_eigenvalues(induced_matrix(psis, F))]
        assert got == want
        fields.add(got[0][0].q)
    assert fields == {7, 49, 343, 13, 169, 2197}


def test_induced_spectrum_scans_no_roots(monkeypatch):
    def refuse(*args):
        raise AssertionError("root scan")
    monkeypatch.setattr(unitary, "matrix_eigenvalues", refuse)
    monkeypatch.setattr(unitary, "_roots_with_multiplicity", refuse)
    F13 = field_make(13, 1)
    for c in (4, 2):          # a square and a non-square
        assert len(induced_spectrum([F13.from_int(c), F13.one()], F13)) == 2
    assert len(induced_spectrum([F13.from_int(2)] * 3, F13)) == 3


@pytest.mark.parametrize("psis", [(4, 1), (2, 1), (2, 2, 2), (5, 1, 1)])
def test_induced_spectrum_checks_the_char_poly(monkeypatch, psis):
    F13 = field_make(13, 1)
    monkeypatch.setattr(unitary, "char_poly_matrix",
                        _off_in_one_coefficient(unitary.char_poly_matrix))
    with pytest.raises(VerificationFailed, match="X\\^m"):
        induced_spectrum([F13.from_int(x) for x in psis], F13)


def test_matrix_eigenvalues_of_a_diagonal_matrix():
    F13 = field_make(13, 1)
    M = [[F13.from_int(2), F13.zero()], [F13.zero(), F13.from_int(4)]]
    assert sorted(e.encoding for e in matrix_eigenvalues(M)) == [2, 4]


# -- oracle: the Gram-Schmidt on A that the elimination on G replaced --------

def _anisotropic(field, A, vectors, q):
    """The first anisotropic dlog vector for the form A: a given vector, else
    v + g^c w for the first pair and scalar that works."""
    for v in vectors:
        if _pair(field, A, v, v, q) is not None:
            return v
    # polarize: v + g^c w must work for some pair and scalar. Every vector is
    # isotropic here and x -> x^q is additive (q is a power of p), so the
    # first c in dlog order is found from
    #   <v + g^c w, v + g^c w> = g^(cq) <w,v> + g^c <v,w>, zero for every c
    # when <w,v> = <v,w> = 0: such a pair is skipped.
    add, mul = field.k_add, field.k_mul
    for i, v in enumerate(vectors):
        for w in vectors[i + 1:]:
            wv, vw = _pair(field, A, w, v, q), _pair(field, A, v, w, q)
            if wv is None and vw is None:
                continue
            for c in range(field.q - 1):
                if add(mul(c * q, wv), mul(c, vw)) is not None:
                    return [add(x, mul(c, y)) for x, y in zip(v, w)]
    raise Degenerate("no anisotropic vector: form degenerate on the span")


def gram_schmidt(field, A, q):
    """Dlog rows of C with C-dagger A C = I by Hermitian Gram-Schmidt on the
    standard basis, every pairing recomputed from A; Degenerate when some
    step finds no anisotropic vector.

    Each step takes the first anisotropic vector v (_anisotropic), scales it
    by eta with N(eta) = <v,v>^(-1), and subtracts <v,w> v from every
    remaining w, dropping those that become zero."""
    n, L, dot = len(A), field.q - 1, field.k_dot
    remaining = [[0 if i == j else None for j in range(n)] for i in range(n)]
    columns = []
    for _ in range(n):
        v = _anisotropic(field, A, remaining, q)
        # v-dagger A, the conjugate of A v for A Hermitian: <v, w> = vA . w
        vA = _conj([dot(row, v) for row in A], q, L)
        eta, rem = divmod(-dot(vA, v) % L, q + 1)
        check(not rem, "<v,v> is not in F_q")
        v = [None if k is None else (k + eta) % L for k in v]
        vA = [None if k is None else (k + eta * q) % L for k in vA]
        columns.append(v)
        cols = [c for c, k in enumerate(v) if k is not None]
        new_remaining = []
        for w in remaining:
            proj = dot(vA, w)
            if proj is not None:
                field.k_row_sub(w, proj, v, cols)     # w - <v,w> v
            if any(k is not None for k in w):
                new_remaining.append(w)
        remaining = new_remaining
    return [list(row) for row in zip(*columns)]


def full_rank(field, A):
    """The echelon rank test that decided nondegeneracy before the
    elimination did."""
    sparse = [{j: k for j, k in enumerate(row) if k is not None} for row in A]
    return len(_echelon(sparse, field)) == len(A)


def assert_elimination_matches_gram_schmidt(field, A, q):
    sp = HermitianSpace(q, field, A)
    assert sp.nondegenerate == full_rank(field, A)
    assert outcome(normal_form, sp) == outcome(gram_schmidt, field, A, q)
    return sp.nondegenerate


def hermitian_2x2(q):
    """Every Hermitian 2x2 Gram matrix over F_{q^2}, as dlog rows: diagonal
    entries in F_q (dlogs divisible by q + 1), A[1][0] = A[0][1]^q."""
    field = gu_fields(q)[1]
    L = field.q - 1
    diag = [None] + list(range(0, L, q + 1))
    for a in diag:
        for d in diag:
            for b in [None] + list(range(L)):
                yield field, [[a, b], [None if b is None else b * q % L, d]]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_elimination_matches_gram_schmidt_on_every_2x2_form(q):
    forms = list(hermitian_2x2(q))
    assert len(forms) == q ** 4
    verdicts = [assert_elimination_matches_gram_schmidt(field, A, q)
                for field, A in forms]
    assert 0 < sum(verdicts) < len(verdicts)


def random_hermitian_ks(rng, field, n, q, zero_diagonal):
    """A seeded Hermitian Gram matrix as dlog rows; a third of the entries are
    zero, so degenerate forms turn up, and with zero_diagonal every basis
    vector is isotropic and the first step polarizes."""
    L = field.q - 1
    A = [[None] * n for _ in range(n)]
    for i in range(n):
        if not zero_diagonal and rng.random() < 2 / 3:
            A[i][i] = rng.randrange(0, L, q + 1)
        for j in range(i + 1, n):
            if rng.random() < 2 / 3:
                A[i][j] = rng.randrange(L)
                A[j][i] = A[i][j] * q % L
    return A


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_elimination_matches_gram_schmidt_on_seeded_forms(q):
    field = gu_fields(q)[1]
    rng = random.Random(q)
    verdicts = []
    for n in range(1, 7):
        for t in range(60):
            A = random_hermitian_ks(rng, field, n, q, zero_diagonal=t % 2 == 0)
            verdicts.append(assert_elimination_matches_gram_schmidt(field, A, q))
    assert 0 < sum(verdicts) < len(verdicts)


def test_space_decides_nondegeneracy_without_echelon(monkeypatch):
    def refuse(*args):
        raise AssertionError("echelon")
    for mod in (linalg, unitary):
        monkeypatch.setattr(mod, "_echelon", refuse, raising=False)
    field = gu_fields(3)[1]
    assert HermitianSpace(3, field, [[0, None], [None, 0]]).nondegenerate
    assert not HermitianSpace(3, field, [[0, 0], [0, 0]]).nondegenerate


def _find_anisotropic(G, vectors, q):
    """_anisotropic for the form G = _gram_ks(A) and FFElem vectors."""
    field, A = G
    ks = [field.to_ks(v) for v in vectors]
    return field.from_ks(_anisotropic(field, A, ks, q))


def test_find_anisotropic_matches_exhaustive_search():
    # Hermitian forms with zero diagonal make every basis vector isotropic, so
    # the polarization step runs; it must pick what the plain search over
    # pairs and scalars v + c w (c in dlog order) picks.
    def exhaustive(A, vectors, q):
        field = A[0][0].field
        for i, v in enumerate(vectors):
            for w in vectors[i + 1:]:
                for c in field.nonzero_elements():
                    cand = [x + c * y for x, y in zip(v, w)]
                    if not _pairing(_gram_ks(A), cand, cand, q).is_zero():
                        return cand
        return None

    rng = random.Random(5)
    for q in (2, 3, 5, 7):
        Fq, Fq2 = gu_fields(q)
        for n in (2, 3, 4):
            for _ in range(6):
                A = [[Fq2.zero()] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.6:
                            A[i][j] = Fq2.from_encoding(rng.randrange(Fq2.q))
                            A[j][i] = A[i][j] ** q
                basis = mat_identity(Fq2, n)
                want = exhaustive(A, basis, q)
                if want is None:
                    with pytest.raises(Degenerate):
                        _find_anisotropic(_gram_ks(A), basis, q)
                else:
                    assert _find_anisotropic(_gram_ks(A), basis, q) == want


def random_hermitian(rng, field, n, q):
    """A nondegenerate M + M-dagger for random M over F_{q^2}."""
    while True:
        M = rand_matrix(rng, field, n)
        A = [[x + y for x, y in zip(r1, r2)]
             for r1, r2 in zip(M, adjoint(M, q))]
        if not det(A).is_zero():
            return A


def certifies(A, C, q):
    field = A[0][0].field
    return certifies_identity(field, [field.to_ks(row) for row in A],
                              [field.to_ks(row) for row in C], q)


def ffelem_certifies(A, C, q):
    return mat_mul(adjoint(C, q), mat_mul(A, C)) == \
        mat_identity(A[0][0].field, len(A))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4),
       st.integers(0, 2 ** 32))
def test_certificate_matches_the_ffelem_oracle(q, n, seed):
    rng = random.Random(seed)
    Fq, Fq2 = gu_fields(q)
    A = random_hermitian(rng, Fq2, n, q)
    C = diagonalize_to_identity(hermitian_space(q, A))
    assert certifies(A, C, q) and ffelem_certifies(A, C, q)

    def check(A2, C2, want):
        assert certifies(A2, C2, q) == ffelem_certifies(A2, C2, q) == want

    # swapping two columns keeps C-dagger A C = I
    i, j = rng.randrange(n), rng.randrange(n)
    swapped = [row[:] for row in C]
    for row in swapped:
        row[i], row[j] = row[j], row[i]
    check(A, swapped, True)
    # one entry changed: this keeps C-dagger A C = I only when column j is
    # a multiple of e_i and the entry is multiplied by a unit of norm one
    i, j = rng.randrange(n), rng.randrange(n)
    old = C[i][j]
    new = Fq2.from_encoding(rng.choice(
        [e for e in range(Fq2.q) if e != old.encoding]))
    changed = [row[:] for row in C]
    changed[i][j] = new
    keeps = all(C[r][j].is_zero() for r in range(n) if r != i) and \
        not new.is_zero() and (new / old) ** (q + 1) == Fq2.one()
    check(A, changed, keeps)
    # one column scaled by a unit whose norm is not one (over F_4 every unit
    # has norm one)
    if q > 2:
        u = Fq2.from_dlog(rng.choice(
            [k for k in range(Fq2.q - 1) if k % (q - 1)]))
        scaled = [row[:] for row in C]
        for row in scaled:
            row[j] = row[j] * u
        check(A, scaled, False)
    # a non-Hermitian A, at every entry: g is not in F_q, so A[i][j] + g is
    # neither the conjugate of A[j][i] nor, on the diagonal, in F_q
    for i in range(n):
        for j in range(n):
            bad = [row[:] for row in A]
            bad[i][j] = bad[i][j] + Fq2.gen()
            check(bad, C, False)


def restart_scan_roots(poly, field):
    """The oracle: the root scan that starts again from zero after each root
    it divides out."""
    add, mul = field.k_add, field.k_mul

    def ev(pol, x):
        acc = None
        for c in reversed(pol):
            acc = add(mul(acc, x), c)
        return acc

    def divide_linear(pol, r):
        q = [None] * (len(pol) - 1)
        q[-1] = pol[-1]
        for i in range(len(pol) - 2, 0, -1):
            q[i - 1] = add(pol[i], mul(r, q[i]))
        return q

    eigs = []
    cur = field.to_ks(poly)
    missing = object()
    while len(cur) > 1:
        root = next((x for x in chain((None,), range(field.q - 1))
                     if ev(cur, x) is None), missing)
        if root is missing:
            break
        eigs.append(root)
        cur = divide_linear(cur, root)
    return field.from_ks(eigs), (cur if len(cur) > 1 else [])


def poly_mul(a, b):
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def rootless_quadratic(F):
    """The first monic X^2 + bX + c over F with no root in F, ascending."""
    for b in F.elements():
        for c in F.elements():
            if all(x * x + b * x + c != F.zero() for x in F.elements()):
                return [c, b, F.one()]


ROOT_FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1), (2, 4)]


@st.composite
def root_cases(draw):
    """(poly, field, roots): a product of linear factors with multiplicities
    (zero allowed, and forced on request) times no cofactor, a rootless
    quadratic, a random monic cubic or a monic X^k + c of degree 2..4,
    whose other coefficients are zero."""
    F = field_make(*draw(st.sampled_from(ROOT_FIELDS)))
    encs = draw(st.lists(st.integers(0, F.q - 1), max_size=4, unique=True))
    if draw(st.booleans()) and 0 not in encs:
        encs.append(0)
    roots = [F.from_encoding(e) for e in encs
             for _ in range(draw(st.integers(1, 3)))]
    cofactor = draw(st.sampled_from(["none", "rootless", "cubic", "sparse"]))
    if cofactor == "none":
        poly = [F.one()]
    elif cofactor == "rootless":
        poly = rootless_quadratic(F)
    elif cofactor == "cubic":
        poly = [F.from_encoding(draw(st.integers(0, F.q - 1)))
                for _ in range(3)] + [F.one()]
    else:
        k = draw(st.integers(2, 4))
        poly = [F.from_encoding(draw(st.integers(0, F.q - 1)))] + \
            [F.zero()] * (k - 1) + [F.one()]
    for r in roots:
        poly = poly_mul(poly, [-r, F.one()])
    return poly, F, roots, cofactor


@settings(max_examples=150, deadline=None)
@given(root_cases())
def test_root_scan_matches_restart_scan(case):
    poly, F, roots, cofactor = case
    eigs, rem = _roots_with_multiplicity(poly, F)
    want_eigs, want_rem = restart_scan_roots(poly, F)
    assert eigs == want_eigs and rem == want_rem
    if cofactor in ("none", "rootless"):
        assert sorted(e.encoding for e in eigs) == sorted(r.encoding for r in roots)
        assert len(rem) == (3 if cofactor == "rootless" else 0)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_matrix_eigenvalues_extension_matches_restart_scan(monkeypatch, p, f):
    # a rootless quadratic's companion block plus eigenvalues a (twice) and 0
    F = field_make(p, f)
    c, b, _ = rootless_quadratic(F)
    a, z = F.gen(), F.zero()
    M = [[z, -c, z, z, z], [F.one(), -b, z, z, z], [z, z, a, F.one(), z],
         [z, z, z, a, z], [z, z, z, z, z]]
    eigs = matrix_eigenvalues(M)
    assert len(eigs) == 5 and eigs[0].field is not F
    monkeypatch.setattr(unitary, "_roots_with_multiplicity", restart_scan_roots)
    assert [(e.field, e.encoding) for e in eigs] == \
        [(e.field, e.encoding) for e in matrix_eigenvalues(M)]
