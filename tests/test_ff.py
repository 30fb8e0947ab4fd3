import random
import tracemalloc
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwork_forge import ff, util
from dwork_forge import hypergeom as hg
from dwork_forge.cyclotomic import CyclotomicInt
from dwork_forge.ff import (SCALAR_TABLE_LIMIT, FFElem, FFError, FieldDesc, IncompatibleFields,
                            InvalidDegree, NNotDividingQMinus1, NotPrime, TooLarge,
                            _is_prime, _pmod, _pmul, char_exponent, char_value, embed,
                            extension_of, field_make, norm_to_subfield,
                            prime_power, pull_back)


def reference_tables(F):
    """Power, dlog and Zech tables by schoolbook arithmetic on digit lists,
    from the field's defining polynomial and generator."""
    p, f, q = F.p, F.f, F.q
    poly = list(F.defining_poly)

    def digits(enc):
        return [enc // p ** i % p for i in range(f)]

    def times_g(enc):
        prod = [0] * (2 * f)
        for i, a in enumerate(digits(enc)):
            for j, b in enumerate(digits(F.g_encoding)):
                prod[i + j] += a * b
        for i in range(2 * f - 1, f - 1, -1):   # reduce by the monic poly
            c = prod[i]
            for j in range(f + 1):
                prod[i - f + j] -= c * poly[j]
        return sum(c % p * p ** i for i, c in enumerate(prod[:f]))

    pow_tab = [1]
    for _ in range(q - 2):
        pow_tab.append(times_g(pow_tab[-1]))
    dlog = [None] * q
    for k, enc in enumerate(pow_tab):
        dlog[enc] = k
    zech = []
    for enc in pow_tab:
        d = digits(enc)
        d[0] = (d[0] + 1) % p
        zech.append(dlog[sum(c * p ** i for i, c in enumerate(d))])
    return pow_tab, dlog, zech


def test_field_make_examples():
    F7 = field_make(7, 1)
    assert F7.g_encoding in (3, 5)
    F9 = field_make(3, 2)
    g = F9.gen()
    assert g ** 8 == F9.one()
    assert all((g ** k) != F9.one() for k in range(1, 8))
    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(TooLarge):
        field_make(2, 21)


def test_field_arithmetic_matches_integers_mod_p():
    F = field_make(11, 1)
    for a in range(11):
        for b in range(11):
            ea, eb = F.from_encoding(a), F.from_encoding(b)
            assert (ea + eb).encoding == (a + b) % 11
            assert (ea - eb).encoding == (a - b) % 11
            assert (ea * eb).encoding == (a * b) % 11
    assert (-F.from_encoding(4)).encoding == 7
    assert F.from_encoding(3).inv() * F.from_encoding(3) == F.one()


def test_extension_field_axioms():
    # Zech addition is consistent with the underlying polynomial arithmetic
    F = field_make(3, 2)
    els = list(F.elements())
    for a in els:
        for b in els:
            s = a + b
            da = F._enc_to_poly(a.encoding)
            db = F._enc_to_poly(b.encoding)
            want = F._poly_to_enc([(x + y) % 3 for x, y in zip(da, db)])
            assert s.encoding == want


def test_mixed_field_rejected():
    a = field_make(7, 1).one()
    b = field_make(5, 1).one()
    with pytest.raises(IncompatibleFields):
        a + b


def test_norm_examples_and_properties():
    F3 = field_make(3, 1)
    F9 = extension_of(F3, 2)
    assert norm_to_subfield(F9.one(), F3) == F3.one()
    g = F9.gen()
    # norm of a generator generates the base multiplicative group
    assert norm_to_subfield(g, F3) ** 2 == F3.one()
    for x in F9.nonzero_elements():
        for y in list(F9.nonzero_elements())[:10]:
            assert norm_to_subfield(x * y, F3) == \
                norm_to_subfield(x, F3) * norm_to_subfield(y, F3)


@pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (9, 2), (5, 3), (7, 2)])
def test_norm_surjective(q, d):
    p, f = (q, 1) if q in (3, 5, 7) else (3, 2)
    base = field_make(p, f)
    big = extension_of(base, d)
    images = {norm_to_subfield(x, base) for x in big.nonzero_elements()}
    assert images == set(base.nonzero_elements())


def test_embedding_is_field_hom():
    base = field_make(3, 2)
    big = extension_of(base, 2)
    for x in base.elements():
        for y in base.elements():
            assert embed(x, big) + embed(y, big) == embed(x + y, big)
            assert embed(x, big) * embed(y, big) == embed(x * y, big)


def test_char_value_examples():
    F7 = field_make(7, 1)
    g = F7.gen()
    assert char_value(3, 0, g) == CyclotomicInt.one(3)
    assert char_value(3, 2, F7.zero()).is_zero()
    assert char_value(3, 1, g) == CyclotomicInt.zeta_pow(3, 1)
    with pytest.raises(NNotDividingQMinus1):
        char_value(5, 1, g)


@pytest.mark.parametrize("q,N", [(7, 3), (13, 3), (31, 5), (11, 5), (31, 3)])
def test_char_value_exponent_additivity(q, N):
    F = field_make(q, 1)
    for y in F.nonzero_elements():
        assert char_value(N, 1, y) ** N == CyclotomicInt.one(N)
        for m1 in range(N):
            for m2 in range(N):
                assert char_value(N, m1 + m2, y) == \
                    char_value(N, m1, y) * char_value(N, m2, y)


def test_char_value_full_homomorphism_small():
    # exhaustive over q <= 31
    for q, N in [(7, 3), (13, 3), (11, 5), (31, 5)]:
        F = field_make(q, 1)
        for m in range(1, N):
            vals = {y.k: char_value(N, m, y) for y in F.nonzero_elements()}
            for y1 in F.nonzero_elements():
                for y2 in F.nonzero_elements():
                    assert vals[(y1 * y2).k] == vals[y1.k] * vals[y2.k]


def test_anchor_inherited_through_towers():
    F7 = field_make(7, 1)
    F49 = extension_of(F7, 2)
    F7_6 = extension_of(F49, 3)
    assert embed(F7.zeta_anchor(3), F49) == F49.zeta_anchor(3)
    assert embed(F49.zeta_anchor(3), F7_6) == F7_6.zeta_anchor(3)
    # and the anchor of mu_6 exists upstairs even though the tower base
    # carries it too (6 | 48)
    assert F49.zeta_anchor(6) ** 6 == F49.one()


def oracle_embedding(base, big):
    """The embedding base -> big as an element table, built the way towers
    once stored it: the base's x-bar goes to rho, the first root in dlog
    order of the base defining polynomial among the subfield elements of big
    (1 for a prime base), and x = sum c_i x-bar^i to sum c_i rho^i."""
    rho = big.one()
    if base.f > 1:
        coeffs = [big.from_int(c) for c in base.defining_poly]
        for rho in big.nonzero_elements():
            if rho.k * (base.q - 1) % (big.q - 1):
                continue
            acc = big.zero()
            for c in reversed(coeffs):
                acc = acc * rho + c
            if acc.is_zero():
                break
    table = {}
    for x in base.elements():
        acc = big.zero()
        for i, c in enumerate(base._enc_to_poly(x.encoding)):
            acc = acc + big.from_int(c) * rho ** i
        table[x] = acc
    return table


def _towers():
    F7, F2, F9, F8 = field_make(7, 1), field_make(2, 1), field_make(3, 2), field_make(2, 3)
    F49, F4 = extension_of(F7, 2), extension_of(F2, 2)
    return [(F7, F49), (F49, extension_of(F49, 3)), (F2, F4), (F4, extension_of(F4, 2)),
            (F9, extension_of(F9, 2)), (F8, extension_of(F8, 2))]


@pytest.mark.parametrize("base,big", _towers(),
                         ids=["7->49", "49->7^6", "2->4", "4->16", "9->81", "8->64"])
def test_tower_maps_match_the_element_table(base, big):
    table = oracle_embedding(base, big)
    inverse = {y: x for x, y in table.items()}
    assert len(inverse) == base.q
    for x, y in table.items():
        assert embed(x, big) == y and pull_back(y, base) == x
    M = (big.q - 1) // (base.q - 1)
    step = max(1, (big.q - 1) // 600)   # F_7^6: every 196th point
    points = [big.zero()] + [big.from_dlog(k) for k in range(0, big.q - 1, step)]
    off = 0
    for y in points + [big.from_dlog(M), big.from_dlog(M + 1)]:
        if y not in inverse:
            off += 1
            assert pull_back(y, base) is None
        assert norm_to_subfield(y, base) == inverse[y ** M]
    assert off > 0


def test_two_constructions_of_one_field_combine():
    F49 = field_make(7, 2)
    T49 = extension_of(field_make(7, 1), 2)
    assert T49 is not F49 and T49._pow is F49._pow
    s = F49.one() + T49.one()
    assert s == F49.from_int(2) and s == T49.from_int(2)
    assert hash(F49.one()) == hash(T49.one())
    assert hash(T49.from_int(2)) == hash(s)
    assert F49.to_ks([T49.gen()]) == [1] and F49.dlog(T49.gen()) == 1
    assert extension_of(field_make(3, 2), 2)._pow is field_make(3, 4)._pow


def test_anchors_stay_per_tower():
    # the shared tables do not merge the anchors: characters of the tower
    # keep the anchor inherited from F_7, dlog 32, against F_49's own 16
    F49 = field_make(7, 2)
    T49 = extension_of(field_make(7, 1), 2)
    assert F49.zeta_anchor(3).k == 16 and T49.zeta_anchor(3).k == 32
    assert char_exponent(3, 1, F49.gen()) == 1
    assert char_exponent(3, 1, T49.gen()) == 2


def test_one_table_build_per_field(monkeypatch):
    # fresh caches, so the count does not depend on fields other tests built
    calls = []
    init = FieldDesc.__init__

    def counted(self, p, f):
        calls.append((p, f))
        init(self, p, f)
    monkeypatch.setattr(FieldDesc, "__init__", counted)
    make = lru_cache(maxsize=None)(ff.field_make.__wrapped__)
    monkeypatch.setattr(ff, "field_make", make)
    tower = ff.extension_of.__wrapped__
    F49 = make(7, 2)
    T49 = tower(make(7, 1), 2)
    T7_6 = tower(T49, 3)
    F7_6 = make(7, 6)
    assert sorted(calls) == [(7, 1), (7, 2), (7, 6)]
    assert T49._pow is F49._pow and T7_6._pow is F7_6._pow


# F_331^2 builds numpy tables and its Zech list on first use; F_7^2 builds
# list tables and its Zech array on first use
@pytest.mark.parametrize("p,f", [(331, 2), (7, 2)])
@pytest.mark.parametrize("tower_first", [False, True])
def test_tower_shares_the_tables_made_on_first_use(monkeypatch, p, f, tower_first):
    # fresh caches, so the lazy tables are made here, in the order under test
    make = lru_cache(maxsize=None)(ff.field_make.__wrapped__)
    monkeypatch.setattr(ff, "field_make", make)
    F = make(p, f)
    T = ff.extension_of.__wrapped__(make(p, 1), f)
    assert T is not F and T._parent is not None
    assert ("_zech" in vars(F)) == (F.q <= SCALAR_TABLE_LIMIT)
    assert ("zech_arr" in F._lazy) == (F.q > SCALAR_TABLE_LIMIT)
    first, second = (T, F) if tower_first else (F, T)
    assert first.k_add(3, 5) == second.k_add(3, 5)     # reads _zech
    assert first._zech is second._zech
    assert first.zech_array() is second.zech_array()


def test_char_value_consistent_along_embedding():
    # with the inherited anchor, the big-field character restricted to the
    # embedded base field is the base character composed with the norm:
    # chi^big_m(emb y) = chi^base_m(y)^((Q-1)/(q-1))
    N = 3
    F7 = field_make(7, 1)
    F49 = extension_of(F7, 2)
    ratio = (49 - 1) // (7 - 1)
    for m in range(1, N):
        for y in F7.nonzero_elements():
            e_small = char_exponent(N, m, y)
            e_big = char_exponent(N, m, embed(y, F49))
            assert e_big == (e_small * ratio) % N


def as_ints(table):
    """A table's entries as a list of Python ints, from a list or an array."""
    out = table.tolist() if isinstance(table, np.ndarray) else list(table)
    assert all(type(v) is int for v in out)
    return out


# both sides of SCALAR_TABLE_LIMIT = 2^12: 4093 is the largest prime below it
# and 4099 the smallest prime power above it
@pytest.mark.parametrize("F", [field_make(2, 1), field_make(2, 4), field_make(3, 5),
                               field_make(7, 2), field_make(23, 3),
                               extension_of(field_make(7, 2), 2),
                               field_make(4093, 1), field_make(2, 12),
                               field_make(3, 7), extension_of(field_make(61, 1), 2),
                               field_make(4099, 1)],
                         ids=["2^1", "2^4", "3^5", "7^2", "23^3", "ext-7^2x2",
                              "4093", "2^12", "3^7", "ext-61x2", "4099"])
def test_tables_match_reference(F):
    pow_tab, dlog, zech = reference_tables(F)
    kind = list if F.q <= SCALAR_TABLE_LIMIT else np.ndarray
    assert type(F._pow) is kind and type(F._dlog) is kind
    assert as_ints(F._pow) == pow_tab
    assert as_ints(F._dlog)[1:] == dlog[1:]
    assert F._zech == zech
    assert [None if z < 0 else z for z in F.zech_array().tolist()] == zech


# every (p, f) built in this file, directly or through extension_of
BUILT_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 3),
                (3, 4), (3, 5), (5, 1), (5, 3), (7, 1), (7, 2), (7, 4), (7, 6),
                (11, 1), (13, 1), (23, 3), (31, 1)]


@pytest.mark.parametrize("p,f", BUILT_FIELDS)
def test_generator_is_first_in_full_search(p, f):
    # the generator search skips the prime-field constants when f > 1; the
    # result is still the smallest encoding whose dlog is prime to q - 1
    F = field_make(p, f)
    q = F.q
    first = next(enc for enc in range(1, q) if gcd(int(F._dlog[enc]), q - 1) == 1)
    assert F.g_encoding == first


def test_prime_field_two():
    F2 = field_make(2, 1)
    assert F2.g_encoding == 1
    one = F2.one()
    assert one + one == F2.zero() and one * one == one and -one == one
    assert [x.encoding for x in F2.elements()] == [0, 1]


@pytest.mark.parametrize("enc", [-1, 7, 99])
def test_from_encoding_rejects_out_of_range(enc):
    with pytest.raises(FFError):
        field_make(7, 1).from_encoding(enc)


@pytest.mark.parametrize("q,want", [(2, (2, 1)), (49, (7, 2)),
                                    (1 << 20, (2, 20)), (1048573, (1048573, 1))])
def test_prime_power_decomposes(q, want):
    assert prime_power(q) == want


@pytest.mark.parametrize("q", [0, 1, -4, 6, 12])
def test_prime_power_rejects(q):
    with pytest.raises(NotPrime):
        prime_power(q)


@pytest.mark.parametrize("degree", [0, -1])
def test_degree_below_one_rejected(degree):
    with pytest.raises(InvalidDegree):
        field_make(5, degree)
    with pytest.raises(InvalidDegree):
        extension_of(field_make(5, 1), degree)


# (p, f) on both sides of SCALAR_TABLE_LIMIT = 2^12, p = 2 on each side
KERNEL_FIELDS = [(2, 1), (2, 5), (3, 3), (7, 2), (4093, 1),
                 (2, 13), (3, 8), (4099, 1)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_dlog_kernels_match_polynomial_arithmetic(pf, data):
    F = field_make(*pf)
    p, f, q = F.p, F.f, F.q
    assert (q <= SCALAR_TABLE_LIMIT) == (type(F._pow) is list)

    def digits(k):          # dlog (None for zero) -> coefficient list
        enc = 0 if k is None else F.from_dlog(k).encoding
        return [enc // p ** i % p for i in range(f)]

    def dlog(poly):         # polynomial over F_p -> dlog, None for zero
        return F.from_encoding(sum(c % p * p ** i for i, c in enumerate(poly))).k

    def add(a, b):
        return [(x + y) % p for x, y in zip(a, b)]

    def mul(a, b):
        return (_pmod(_pmul(a, b, p), F.defining_poly, p) + [0] * f)[:f]

    def neg(a):
        return [-x % p for x in a]

    nonzero = st.integers(0, q - 2)
    elem = st.none() | nonzero
    a, b = data.draw(elem), data.draw(elem)
    assert F.k_add(a, b) == dlog(add(digits(a), digits(b)))
    assert F.k_mul(a, b) == dlog(mul(digits(a), digits(b)))
    assert F.k_neg(a) == dlog(neg(digits(a)))

    xs = data.draw(st.lists(elem, max_size=6))
    ys = data.draw(st.lists(elem, min_size=len(xs), max_size=len(xs)))
    dot = [0] * f
    for x, y in zip(xs, ys):
        dot = add(dot, mul(digits(x), digits(y)))
    assert F.k_dot(xs, ys) == dlog(dot)

    row = data.draw(st.lists(elem, max_size=6))
    prow = data.draw(st.lists(nonzero, min_size=len(row), max_size=len(row)))
    cols = data.draw(st.lists(st.sampled_from(range(len(row))), unique=True)
                     if row else st.just([]))
    fk = data.draw(nonzero)
    want = list(row)
    for c in cols:
        want[c] = dlog(add(digits(row[c]), neg(mul(digits(fk), digits(prow[c])))))
    F.k_row_sub(row, fk, prow, cols)
    assert row == want


def trial_division_is_prime(n):
    """The primality oracle: trial division by every d with d^2 <= n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(1 << 17) if _is_prime(n)] == \
        [n for n in range(1 << 17) if trial_division_is_prime(n)]


# strong pseudoprimes to bases 2..7, 2..11 and 2..17; Carmichael numbers;
# psi_12, the least strong pseudoprime to all primes up to 37
@pytest.mark.parametrize("n", [3215031751, 3474749660383, 341550071728321,
                               561, 1729, 25326001, 318665857834031151167461])
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("n", [1073741827, 1073834401, 2 ** 61 - 1, 10 ** 18 + 9])
def test_is_prime_accepts_large_primes(n):
    assert _is_prime(n)


def test_is_prime_refuses_beyond_its_exact_range():
    assert not _is_prime(2 ** 89 - 3)            # divisible by 29
    with pytest.raises(ValueError):
        _is_prime(2 ** 89 - 1)                   # a Mersenne prime above 3.3e24



def ffelem_dot(F, pairs):
    """sum a * b over dlog pairs (None for zero), in FFElem arithmetic."""
    acc = F.zero()
    for a, b in pairs:
        acc = acc + FFElem(F, a) * FFElem(F, b)
    return acc


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(5, 1), (3, 2), (5, 2), (7, 2)]), st.data())
def test_k_dot_matches_ffelem_sum(pf, data):
    # k_dot takes the Zech step inline. A term that cancels the partial sum
    # makes the running sum zero mid-way, and later terms start it again.
    F = field_make(*pf)
    elem = st.none() | st.integers(0, F.q - 2)
    terms = st.lists(st.tuples(elem, elem), max_size=5)
    pairs = data.draw(terms)
    for _ in range(data.draw(st.integers(0, 2))):
        partial = ffelem_dot(F, pairs)
        if not partial.is_zero():
            pairs.append(((-partial).k, 0))
        pairs += data.draw(terms)
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    assert F.k_dot(xs, ys) == ffelem_dot(F, pairs).k


# fields above SCALAR_TABLE_LIMIT, with a datum whose trace they carry:
# 4099 (n = 2, a row prefix) and 3^8 (n = 3, a convolution)
@pytest.mark.parametrize("p,f,N,R", [(4099, 1, 3, (1, 2)), (3, 8, 5, (1, 2, 3))])
def test_numpy_field_builds_its_zech_list_on_first_use(monkeypatch, cold_cache,
                                                       p, f, N, R):
    F = FieldDesc(p, f)     # fresh: field_make's copy may have been read already
    cold_cache(hg, "_prefix")   # so the module cache does not keep F after the test
    hg.trace_at(hg.hg_params(N, len(R), R), F, F.from_dlog(5))
    assert "_zech" not in vars(F)
    rng = random.Random(p)
    L = F.q - 1
    pairs = [(rng.randrange(L), rng.randrange(L)) for _ in range(500)]
    pairs += [(a, (a + F._half) % L) for a, _ in pairs[:50]] + [(None, 3), (4, None)]
    first = F.k_add(*pairs[0])
    assert "_zech" in vars(F) and F._zech[F._half] is None
    monkeypatch.setattr(ff, "SCALAR_TABLE_LIMIT", F.q)
    ref = FieldDesc(p, f)
    assert type(ref._pow) is list and "_zech" in vars(ref)
    # no class attribute shadows the list-built fields' hot instance read
    assert type(ref) is FieldDesc and "_zech" not in vars(FieldDesc)
    assert F._zech == ref._zech
    assert first == ref.k_add(*pairs[0])
    assert [F.k_add(a, b) for a, b in pairs] == [ref.k_add(a, b) for a, b in pairs]
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    for i in range(0, len(pairs), 7):
        assert F.k_dot(xs[i:i + 9], ys[i:i + 9]) == ref.k_dot(xs[i:i + 9], ys[i:i + 9])


def test_numpy_field_holds_only_its_arrays():
    tracemalloc.start()
    try:
        F = FieldDesc(262147, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert type(F._pow) is np.ndarray
    assert held < 3.5e6     # three int32 tables of 1 MB each


@pytest.mark.parametrize("p,f", [(4099, 1), (2, 13), (3, 8)])
def test_blocked_zech_pass_matches_reference(monkeypatch, p, f):
    # blocks of a few entries, so the Zech pass crosses block boundaries
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 37)
    F = FieldDesc(p, f)
    zech = reference_tables(F)[2]
    assert [None if z < 0 else z for z in F.zech_array().tolist()] == zech


def test_block_tables_transient_memory():
    F = field_make(262147, 1)
    tracemalloc.start()
    try:
        tables = ff._block_tables([[F.g_encoding]], F.p, F.q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for got, want in zip(tables, (F._pow, F._dlog, F.zech_array())):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    # above the three 1 MB tables it returns; np.where's temporaries took 2.4 MB
    assert peak - sum(t.nbytes for t in tables) < 0.5e6
