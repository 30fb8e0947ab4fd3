import dataclasses
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwork_forge import hypergeom as hg
from dwork_forge import util
from dwork_forge.cyclotomic import CyclotomicInt, all_embeddings
from dwork_forge.ff import (TABLE_LIMIT, TooLarge, _anchor_inverse, embed,
                            extension_of, field_make, prime_power)
from dwork_forge.hypergeom import (BadPoint, NoSumZeroSet, char_poly,
                                   hg_params, newton_polygon, select_chi,
                                   trace_all_fast, trace_naive, verify_det,
                                   verify_purity)
from dwork_forge.lambda_adic import lambda_prime, val_lambda


def standalone_trace(N, n, R, q, x_enc):
    """Independent oracle: the literal character sum with its own dlog table.

    Uses nothing from the package beyond CyclotomicInt construction; the
    generator, table and character convention are rebuilt from scratch.
    """
    # smallest primitive root mod q (q prime here)
    def order(a):
        o, v = 1, a % q
        while v != 1:
            v = v * a % q
            o += 1
        return o
    g = next(a for a in range(2, q) if order(a) == q - 1)
    dlog = {pow(g, k, q): k for k in range(q - 1)}
    counts = [0] * N

    def chi_exp(m, y):
        if y % q == 0:
            return None
        return (m * dlog[y % q]) % N

    def rec(prefix_prod, depth, esum):
        if depth == n - 1:
            last = x_enc * pow(prefix_prod, -1, q) % q
            e = chi_exp(R[depth], 1 - last)
            if e is not None:
                counts[(esum + e) % N] += 1
            return
        for y in range(1, q):
            e = chi_exp(R[depth], 1 - y)
            if e is not None:
                rec(prefix_prod * y % q, depth + 1, esum + e)

    rec(1, 0, 0)
    val = CyclotomicInt.from_zeta_counts(N, counts)
    return -val if (n - 1) % 2 else val


@pytest.mark.parametrize("N,n,R", [(7, 3, (4, 1, 2)), (11, 3, (8, 13, 1)),
                                   (3, 2, (2, 1)), (5, 1, (7,))])
def test_hg_params_is_a_value_key(N, n, R):
    # cache keys: hg_params and the constructor on the sorted residues give
    # equal, equally hashed values, whose flags follow from the exponents
    a = hg_params(N, n, R)
    b = hg.HGParams(N, n, tuple(sorted(r % N for r in R)))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.sum_zero == (sum(R) % N == 0)
    assert a.trivial_stabilizer == b.trivial_stabilizer


def test_select_chi_examples():
    assert select_chi(11, 3).rho_exponents == (1, 2, 8)
    assert select_chi(11, 3).trivial_stabilizer
    p73 = select_chi(7, 3)
    assert p73.rho_exponents in ((1, 2, 4), (3, 5, 6))
    assert not p73.trivial_stabilizer
    p32 = select_chi(3, 2)
    assert p32.rho_exponents == (1, 2) and not p32.trivial_stabilizer
    with pytest.raises(NoSumZeroSet):
        select_chi(5, 1)
    with pytest.raises(ValueError):
        select_chi(6, 2)   # N even
    with pytest.raises(ValueError):
        select_chi(9, 3)   # gcd(N, n) != 1


@pytest.mark.parametrize("N", range(3, 40, 2))
def test_select_chi_pair_is_the_first_sum_zero_pair(N):
    # -1 stabilizes every sum-zero pair, so n = 2 returns the first at once
    pairs = [R for R in combinations(range(1, N), 2) if sum(R) % N == 0]
    assert not any(hg.HGParams(N, 2, R).trivial_stabilizer for R in pairs)
    assert select_chi(N, 2) == hg.HGParams(N, 2, pairs[0])


@pytest.mark.parametrize("N", range(3, 24, 2))
def test_check_chi_refuses_exactly_the_n_without_a_sum_zero_set(N):
    # the exhaustive search is the oracle of check_chi's closed-form rule
    for n in range(1, N):
        if gcd(N, n) != 1:
            continue
        exists = any(sum(R) % N == 0 for R in combinations(range(1, N), n))
        if exists:
            hg.check_chi(N, n)
            assert select_chi(N, n).sum_zero
        else:
            with pytest.raises(NoSumZeroSet, match=f"no sum-zero {n}-subset mod {N}"):
                hg.check_chi(N, n)


def test_N_past_the_table_limit_is_refused():
    # N | q - 1 needs q > N, so no field within the table limit has it
    for make in (lambda N: select_chi(N, 2), lambda N: hg_params(N, 2, (1, 2))):
        with pytest.raises(TooLarge):
            make(TABLE_LIMIT + 1)
        assert make(TABLE_LIMIT - 1).N == TABLE_LIMIT - 1


def test_hg_params_flags_checked():
    with pytest.raises(ValueError):
        hg_params(5, 2, (1, 1))
    with pytest.raises(ValueError):
        hg_params(5, 2, (0, 1))


# frozen from the standalone oracle (power-basis coordinates)
FROZEN_N3_Q7 = {3: (2, 0), 2: (-1, 0), 6: (-1, 0), 4: (-4, 0), 5: (2, 0)}


def test_trace_naive_frozen_values():
    params = select_chi(3, 2)
    F7 = field_make(7, 1)
    for enc, coeffs in FROZEN_N3_Q7.items():
        x = F7.from_encoding(enc)
        got = trace_naive(params, F7, x)
        assert got.coeffs == coeffs
        assert got == standalone_trace(3, 2, (1, 2), 7, enc)


def test_trace_naive_against_standalone_oracle():
    for N, n, q in [(3, 2, 7), (3, 2, 13), (5, 2, 11), (11, 3, 23)]:
        params = select_chi(N, n)
        F = field_make(q, 1)
        for x in list(F.nonzero_elements())[1:]:
            assert trace_naive(params, F, x) == standalone_trace(
                N, n, params.rho_exponents, q, x.encoding)


def test_trace_single_factor_degenerate():
    # n = 1: the sum has one term, chi_m(1 - x)
    from dwork_forge.ff import char_value
    params = hg_params(5, 1, (2,))
    F11 = field_make(11, 1)
    for x in F11.nonzero_elements():
        if x == F11.one():
            continue
        assert trace_naive(params, F11, x) == char_value(5, 2, F11.one() - x)


def test_trace_bad_point():
    params = select_chi(3, 2)
    F7 = field_make(7, 1)
    with pytest.raises(BadPoint):
        trace_naive(params, F7, F7.zero())
    with pytest.raises(BadPoint):
        trace_naive(params, F7, F7.one())


# N = 65 sums two int8 rows past the int8 range; N = 131 has int16 rows
@pytest.mark.parametrize("N,n,q", [(3, 2, 7), (3, 2, 13), (5, 2, 11), (11, 3, 23),
                                   (65, 2, 131), (131, 2, 263)])
def test_fast_equals_naive(N, n, q):
    params = select_chi(N, n)
    F = field_make(q, 1)
    fast = trace_all_fast(params, F)
    assert len(fast) == q - 2
    for x, v in fast.items():
        assert v == trace_naive(params, F, x) == hg.trace_at(params, F, x)


# (p, f) with q = p^f small enough for the L^(n-1)-term naive sum per point
SMALL_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 3), (5, 1),
                (5, 2), (7, 1), (7, 2), (11, 1), (13, 1), (19, 1), (31, 1),
                (43, 1), (61, 1)]


@st.composite
def trace_cases(draw):
    p, f = draw(st.sampled_from(SMALL_FIELDS))
    q = p ** f
    N = draw(st.sampled_from([d for d in range(2, q) if (q - 1) % d == 0]))
    n = draw(st.integers(1, min(N - 1, 3 if q <= 32 else 2)))
    R = draw(st.lists(st.integers(1, N - 1), min_size=n, max_size=n, unique=True))
    tower = f > 1 and draw(st.booleans())
    F = extension_of(field_make(p, 1), f) if tower else field_make(p, f)
    return hg_params(N, n, R), F


@settings(max_examples=40, deadline=None)
@given(trace_cases())
def test_fast_equals_naive_property(case):
    params, F = case
    fast = trace_all_fast(params, F)
    assert len(fast) == F.q - 2
    for x, v in fast.items():
        assert v == trace_naive(params, F, x)


@st.composite
def readout_cases(draw):
    """(params, E, points): a datum with N | q - 1 over a base field of size
    q, E = F_{q^d} through the tower, and the embedded base points plus a few
    random points of E. The naive sum costs (q^d)^(n-1) steps per point."""
    p, f = draw(st.sampled_from([pf for pf in SMALL_FIELDS if pf[0] ** pf[1] > 2]))
    q = p ** f
    base = field_make(p, f)
    d = draw(st.sampled_from([d for d in (1, 2, 3) if q ** d <= 1024]))
    E = extension_of(base, d)
    N = draw(st.sampled_from([m for m in range(2, q) if (q - 1) % m == 0]))
    n = draw(st.integers(1, min(N - 1, 3 if E.q <= 64 else 2)))
    R = draw(st.lists(st.integers(1, N - 1), min_size=n, max_size=n, unique=True))
    points = [x if d == 1 else embed(x, E) for x in list(base.nonzero_elements())[1:]]
    points += [E.from_dlog(draw(st.integers(1, E.q - 2))) for _ in range(3)]
    return hg_params(N, n, R), E, points


@settings(max_examples=40, deadline=None)
@given(readout_cases())
def test_readout_equals_naive_property(case):
    params, E, points = case
    for y in points:
        assert hg.trace_at(params, E, y) == trace_naive(params, E, y)


def test_readout_equals_full_map_at_embedded_points():
    # F_41^3 has 68920 nonzero points, above the size where char_poly used
    # to stop building full maps; no 3-subset mod 5 sums to zero
    params = hg_params(5, 3, (1, 2, 3))
    F41 = field_make(41, 1)
    E = extension_of(F41, 3)
    full = trace_all_fast(params, E)
    points = [embed(x, E) for x in list(F41.nonzero_elements())[1:]]
    assert len(points) == 39
    for y in points:
        assert hg.trace_at(params, E, y) == full[y]


def test_readout_on_an_object_prefix(monkeypatch):
    # prefixes whose readout could pass 2^63 are kept as Python ints
    params = select_chi(11, 3)
    F = field_make(23, 1)
    rows, prefix = hg._prefix(params, F)
    monkeypatch.setattr(hg, "_prefix", lambda *key: (rows, prefix.astype(object)))
    for x in list(F.nonzero_elements())[1:]:
        assert hg.trace_at(params, F, x) == trace_naive(params, F, x)


@st.composite
def array_readout_cases(draw):
    """(params, E, points, as_object): n in {3, 4}, so the prefix is an
    L x N array, over E = F_{p^f}^d built by extension_of (d >= 2), with N
    any divisor of |E^x| above n. The naive sum costs (q^d)^(n-1) steps per
    point."""
    n = draw(st.sampled_from([3, 4]))
    limit = 64 if n == 3 else 27
    p, f, d = draw(st.sampled_from([(p, f, d) for p, f in SMALL_FIELDS
                                    for d in (2, 3) if n < (p ** f) ** d - 1
                                    and (p ** f) ** d <= limit]))
    E = extension_of(field_make(p, f), d)
    N = draw(st.sampled_from([m for m in range(n + 1, E.q) if (E.q - 1) % m == 0]))
    R = draw(st.lists(st.integers(1, N - 1), min_size=n, max_size=n, unique=True))
    points = [E.from_dlog(draw(st.integers(1, E.q - 2))) for _ in range(3)]
    return hg_params(N, n, R), E, points, draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(array_readout_cases())
def test_array_readout_equals_naive_property(case):
    params, E, points, as_object = case
    rows, prefix = hg._prefix(params, E)
    assert prefix.ndim == 2
    if as_object:       # the dtype kept when a readout could pass 2^63
        prefix = prefix.astype(object)
    with mock.patch.object(hg, "_prefix", lambda *key: (rows, prefix)):
        for y in points:
            assert hg.trace_at(params, E, y) == trace_naive(params, E, y)


@pytest.mark.parametrize("as_object", [False, True])
def test_blocked_readouts_equal_naive(monkeypatch, as_object):
    # blocks of a few rows, so both readouts cross block boundaries, and the
    # prefixes are made uncached, in such blocks too
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 5)
    make_prefix = hg._prefix.__wrapped__
    F, E = field_make(29, 1), extension_of(field_make(5, 1), 2)
    for params, K in [(hg_params(7, 2, (1, 3)), F), (hg_params(7, 1, (2,)), F),
                      (hg_params(8, 3, (1, 2, 5)), E)]:
        rows, prefix = make_prefix(params, K)
        if as_object and prefix.ndim == 2:
            prefix = prefix.astype(object)
        monkeypatch.setattr(hg, "_prefix", lambda *key: (rows, prefix))
        for x in list(K.nonzero_elements())[1:]:
            assert hg.trace_at(params, K, x) == trace_naive(params, K, x)


@pytest.mark.parametrize("N,n,p,f,limit", [
    (11, 3, 23, 3, 0.5e6),     # an L x N prefix: the unblocked gather took 2.25 MB
    (3, 2, 262147, 1, 0.8e6),  # a row prefix: the unblocked bincount took 3.15 MB
])
def test_readout_peak_memory(N, n, p, f, limit):
    params, F = select_chi(N, n), field_make(p, f)
    hg._prefix(params, F)        # the cached prefix is not the readout's
    x = F.from_int(5)
    tracemalloc.start()
    try:
        value = hg.trace_at(params, F, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
    if F.q < 1 << 14:
        assert value == trace_all_fast(params, F)[x]


def test_readout_bad_point():
    params = select_chi(3, 2)
    F7 = field_make(7, 1)
    for x in (F7.zero(), F7.one()):
        with pytest.raises(BadPoint):
            hg.trace_at(params, F7, x)


def test_char_rows_built_once_per_field(monkeypatch, cold_cache):
    params = select_chi(11, 3)
    F = extension_of(field_make(23, 1), 2)
    calls = []
    rows = hg._char_rows
    monkeypatch.setattr(hg, "_char_rows", lambda *a: calls.append(a) or rows(*a))
    prefix_of = cold_cache(hg, "_prefix")
    fast = cold_cache(hg, "trace_all_fast")
    for x in list(F.nonzero_elements())[1:4]:
        hg.trace_at(params, F, x)
    fast(params, F)
    assert calls == [(params, F)]
    assert prefix_of.cache_info()[:2] == (3, 1)    # (hits, misses)


def rolled_char_rows(params, k):
    """The oracle: _char_rows from the whole Zech table rolled at once."""
    import numpy as np
    N = params.N
    shift = 0 if k.p == 2 else (k.q - 1) // 2
    d = np.roll(k.zech_array(), -shift)
    undefined = d < 0
    d %= N
    jinv = _anchor_inverse(k, N)
    rows = []
    for m in params.rho_exponents:
        row = (np.arange(N) * (m * jinv % N) % N).astype(
            np.min_scalar_type(-N))[d]
        row[undefined] = -1
        rows.append(row)
    return rows


@pytest.mark.parametrize("N,n,p,f", [(3, 2, 262147, 1), (11, 3, 23, 3),
                                     (5, 2, 2, 12), (7, 3, 29, 2)])
def test_char_rows_match_the_rolled_table(monkeypatch, N, n, p, f):
    # small blocks, so the rolled reads cross block boundaries and the wrap
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 1000)
    params, F = select_chi(N, n), field_make(p, f)
    got, want = hg._char_rows(params, F), rolled_char_rows(params, F)
    assert [(r.dtype, r.tolist()) for r in got] == \
        [(r.dtype, r.tolist()) for r in want]


def test_char_rows_peak_memory():
    # the hg-trace --N 3 --n 2 --q 262147 rows: rolling the whole int32 Zech
    # table made 1.9 MB of temporaries beside 0.5 MB of rows
    params, F = select_chi(3, 2), field_make(262147, 1)
    want = rolled_char_rows(params, F)       # builds the Zech array too
    tracemalloc.start()
    try:
        rows = hg._char_rows(params, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all((r == w).all() for r, w in zip(rows, want))
    assert peak <= 1.5 * sum(r.nbytes for r in rows)


def _fast_cache_fields():
    """F_4 and its tower copy extension_of(F_2, 2), then 9 more fields."""
    base = field_make(2, 1)
    return [field_make(2, 2)] + [extension_of(base, 2 * d) for d in range(1, 6)] \
        + [field_make(q, 1) for q in (7, 13, 19, 31, 37)]


def test_fast_cache_keyed_by_field_and_bounded(cold_cache):
    # start empty: a map cached by an earlier test would be a hit that keeps
    # its old place in the eviction order
    fast = cold_cache(hg, "trace_all_fast")
    params = select_chi(3, 2)
    fields = _fast_cache_fields()
    maps = [fast(params, F) for F in fields]
    info = fast.cache_info()
    assert (info.misses, info.currsize) == (len(fields), hg.FAST_CACHE_SIZE)
    # the newest FAST_CACHE_SIZE pairs are hits that return the same map
    kept = slice(-hg.FAST_CACHE_SIZE, None)
    assert all(fast(params, F) is m for F, m in zip(fields[kept], maps[kept]))
    assert fast.cache_info().hits == hg.FAST_CACHE_SIZE
    # field_make(2, 2) and extension_of(F_2, 2) are distinct objects, so
    # neither may be served the other's map
    assert maps[0] is not maps[1]
    assert fast(params, fields[0]) is not maps[0]      # evicted


def test_fast_cache_keeps_the_most_recently_used(cold_cache):
    # a pair read again just before its eviction outlives the pairs read
    # after it the first time: least recently used, not first in, goes first
    fast = cold_cache(hg, "trace_all_fast")
    assert fast.cache_parameters()["maxsize"] == hg.FAST_CACHE_SIZE
    params = select_chi(3, 2)
    fields = _fast_cache_fields()
    first = fast(params, fields[0])
    for F in fields[1:hg.FAST_CACHE_SIZE]:
        fast(params, F)
    assert fast(params, fields[0]) is first            # full now: a hit
    fast(params, fields[hg.FAST_CACHE_SIZE])           # evicts fields[1]
    assert fast(params, fields[0]) is first
    assert fast.cache_info()[:2] == (2, hg.FAST_CACHE_SIZE + 1)
    # the tower copy of F_4 is a key of its own, not F_4's map
    tower = fast(params, fields[1])
    assert tower is not first and tower.field is fields[1]
    assert fast.cache_info().misses == hg.FAST_CACHE_SIZE + 2


@pytest.mark.parametrize("N,n,q", [(3, 2, 7), (3, 2, 49), (11, 3, 23)])
def test_fast_map_keys_in_dlog_order(cold_cache, N, n, q):
    # the scans iterate the map as it is, so its order is the report's order
    fast = cold_cache(hg, "trace_all_fast")
    params = select_chi(N, n)
    F = field_make(*prime_power(q))
    for _ in range(2):      # a miss, then a cache hit
        assert [x.k for x in fast(params, F)] == list(range(1, q - 1))
    info = fast.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_trace_conj_symmetry():
    # conj(trace for R) = trace for -R
    N, n, q = 11, 3, 23
    params = select_chi(N, n)
    Rminus = tuple(sorted((-m) % N for m in params.rho_exponents))
    params_m = hg_params(N, n, Rminus)
    F = field_make(q, 1)
    fast = trace_all_fast(params, F)
    fast_m = trace_all_fast(params_m, F)
    for x in fast:
        assert fast[x].conj() == fast_m[x]


def test_char_poly_n1_and_newton_n2():
    params = hg_params(5, 1, (2,))
    F11 = field_make(11, 1)
    x = F11.from_encoding(3)
    rec = char_poly(params, F11, x)
    # X - trace
    assert rec.coeffs[1] == CyclotomicInt.one(5)
    assert rec.coeffs[0] == -rec.traces[0]

    params2 = select_chi(5, 2)
    F = field_make(11, 1)
    x = F.from_encoding(4)
    rec2 = char_poly(params2, F, x)
    p1, p2 = rec2.traces
    e2 = (p1 * p1 - p2).exact_div_int(2)
    assert rec2.coeffs[0] == e2 and rec2.coeffs[1] == -p1


def test_field_embedding_consistency():
    # the trace at x over F_{q^d} equals the d-th power-sum datum of the
    # record over F_q, both through the recorded tower
    params = select_chi(3, 2)
    F7 = field_make(7, 1)
    F49 = extension_of(F7, 2)
    for x in list(F7.nonzero_elements())[1:]:
        rec = char_poly(params, F7, x)
        assert rec.traces[1] == trace_naive(params, F49, embed(x, F49))


def test_det_and_purity_sweeps():
    for N, n, q in [(3, 2, 7), (11, 3, 23)]:
        params = select_chi(N, n)
        F = field_make(q, 1)
        for x in sorted(trace_all_fast(params, F), key=lambda e: e.k):
            rec = char_poly(params, F, x)
            rep = verify_det(rec)
            assert rep.abs_ok and rep.sign == 1
            assert verify_purity(rec)
            # |constant term| = q^(n(n-1)/2) numerically in one embedding
            c0 = rec.coeffs[0].embed_complex()
            assert abs(abs(c0) - q ** (n * (n - 1) // 2)) <= 1e-6 * q ** 3


@pytest.mark.parametrize("N,n,q", [(3, 2, 7), (5, 2, 16), (5, 2, 31), (7, 3, 29),
                                   (11, 3, 23)])
def test_exact_det_modulus_matches_every_embedding(N, n, q):
    # c0 conj(c0) = q^(n(n-1)) in Z[zeta_N] against |c0| = q^(n(n-1)/2) in
    # every complex embedding, and c0 + 1 is rejected by both
    params = select_chi(N, n)
    F = field_make(*prime_power(q))
    expected = q ** (n * (n - 1) // 2)
    for x in trace_all_fast(params, F):
        rec = char_poly(params, F, x)
        c0 = rec.coeffs[0]
        for const, pure in ((c0, True), (c0 + 1, False)):
            changed = dataclasses.replace(rec, coeffs=(const,) + rec.coeffs[1:])
            floating = all(abs(abs(z) - expected) <= 1e-6 * expected
                           for z in all_embeddings(const))
            assert verify_det(changed).abs_ok == floating == pure


def test_det_skipped_for_non_sum_zero():
    params = hg_params(5, 1, (2,))
    F11 = field_make(11, 1)
    rec = char_poly(params, F11, F11.from_encoding(3))
    rep = verify_det(rec)
    assert rep.skipped and rep.passed


def test_purity_rank_one_kummer():
    # weight 0: |trace| = 1 for the rank-one case
    params = hg_params(5, 1, (2,))
    F11 = field_make(11, 1)
    for x in list(F11.nonzero_elements())[1:]:
        rec = char_poly(params, F11, x)
        assert verify_purity(rec)


def test_newton_polygon_shapes():
    lam = lambda_prime(3, 7)
    params = select_chi(3, 2)
    F7 = field_make(7, 1)
    recs = [char_poly(params, F7, x)
            for x in sorted(trace_all_fast(params, F7), key=lambda e: e.k)]
    for rec in recs:
        slopes = newton_polygon(rec, lam)
        assert list(slopes) == sorted(slopes)
        assert sum(slopes) == Fraction(1)  # n(n-1)/2 for n = 2
        assert sum(slopes) == val_lambda(rec.coeffs[0], lam)
        assert slopes == (0, 1)  # the whole q=7 sweep is ordinary


def test_newton_polygon_synthetic():
    # polygon of X^2 - uX + l*u' -> slopes {0, 1}; of X^2 - lX + l^3 -> {1, 2}
    lam = lambda_prime(3, 7)

    class FakeRec:
        params = select_chi(3, 2)
        q = 7
        field = field_make(7, 1)    # characteristic l = 7, degree 1: m = 1

    rec = FakeRec()
    one = CyclotomicInt.one(3)
    rec.coeffs = (one * 7 * 5, one * 3, one)
    assert newton_polygon(rec, lam) == (Fraction(0), Fraction(1))
    rec2 = FakeRec()
    rec2.coeffs = (one * 7 ** 3, one * 7, one)
    assert newton_polygon(rec2, lam) == (Fraction(1), Fraction(2))
    # all coefficients units: every slope 0
    rec3 = FakeRec()
    rec3.coeffs = (one * 3, one * 2, one)
    assert newton_polygon(rec3, lam) == (Fraction(0), Fraction(0))
    # the point field's degree over F_l divides the slopes (F_49: by 2),
    # and a field of another characteristic leaves them as they are
    rec2.field = field_make(7, 2)
    assert newton_polygon(rec2, lam) == (Fraction(1, 2), Fraction(1))
    rec2.field = field_make(13, 1)
    assert newton_polygon(rec2, lam) == (Fraction(1), Fraction(2))


def test_newton_roundtrip_property():
    from dwork_forge.hypergeom import (newton_coeffs_from_traces,
                                       traces_from_newton_coeffs)
    rng = random.Random(5)
    N, n = 5, 4
    for _ in range(20):
        e = [CyclotomicInt.one(N)]
        for _ in range(n):
            e.append(CyclotomicInt(
                N, [rng.randrange(-5, 6) for _ in range(4)]))
        p = traces_from_newton_coeffs(e, N, n)
        assert newton_coeffs_from_traces(p, N, n) == e


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 5), st.data())
def test_newton_roundtrip_hypothesis(N, n, data):
    # random elementary symmetric functions e_1..e_n in Z[zeta_N], e_0 = 1
    coords = st.lists(st.integers(-50, 50), min_size=N - 1, max_size=N - 1)
    e = [CyclotomicInt.one(N)] + [CyclotomicInt(N, data.draw(coords))
                                  for _ in range(n)]
    traces = hg.traces_from_newton_coeffs(e, N, n)
    assert hg.newton_coeffs_from_traces(traces, N, n) == e
