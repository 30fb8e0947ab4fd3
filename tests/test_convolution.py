import copy
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwork_forge import convolution, util
from dwork_forge import hypergeom as hg
from dwork_forge.convolution import (conv2d_cyclic, conv2d_kronecker,
                                     fft_error_bound)
from dwork_forge.ff import field_make
from dwork_forge.hypergeom import select_chi


def naive_conv2d(a, b, L, N):
    out = [[0] * N for _ in range(L)]
    for i1 in range(L):
        for j1 in range(N):
            v = a[i1][j1]
            if not v:
                continue
            for i2 in range(L):
                for j2 in range(N):
                    out[(i1 + i2) % L][(j1 + j2) % N] += v * b[i2][j2]
    return out


def test_conv2d_matches_naive():
    rng = random.Random(0)
    for L, N in [(5, 3), (8, 1), (12, 5), (7, 11)]:
        a = [[rng.randrange(6) for _ in range(N)] for _ in range(L)]
        b = [[rng.randrange(6) for _ in range(N)] for _ in range(L)]
        assert conv2d_cyclic(a, b, L, N).tolist() == naive_conv2d(a, b, L, N)


def test_conv2d_big_values_exact():
    rng = random.Random(1)
    L, N = 6, 4
    a = [[rng.randrange(10 ** 12) for _ in range(N)] for _ in range(L)]
    b = [[rng.randrange(10 ** 12) for _ in range(N)] for _ in range(L)]
    out = conv2d_cyclic(a, b, L, N)
    assert out.tolist() == naive_conv2d(a, b, L, N)
    assert out.dtype == object and all(type(v) is int for v in out.ravel())


def test_conv2d_zero():
    z = [[0] * 3 for _ in range(4)]
    a = [[1, 2, 3]] * 4
    assert conv2d_cyclic(a, z, 4, 3).tolist() == z


@st.composite
def conv_inputs(draw):
    L = draw(st.integers(1, 12))
    N = draw(st.integers(1, 6))
    hi = draw(st.sampled_from([1, 7, 1000, 10 ** 9]))
    mat = st.lists(st.lists(st.integers(0, hi), min_size=N, max_size=N),
                   min_size=L, max_size=L)
    return draw(mat), draw(mat), L, N


@settings(max_examples=60, deadline=None)
@given(conv_inputs())
def test_conv2d_property_matches_naive(case):
    a, b, L, N = case
    out = conv2d_cyclic(a, b, L, N).tolist()
    assert out == naive_conv2d(a, b, L, N)
    assert all(type(v) is int for row in out for v in row)


@settings(max_examples=30, deadline=None)
@given(conv_inputs())
def test_failed_certificate_falls_back_to_kronecker(case):
    a, b, L, N = case
    want = conv2d_kronecker(a, b, L, N)
    saved_eval, saved_kron = convolution._evaluate, convolution.conv2d_kronecker
    evals, exact_calls = [], []

    def corrupt(M, L_, N_):     # the product's evaluation, after a's and b's, is off by one
        evals.append(1)
        value = saved_eval(M, L_, N_)
        return value + 1 if len(evals) == 3 else value

    def spy(*args):
        exact_calls.append(1)
        return saved_kron(*args)
    convolution._evaluate, convolution.conv2d_kronecker = corrupt, spy
    try:
        got = conv2d_cyclic(a, b, L, N)
    finally:
        convolution._evaluate, convolution.conv2d_kronecker = saved_eval, saved_kron
    if evals:       # the FFT ran, so its failed check must hand over
        assert exact_calls == [1]
    assert repr(got.tolist()) == repr(want)
    assert got.tolist() == naive_conv2d(a, b, L, N)


def test_fft_result_is_certified_on_trace_sized_input():
    # 0/1 rows with one mark each, as the trace scan builds them
    rng = random.Random(2)
    L, N = 330, 3

    def marks():
        return [[int(j == e) for j in range(N)]
                for e in (rng.randrange(N) for _ in range(L))]
    a, b = marks(), marks()
    assert convolution._conv2d_fft(a, b, L, N).tolist() == naive_conv2d(a, b, L, N)


def test_error_bound_rejects_huge_inputs():
    assert fft_error_bound(1.0, 1.0, 1 << 20) < 1e-12
    assert fft_error_bound(2.0 ** 40, 2.0 ** 40, 1 << 20) > 0.5
    L, N = 4, 2
    big = [[1 << 40] * N for _ in range(L)]
    assert convolution._conv2d_fft(big, big, L, N) is None
    assert conv2d_cyclic(big, big, L, N).tolist() == naive_conv2d(big, big, L, N)


def test_product_dtype_by_engine():
    a = [[1, 2], [3, 4]]
    assert convolution._conv2d_fft(a, a, 2, 2).dtype == np.int64
    assert conv2d_cyclic(a, a, 2, 2).dtype == np.int64
    # products of 2^53 or more are refused by the FFT; the exact engine's
    # array is int64 up to 2^63 - 1 = 7 * 1317624576693539401 and object above
    for x, y, dtype in [(1 << 27, 1 << 27, np.int64), (7, (1 << 63) // 7, np.int64),
                        (1 << 31, 1 << 32, object)]:
        assert convolution._conv2d_fft([[x]], [[y]], 1, 1) is None
        out = conv2d_cyclic([[x]], [[y]], 1, 1)
        assert out.dtype == dtype and out.tolist() == [[x * y]]
    # a zero factor goes to the exact engine, even beside entries beyond int64
    for x in (1, 1 << 64):
        zero = conv2d_cyclic([[x, 1], [0, 2]], [[0, 0], [0, 0]], 2, 2)
        assert zero.dtype == np.int64 and zero.tolist() == [[0, 0], [0, 0]]


def test_fft_product_peak_memory():
    # the F_{23^3} indicators of the (11, 3) datum, as the trace scan builds them
    params, F = select_chi(11, 3), field_make(23, 3)
    rows = hg._char_rows(params, F)
    L, N = F.q - 1, params.N
    a, b = hg._indicator(rows[0], N), hg._indicator(rows[1], N)
    assert convolution._conv2d_fft(a, b, L, N) is not None   # also caches P
    tracemalloc.start()
    try:
        out = conv2d_cyclic(a, b, L, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.int64
    assert peak < 3 * L * N * 8


def test_indicators_share_their_rows():
    params, F = select_chi(11, 3), field_make(23, 3)
    rows = hg._char_rows(params, F)
    N = params.N
    tracemalloc.start()
    try:
        a, b = hg._indicator(rows[0], N), hg._indicator(rows[1], N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) == len(b) == F.q - 1
    assert len({id(row) for row in a + b}) <= 2 * (N + 1)
    assert peak < 0.5e6     # fresh rows of 11 ints took 3.5 MB


def dense_indicator(row, N):
    """The L x N 0/1 matrix of a row, built as fresh lists: the oracle of
    the shared-row hg._indicator."""
    mat = np.zeros((len(row), N), dtype=np.int8)
    j = np.flatnonzero(row >= 0)
    mat[j, row[j]] = 1
    return mat.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20).flatmap(lambda N: st.tuples(
    st.just(N), st.lists(st.integers(-1, N - 1), min_size=1, max_size=40))))
def test_indicator_equals_dense_construction(case):
    N, values = case
    row = np.array(values, dtype=np.min_scalar_type(-N))
    got = hg._indicator(row, N)
    assert got == dense_indicator(row, N)
    assert all(type(v) is int for r in got for v in r)


@pytest.mark.parametrize("engine", ["fft", "kronecker", "fallback"])
def test_engines_leave_their_inputs_unchanged(monkeypatch, engine):
    L, N = 30, 5
    rng = random.Random(3)
    dense = [[rng.randrange(7) for _ in range(N)] for _ in range(L)]
    one_hot = [hg._indicator(np.array([rng.randrange(-1, N) for _ in range(L)],
                                      dtype=np.int8), N) for _ in range(2)]
    for a, b in [(dense, copy.deepcopy(dense)), one_hot]:
        shared = {id(row): (row, list(row)) for row in a + b}
        before = copy.deepcopy((a, b))
        if engine == "fft":
            assert convolution._conv2d_fft(a, b, L, N) is not None
        elif engine == "kronecker":
            conv2d_kronecker(a, b, L, N)
        else:
            # every rounding check fails, so the exact engine recomputes
            monkeypatch.setattr(convolution, "ROUND_LIMIT", -1.0)
            assert convolution._conv2d_fft(a, b, L, N) is None
            assert conv2d_cyclic(a, b, L, N).tolist() == naive_conv2d(a, b, L, N)
        assert (a, b) == before
        assert all(row == saved for row, saved in shared.values())


def test_blocked_passes_match_naive(monkeypatch):
    # blocks of a few rows, so every pass crosses block boundaries
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 7)
    rng = random.Random(6)
    for L, N in [(23, 3), (17, 1), (9, 6)]:
        a = [[rng.randrange(9) for _ in range(N)] for _ in range(L)]
        b = [[rng.randrange(9) for _ in range(N)] for _ in range(L)]
        assert convolution._conv2d_fft(a, b, L, N).tolist() == naive_conv2d(a, b, L, N)


@pytest.mark.parametrize("block_entries", [7, util.BLOCK_ENTRIES])
def test_bounds_equal_the_list_scans(monkeypatch, block_entries):
    # seeded inputs whose rows are shared, as the indicators' are, with
    # entries up to 2^62 so that some blocks are summed in Python ints
    monkeypatch.setattr(util, "BLOCK_ENTRIES", block_entries)
    rng = random.Random(8)
    for L, N, hi in [(23, 3, 9), (40, 1, 1 << 40), (9, 6, 1 << 62),
                     (3000, 5, 1 << 62), (5, 2, 0)]:
        rows = [[rng.randrange(hi + 1) for _ in range(N)] for _ in range(N + 1)]
        a = [rows[rng.randrange(N + 1)] for _ in range(L)]
        assert convolution._max_and_sum(a, L, N) == \
            (max(map(max, a)), sum(map(sum, a)))


def test_entry_beyond_int64_reaches_kronecker(monkeypatch):
    L, N = 4, 3
    a = [[1, 0, 2], [0, 1 << 63, 0], [3, 0, 0], [0, 0, 1]]
    b = [[2, 1, 0], [0, 0, 1], [1, 1, 1], [0, 4, 0]]
    with pytest.raises(OverflowError):
        convolution._max_and_sum(a, L, N)
    assert convolution._conv2d_fft(a, b, L, N) is None
    calls = []
    kronecker = convolution.conv2d_kronecker
    monkeypatch.setattr(convolution, "conv2d_kronecker",
                        lambda *args: calls.append(1) or kronecker(*args))
    out = conv2d_cyclic(a, b, L, N)
    assert calls == [1] and out.dtype == object
    assert out.tolist() == naive_conv2d(a, b, L, N)


def test_shape_mismatch_is_a_value_error():
    with pytest.raises(ValueError, match="3 x 2 arrays got 2 and 3 rows"):
        conv2d_cyclic([[1, 0]] * 2, [[0, 1]] * 3, 3, 2)


def test_check_point_beyond_int64_products_raises():
    # orders above MAX_CHECK_ORDER put the first prime = 1 (mod lcm) past 2^31
    with pytest.raises(OverflowError, match="not below 2\\^31"):
        convolution._check_point(1 << 31, 1)


# (L, N) -> P as trial division found them, for the shapes that selftest and
# the scans certify
@pytest.mark.parametrize("L,N,P", [(6, 3, 1073741827), (10, 5, 1073741831),
                                   (12, 3, 1073741833), (22, 11, 1073741857),
                                   (30, 5, 1073741971), (48, 3, 1073741857),
                                   (150, 3, 1073743051), (528, 11, 1073741857),
                                   (12166, 11, 1073771161), (22800, 3, 1073834401),
                                   (109560, 3, 1074016681)])
def test_check_point_primes_pinned(L, N, P):
    assert convolution._check_point(L, N)[0] == P
