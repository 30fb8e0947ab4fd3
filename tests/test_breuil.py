import random
from collections import Counter
from fractions import Fraction
from itertools import pairwise, product
from math import floor, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwork_forge.breuil import (INFEASIBLE, PreconditionViolated,
                                SpecialDegreeNotInteger, _alpha_differences,
                                _slopes, _special_degrees, _y_constants,
                                bk_extension_degrees, breuil_forbidden_degrees,
                                chain_slope_check, change_of_variables_solver,
                                chi_equal, etale_image_windows,
                                genericity_obstruction, hom_exists,
                                increasing_chains,
                                _monodromy_weights, make_rank_one,
                                monodromy_feasibility_checker,
                                monodromy_subspace_mismatch,
                                normal_form_in_windows,
                                frame_system_bound,
                                frame_verdicts, obstruction_frame_verdicts,
                                slope_data, solve_monodromy,
                                sweep_frame_verdicts)
from dwork_forge import breuil, linalg
from dwork_forge.ff import IncompatibleFields, field_make

from breuil_oracles import breuil_sweep_tuples, monodromy_verdict_table

F5 = field_make(5, 1)
ONE = F5.one()


def alpha_invariants(s, p, f):
    """The oracle for _alpha_differences:
    alpha_i = (1/(p^f-1)) sum_{j=1..f} p^(f-j) s_{(j+i) mod f}, exact."""
    den = p ** f - 1
    return tuple(
        Fraction(sum(p ** (f - j) * s[(j + i) % f] for j in range(1, f + 1)), den)
        for i in range(f))


def test_alpha_examples():
    assert alpha_invariants((0, 0), 5, 2) == (Fraction(0), Fraction(0))
    assert alpha_invariants((4,), 5, 1) == (Fraction(1),)
    assert alpha_invariants((1, 2), 5, 2)[0] == Fraction(11, 24)


def test_alpha_shifts_with_s():
    # cyclically shifting s shifts alpha
    s = (1, 3, 0)
    a = alpha_invariants(s, 3, 3)
    s_shift = (3, 0, 1)
    b = alpha_invariants(s_shift, 3, 3)
    assert a[1] == b[0] and a[2] == b[1] and a[0] == b[2]


def test_hom_exists():
    top = make_rank_one(5, 1, 1, (4,), ONE)
    bot = make_rank_one(5, 1, 1, (0,), ONE)
    assert hom_exists(top, top)
    assert hom_exists(top, bot)
    assert not hom_exists(bot, top)
    bot_b = make_rank_one(5, 1, 1, (0,), F5.gen())
    assert not hom_exists(top, bot_b)


def test_slope_data_examples():
    n, r = slope_data((3,), (0,), 2, 5, 1)
    assert n == (Fraction(1, 4),) and r == (2,)
    n, r = slope_data((2,), (2,), 1, 5, 1)
    assert n == (Fraction(-1, 4),) and r == (4,)
    n, r = slope_data((1, 1), (0, 0), 1, 5, 2)
    assert all(x == 0 for x in n) and r == (1, 1)


def _slope_data_fractions(s, t, e, p, f):
    """Reference slope data on exact rationals, straight from the formulas."""
    den = p ** f - 1
    n = tuple(
        Fraction(sum(p ** (f - j) * (s[(j + i - 1) % f] - t[(j + i - 1) % f] - e)
                     for j in range(1, f + 1)), den)
        for i in range(f))
    r = tuple(s[i] - t[i] - e + floor(n[(i + 1) % f]) - p * floor(n[i]) + 1
              for i in range(f))
    for j in range(f):
        assert n[j] + (s[(j - 1) % f] - t[(j - 1) % f] - e) == p * n[(j - 1) % f]
    assert all(1 <= ri <= p for ri in r)
    return n, r


@st.composite
def frames(draw, primes, max_e, max_f):
    """(p, e, f, s, t) with every height in [0, e(p-2)]."""
    p = draw(st.sampled_from(primes))
    e = draw(st.integers(1, max_e))
    f = draw(st.integers(1, max_f))
    heights = st.lists(st.integers(0, e * (p - 2)), min_size=f, max_size=f)
    return p, e, f, tuple(draw(heights)), tuple(draw(heights))


@settings(max_examples=300, deadline=None)
@given(frames((3, 5, 7, 11), 3, 3))
def test_slope_data_matches_fraction_oracle(frame):
    p, e, f, s, t = frame
    n, r = slope_data(s, t, e, p, f)
    assert (n, r) == _slope_data_fractions(s, t, e, p, f)
    assert all(isinstance(x, Fraction) for x in n)


def _witness_fractions(s, t, e, p, f):
    """Reference obstruction witness, with floors of the oracle's n."""
    n, r = _slope_data_fractions(s, t, e, p, f)
    for i in range(f):
        fl = floor(n[(i + 1) % f])
        if (fl == -1 and r[i] != p) or fl <= -2:
            return i, s[i] + fl - e + (1 if r[i] != p else 2)


@settings(max_examples=200, deadline=None)
@given(frames((3, 5, 7, 11), 3, 3), st.data())
def test_equal_differences_share_slopes_and_witnesses(frame, data):
    # (s + k, t, e + k) and (s + d, t + d, e) have the same s - t - e as
    # (s, t, e): the same (n, r), the same witness index, and the witness
    # degree x = s_i + floor(n_{i+1}) - e + 1 (or + 2) moves by d_i only
    p, e, f, s, t = frame
    k = data.draw(st.integers(0, 3))
    d = data.draw(st.lists(st.integers(-3, 3), min_size=f, max_size=f))
    sk = tuple(si + k for si in s)
    sd, td = (tuple(x + di for x, di in zip(v, d)) for v in (s, t))
    want = _slope_data_fractions(s, t, e, p, f)
    assert slope_data(s, t, e, p, f) == want
    assert slope_data(sk, t, e + k, p, f) == want
    assert slope_data(sd, td, e, p, f) == want
    if sum(s) - sum(t) - e * f < 0:
        i, x = genericity_obstruction(s, t, e, p, f)
        assert (i, x) == _witness_fractions(s, t, e, p, f)
        assert genericity_obstruction(sk, t, e + k, p, f) == (i, x)
        assert genericity_obstruction(sd, td, e, p, f) == (i, x + d[i])


def test_slope_cache_is_keyed_by_differences_p_and_f():
    _slopes.cache_clear()
    n, r = slope_data((3,), (0,), 1, 5, 1)             # c = (2,)
    assert slope_data([4], [1], 1, 5, 1) == (n, r)     # list input, same c
    assert _slopes.cache_info()[:2] == (1, 1)          # (hits, misses)
    # the same c at another p, and the same constant difference at another
    # f (whose slope data happen to coincide), are entries of their own
    assert slope_data((3,), (0,), 1, 7, 1) == \
        _slope_data_fractions((3,), (0,), 1, 7, 1) != (n, r)
    assert slope_data((3, 3), (0, 0), 1, 5, 2) == \
        _slope_data_fractions((3, 3), (0, 0), 1, 5, 2)
    assert _slopes.cache_info()[:2] == (1, 3)


@pytest.mark.parametrize("s,t,f", [((1, 2), (0,), 2), ((1,), (0,), 2),
                                   ((1, 2, 0), (0, 0, 0), 2), ([1], [0, 0], 1)])
def test_slope_data_rejects_length_mismatch(s, t, f):
    with pytest.raises(PreconditionViolated):
        slope_data(s, t, 1, 5, f)


def test_genericity_obstruction_rejects_length_mismatch():
    with pytest.raises(PreconditionViolated):
        genericity_obstruction((0, 0, 0), (1, 1, 1), 1, 5, 2)


def test_slope_data_matches_the_oracle_on_the_selftest_sweep():
    # every tuple of criteria 7 and 8, not only one per distinct s - t - e
    for p, e, f, s, t in breuil_sweep_tuples():
        assert slope_data(s, t, e, p, f) == _slope_data_fractions(s, t, e, p, f)
        if sum(s) - sum(t) - e * f < 0:
            assert genericity_obstruction(s, t, e, p, f) == \
                _witness_fractions(s, t, e, p, f)


@settings(max_examples=300, deadline=None)
@given(frames((3, 5, 7, 11), 3, 3), st.booleans())
def test_alpha_differences_match_the_fractions(frame, same_a):
    p, e, f, s, t = frame
    F = field_make(p, f)
    top = make_rank_one(p, f, e, s, F.one())
    bot = make_rank_one(p, f, e, t, F.one() if same_a else F.gen())
    D, den = _alpha_differences(top, bot)
    diffs = [x - y for x, y in zip(alpha_invariants(s, p, f),
                                   alpha_invariants(t, p, f))]
    assert [Fraction(d, den) for d in D] == diffs
    integral = all(d.denominator == 1 for d in diffs)
    assert chi_equal(top, bot) == (same_a and integral)
    assert hom_exists(top, bot) == (same_a and integral and
                                    all(d >= 0 for d in diffs))
    if integral:
        assert _special_degrees(top, bot) == \
            tuple(s[j] + int(d) for j, d in enumerate(diffs))
    else:
        with pytest.raises(SpecialDegreeNotInteger):
            _special_degrees(top, bot)


def test_slope_recurrence_and_range_sweep():
    for p in (3, 5):
        for e in (1, 2):
            hi = e * (p - 2)
            for f in (1, 2):
                for s in product(range(hi + 1), repeat=f):
                    for t in product(range(hi + 1), repeat=f):
                        n, r = slope_data(s, t, e, p, f)
                        for j in range(f):
                            assert n[j] + (s[j - 1] - t[j - 1] - e) == p * n[j - 1]
                            assert 1 <= r[j] <= p


def test_bk_extension_degrees():
    top0 = make_rank_one(5, 1, 1, (0,), ONE)
    assert bk_extension_degrees(top0, make_rank_one(5, 1, 1, (1,), F5.gen()))[0] == [set()]
    top3 = make_rank_one(5, 1, 2, (3,), ONE)
    degs, special = bk_extension_degrees(top3, make_rank_one(5, 1, 2, (0,), F5.gen()))
    assert degs == [{0, 1, 2}] and special is None
    top4 = make_rank_one(5, 1, 1, (4,), ONE)
    bot0 = make_rank_one(5, 1, 1, (0,), ONE)
    degs, special = bk_extension_degrees(top4, bot0)
    assert degs == [{0, 1, 2, 3}] and special == [5]


def test_forbidden_degrees_examples():
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    assert breuil_forbidden_degrees(top, bot) == [{1}]
    # vacuous when the threshold drops to zero or below
    top2 = make_rank_one(5, 1, 2, (1,), ONE)
    bot2 = make_rank_one(5, 1, 2, (0,), ONE)
    assert breuil_forbidden_degrees(top2, bot2) == [set()]


def test_monodromy_examples():
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    assert solve_monodromy(top, bot) == [{}]
    assert solve_monodromy(top, bot, {(0, 1): ONE}) == INFEASIBLE
    assert solve_monodromy(top, bot, {(0, 0): ONE}) != INFEASIBLE


def test_monodromy_forbidden_equivalence_and_d_independence():
    rng = random.Random(4)
    for (e, s_, t_) in [(2, 3, 0), (1, 2, 1), (2, 5, 2), (3, 4, 0)]:
        top = make_rank_one(5, 1, e, (s_,), ONE)
        bot = make_rank_one(5, 1, e, (t_,), ONE)
        forb = breuil_forbidden_degrees(top, bot)[0]
        degs, check = monodromy_feasibility_checker(top, bot)
        for coeffs in product(range(5), repeat=s_):
            y = {(0, l): F5.from_int(c) for l, c in enumerate(coeffs) if c}
            feasible = check(y)
            assert feasible == all(l not in forb for (_, l) in y)
            # spot the one-shot solver and a scaled unit d on a subsample
            if rng.random() < 0.05:
                assert (solve_monodromy(top, bot, y) != INFEASIBLE) == feasible
                d_unit = {0: F5.from_dlog(rng.randrange(4)),
                          1: F5.from_int(rng.randrange(5))}
                assert (solve_monodromy(top, bot, y, d_unit)
                        != INFEASIBLE) == feasible


def test_monodromy_f2():
    # two-component frame: zero class is always crystalline
    F25 = field_make(5, 2)
    one = F25.one()
    top = make_rank_one(5, 2, 2, (3, 1), one)
    bot = make_rank_one(5, 2, 2, (0, 2), one)
    assert solve_monodromy(top, bot) is not INFEASIBLE
    forb = breuil_forbidden_degrees(top, bot)
    degs, check = monodromy_feasibility_checker(top, bot)
    for j, ds in enumerate(degs):
        for l in ds:
            y = {(j, l): one}
            assert check(y) == (l not in forb[j]), (j, l)


@pytest.mark.parametrize("key", [(0, 3), (1, 3), (0, -1), (-1, 5)])
def test_monodromy_refuses_a_degree_outside_the_bk_range(key):
    # s = (3,): a key (j, l) needs 0 <= l < 3, with j read mod f = 1
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    with pytest.raises(ValueError,
                       match=rf"^degree {key[1]} not allowed for y_{key[0]}$"):
        solve_monodromy(top, bot, {(0, 0): ONE, key: ONE})


def test_monodromy_refuses_a_coefficient_outside_the_field():
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    with pytest.raises(TypeError, match="field elements"):
        solve_monodromy(top, bot, {(0, 0): 1})


@pytest.mark.parametrize("d_unit", [{1: ONE}, {0: F5.zero(), 1: ONE}, {}])
def test_monodromy_refuses_a_d_without_a_unit_constant_term(d_unit):
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    with pytest.raises(ValueError, match="u-adic unit"):
        solve_monodromy(top, bot, None, d_unit)


def test_monodromy_default_d_is_one():
    F25 = field_make(5, 2)
    top = make_rank_one(5, 2, 3, (3, 1), F25.gen())
    bot = make_rank_one(5, 2, 3, (0, 2), F25.one())
    for y in ({}, {(0, 0): F25.gen(), (1, 0): F25.one()}):
        mu = solve_monodromy(top, bot, y)
        assert mu == solve_monodromy(top, bot, y, {0: F25.one()})
        assert mu != INFEASIBLE


def _verdict_table_cases():
    # the (e, s, t) cases above over all of F_5, each once more with an
    # extra key (0, -1) whose term lands in no row of the system
    for e, s_, t_ in [(2, 3, 0), (1, 2, 1), (2, 5, 2), (3, 4, 0)]:
        top = make_rank_one(5, 1, e, (s_,), ONE)
        bot = make_rank_one(5, 1, e, (t_,), ONE)
        keys = [(0, l) for l in range(s_)]
        yield top, bot, keys, list(range(5))
        yield top, bot, [(0, -1)] + keys[:2], list(range(5))
    # the f = 2 frame of test_monodromy_f2 on a few coefficients of F_25
    F25 = field_make(5, 2)
    top = make_rank_one(5, 2, 2, (3, 1), F25.one())
    bot = make_rank_one(5, 2, 2, (0, 2), F25.one())
    degs, _ = bk_extension_degrees(top, bot)
    keys = [(j, l) for j in range(2) for l in sorted(degs[j])]
    yield top, bot, keys, [0, 1, 7, 12, 24]


@pytest.mark.parametrize("top, bot, keys, encodings", list(_verdict_table_cases()))
def test_verdict_table_equals_check(top, bot, keys, encodings):
    F = top.a.field
    elems = [F.from_encoding(c) for c in encodings]
    _, check = monodromy_feasibility_checker(top, bot)
    expected = [check({key: c for key, c in zip(keys, combo) if not c.is_zero()})
                for combo in product(elems, repeat=len(keys))]
    table = monodromy_verdict_table(top, bot, keys, F.to_ks(elems))
    assert table == expected
    assert len(set(table)) == 2
    if (0, -1) in keys:
        assert _monodromy_weights(top, bot)[2]((0, -1)) is None
        assert not any(table[len(table) // len(elems):])


def _criterion_9_pairs():
    # the 44 (e, s, t) of criterion 9: p = 5, f = 1, s - t - e < 0
    for e in (1, 2):
        for s_ in range(3 * e + 1):
            for t_ in range(3 * e + 1):
                if s_ - t_ - e < 0:
                    yield e, s_, t_


def _identity_matches_the_table(top, bot, keys):
    """Whether monodromy_subspace_mismatch finds a mismatch, asserting that
    it does exactly when the table over F_5 differs from the clean-degree
    mask, and that its y is a point where they differ."""
    forb = breuil_forbidden_degrees(top, bot)[0]
    table = monodromy_verdict_table(
        top, bot, keys, F5.to_ks([F5.from_int(c) for c in range(5)]))
    mask = [all(c == 0 or l not in forb for (_, l), c in zip(keys, coeffs))
            for coeffs in product(range(5), repeat=len(keys))]
    found = monodromy_subspace_mismatch(top, bot, keys,
                                        [l not in forb for _, l in keys])
    assert (found is None) == (table == mask), (top, bot, keys)
    if found is not None:
        y, verdict = found
        idx = sum(c.encoding * 5 ** i for i, c in enumerate(reversed(y)))
        assert len(y) == len(keys) and table[idx] == verdict != mask[idx]
    return found is not None


def _weight_on_zero_columns(w, n_null):
    return [(0, 0)] if w == [] and n_null else w


def _drop_first_null_vector(w, n_null):
    return [(n, k) for n, k in w if n]


def _one_nonzero_column(w, n_null):
    return [(0, 0)] if w else w


@pytest.mark.parametrize("mutate", [None, _weight_on_zero_columns,
                                    _drop_first_null_vector,
                                    _one_nonzero_column])
def test_subspace_identity_agrees_with_the_verdict_table(monkeypatch, mutate):
    # on every pair of criterion 9, with the true weights and with mutated
    # ones that make some pair fail the identity
    if mutate is not None:
        weights = breuil._monodromy_weights

        def mutated(top, bot):
            degs, n_null, key_weights = weights(top, bot)
            return degs, n_null, lambda key: mutate(key_weights(key), n_null)
        monkeypatch.setattr(breuil, "_monodromy_weights", mutated)
    mismatches = sum(_identity_matches_the_table(
        make_rank_one(5, 1, e, (s_,), ONE), make_rank_one(5, 1, e, (t_,), ONE),
        [(0, l) for l in range(s_)]) for e, s_, t_ in _criterion_9_pairs())
    assert (mismatches == 0) == (mutate is None)


@pytest.mark.parametrize("top, bot, keys, encodings",
                         list(_verdict_table_cases())[:-1])
def test_subspace_identity_on_the_verdict_table_cases(top, bot, keys, encodings):
    # a key whose term lands in no row is clean, and fails the identity
    assert _identity_matches_the_table(top, bot, keys) == ((0, -1) in keys)


def _y_constants_ffelem(y, top, bottom):
    """Reference y constants in FFElem arithmetic (zero for cancelled keys)."""
    p, f, e = top.p, top.f, top.e
    F = top.a.field
    out = {}
    for (jj, l), cval in y.items():
        j = jj % f
        factor = (bottom.s[j] - l) % p
        g = e - top.s[j] + l
        if factor and not cval.is_zero() and g < e:
            out[(j, g)] = out.get((j, g), F.zero()) + F.from_int(factor) * cval
    return out


@settings(max_examples=150, deadline=None)
@given(frames((3, 5, 7), 3, 2), st.data())
def test_checker_matches_one_shot_solver(frame, data):
    p, e, f, s, t = frame
    F = field_make(p, f)
    unit = st.integers(0, F.q - 2).map(F.from_dlog)
    top = make_rank_one(p, f, e, s, data.draw(unit))
    bot = make_rank_one(p, f, e, t, data.draw(unit))
    degs, check = monodromy_feasibility_checker(top, bot)
    keys = [(j, l) for j in range(f) for l in sorted(degs[j])]
    coeff = st.integers(0, F.q - 1).map(F.from_encoding)
    y = {key: data.draw(coeff) for key in keys
         if data.draw(st.booleans())}
    if keys and data.draw(st.booleans()):
        # (j, l), (j + f, l) and (j + 2f, l) land on one row; opposite
        # coefficients cancel, and a third term starts the sum again
        j, l = data.draw(st.sampled_from(keys))
        c = data.draw(coeff)
        y[(j, l)], y[(j + f, l)] = c, -c
        if data.draw(st.booleans()):
            y[(j + 2 * f, l)] = data.draw(coeff)
    consts = _y_constants(y, top, bot)
    assert dict(zip(consts, F.from_ks(consts.values()))) == \
        _y_constants_ffelem(y, top, bot)
    feasible = solve_monodromy(top, bot, y) != INFEASIBLE
    assert check(y) == feasible


# (p, e, f, coefficient dlogs): e = 1 leaves the system without unknowns
@pytest.mark.parametrize("p,e,f,coeffs", [
    (3, 1, 1, None), (5, 1, 1, None), (3, 1, 2, None),
    (5, 1, 2, (1,)), (3, 2, 2, (0, 1)),
])
def test_checker_matches_solver_on_every_y(p, e, f, coeffs):
    # every y over the degree universe with coefficients in F (or, on the
    # larger sweeps, zero and the units g^k for k in coeffs), top a = g
    F = field_make(p, f)
    values = list(F.elements()) if coeffs is None else \
        [F.zero()] + [F.from_dlog(k) for k in coeffs]
    hi = e * (p - 2)
    for s in product(range(hi + 1), repeat=f):
        for t in product(range(hi + 1), repeat=f):
            top = make_rank_one(p, f, e, s, F.gen())
            bot = make_rank_one(p, f, e, t, F.one())
            degs, check = monodromy_feasibility_checker(top, bot)
            keys = [(j, l) for j in range(f) for l in sorted(degs[j])]
            for cs in product(values, repeat=len(keys)):
                y = dict(zip(keys, cs))
                feasible = solve_monodromy(top, bot, y)
                assert check(y) == (feasible != INFEASIBLE), (s, t, y)


def test_checker_rejects_keys_outside_the_universe():
    # (0, -1) lands on the row of degree e - s_0 - 1 = -3, which no term of
    # the system reaches; a zero coefficient there contributes nothing
    top = make_rank_one(5, 1, 1, (3,), ONE)
    bot = make_rank_one(5, 1, 1, (0,), ONE)
    _, check = monodromy_feasibility_checker(top, bot)
    assert check({(0, 0): ONE}) is True
    assert check({(0, -1): ONE}) is False
    assert check({(0, 0): ONE, (0, -1): ONE}) is False
    assert check({(0, 0): ONE, (0, -1): F5.zero()}) is True


def test_cancelling_terms_keep_their_row():
    # (0, 1) is forbidden; a zero total at its row is feasible again
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    _, check = monodromy_feasibility_checker(top, bot)
    y = {(0, 1): ONE, (1, 1): -ONE}
    assert check({(0, 1): ONE}) is False
    assert check(y) is True
    assert solve_monodromy(top, bot, y) != INFEASIBLE


def test_checker_rejects_foreign_coefficients():
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    _, check = monodromy_feasibility_checker(top, bot)
    with pytest.raises(IncompatibleFields):
        check({(0, 1): field_make(7, 1).one()})


def test_genericity_obstruction_examples():
    assert genericity_obstruction((0,), (1,), 1, 5, 1) == (0, -1)
    i, x = genericity_obstruction((0,), (2,), 1, 3, 1)
    assert i == 0 and (x - 2) % 3 != 0 and x <= 0 - 1
    with pytest.raises(PreconditionViolated):
        genericity_obstruction((1,), (0,), 1, 5, 1)


def test_genericity_obstruction_sweep_bounds():
    from math import floor
    for p in (3, 5):
        for e in (1, 2, 3):
            hi = e * (p - 2)
            for f in (1, 2):
                for s in product(range(hi + 1), repeat=f):
                    for t in product(range(hi + 1), repeat=f):
                        if sum(s[j] - t[j] - e for j in range(f)) >= 0:
                            continue
                        n, _ = slope_data(s, t, e, p, f)
                        i, x = genericity_obstruction(s, t, e, p, f)
                        assert (x - t[i]) % p != 0
                        assert x <= s[i] - e
                        lo = s[i] + floor(n[(i + 1) % f]) - e + 1
                        hi_w = s[i] + floor(n[(i + 1) % f])
                        assert lo <= x <= hi_w


def test_etale_image_windows():
    w, dim, special = etale_image_windows(make_rank_one(5, 1, 2, (3,), ONE),
                                          make_rank_one(5, 1, 2, (0,), ONE))
    assert [list(r) for r in w] == [[2, 3]] and dim == 2 and special is None
    # every window has exactly e integers
    for (s, t, e, p, f) in [((1, 4), (2, 0), 3, 5, 2), ((0,), (3,), 2, 5, 1)]:
        one = field_make(p, f).one()
        w, dim, _ = etale_image_windows(make_rank_one(p, f, e, s, one),
                                        make_rank_one(p, f, e, t, one))
        assert all(len(r) == e for r in w) and dim == e * f


def test_etale_windows_special_term():
    # chi_1 = chi_2 with integral alpha-differences adds one degree
    w, dim, special = etale_image_windows(make_rank_one(5, 1, 1, (4,), ONE),
                                          make_rank_one(5, 1, 1, (0,), ONE))
    assert dim == 2 and special == (5,)
    # the special degree of a pair whose characters differ is not an integer
    with pytest.raises(SpecialDegreeNotInteger):
        _special_degrees(make_rank_one(5, 1, 2, (3,), ONE),
                         make_rank_one(5, 1, 2, (0,), ONE))


def test_chi_equal():
    a = make_rank_one(5, 1, 2, (5,), ONE)
    b = make_rank_one(5, 1, 2, (1,), ONE)
    assert chi_equal(a, b)        # alpha difference = 1
    assert not hom_exists(b, a)   # difference negative from the other side
    c = make_rank_one(5, 1, 2, (2,), ONE)
    assert not chi_equal(a, c)    # difference 3/4


def test_change_of_variables_witness_and_roundtrip():
    for e in (1, 2):
        hi = e * 3
        for s_ in range(hi + 1):
            for t_ in range(hi + 1):
                if s_ - t_ - e >= 0:
                    continue
                top = make_rank_one(5, 1, e, (s_,), ONE)
                bot = make_rank_one(5, 1, e, (t_,), ONE)
                i, x = genericity_obstruction((s_,), (t_,), e, 5, 1)
                assert change_of_variables_solver(
                    {(i, x): ONE}, top, bot) == INFEASIBLE
                forb = breuil_forbidden_degrees(top, bot)[0]
                for l in (l for l in range(s_) if l not in forb):
                    nf = normal_form_in_windows({(0, l): ONE}, top, bot)
                    assert nf != INFEASIBLE
                    assert change_of_variables_solver(nf, top, bot) != INFEASIBLE


def obstruction_frames(p, f, es):
    """(top, bottom, witness) for every frame of the breuil-generic sweep
    at (p, f) and each e of es with sum(s_j - t_j - e) < 0, a = b = 1."""
    one = field_make(p, f).one()
    for e in es:
        hi = e * (p - 2)
        for s in product(range(hi + 1), repeat=f):
            for t in product(range(hi + 1), repeat=f):
                if sum(s[j] - t[j] - e for j in range(f)) < 0:
                    yield (make_rank_one(p, f, e, s, one),
                           make_rank_one(p, f, e, t, one),
                           genericity_obstruction(s, t, e, p, f))


def per_class_verdicts(top, bot, witness):
    """obstruction_frame_verdicts one class at a time, through
    change_of_variables_solver and normal_form_in_windows."""
    one = top.a.field.one()
    reached = change_of_variables_solver({witness: one}, top, bot) != INFEASIBLE
    forb = breuil_forbidden_degrees(top, bot)
    failures = []
    for j in range(top.f):
        for l in range(top.s[j]):
            if l in forb[j]:
                continue
            nf = normal_form_in_windows({(j, l): one}, top, bot)
            if nf == INFEASIBLE or change_of_variables_solver(
                    nf, top, bot) == INFEASIBLE:
                failures.append((j, l))
    return reached, failures


@pytest.mark.parametrize("p,f,es", [(5, 1, (1, 2, 3)), (3, 2, (1, 2))])
def test_frame_verdicts_match_the_per_class_solvers(p, f, es):
    chi_equal_frames = 0
    for top, bot, witness in obstruction_frames(p, f, es):
        assert obstruction_frame_verdicts(top, bot, witness) == \
            per_class_verdicts(top, bot, witness), (top.s, bot.s, top.e)
        chi_equal_frames += chi_equal(top, bot)
    assert chi_equal_frames > 0      # frames with the special degree are in


@pytest.mark.parametrize("p,f,es", [(5, 1, (1, 2, 3)), (3, 2, (1, 2)),
                                    (7, 1, (3,)), (3, 3, (1,))])
def test_sweep_verdicts_are_the_verdicts_of_every_frame(p, f, es):
    F = field_make(p, f)
    chi_equal_frames = 0
    for e in es:
        verdicts = sweep_frame_verdicts(p, e, f, F)
        for top, bot, witness in obstruction_frames(p, f, (e,)):
            reached, failures = obstruction_frame_verdicts(top, bot, witness)
            assert verdicts(top.s, bot.s) == (reached, not failures), \
                (top.s, bot.s, e)
            chi_equal_frames += chi_equal(top, bot)
    assert chi_equal_frames > 0      # frames with the special degree are in


def _shifted(frame, c):
    p, e, f, s, t = frame
    return (p, e, f, tuple(x + cj for x, cj in zip(s, c)),
            tuple(x + cj for x, cj in zip(t, c)))


@settings(max_examples=200, deadline=None)
@given(frames((3, 5, 7, 11), 3, 3), st.data())
def test_a_shift_moves_the_frame_data(frame, data):
    # the parts of the shift lemma of sweep_frame_verdicts: for c >= 0 that
    # keeps the heights in [0, e(p-2)], (s + c, t + c) has the windows, the
    # special degrees, the forbidden degrees and the witness of (s, t) moved
    # by c_j at index j, and a class space that holds the moved one and adds
    # only degrees l < c_j
    p, e, f, s, t = frame
    h = e * (p - 2)
    c = [data.draw(st.integers(0, h - max(x, y))) for x, y in zip(s, t)]
    one = field_make(p, f).one()
    sides = []
    for _, _, _, s_, t_ in (frame, _shifted(frame, c)):
        top, bot = (make_rank_one(p, f, e, v, one) for v in (s_, t_))
        windows, dim, special = etale_image_windows(top, bot)
        forbidden = breuil_forbidden_degrees(top, bot)
        sides.append(([(w.start, w.stop) for w in windows], dim, special,
                      {(j, l) for j, fs in enumerate(forbidden) for l in fs},
                      set(breuil._bk_class_space(top, bot))))
    (windows, dim, special, forbidden, space), \
        (cwindows, cdim, cspecial, cforbidden, cspace) = sides

    def moved(keys):
        return {(j, l + c[j]) for j, l in keys}

    assert [(a + cj, b + cj) for (a, b), cj in zip(windows, c)] == cwindows
    assert dim == cdim
    assert cspecial == (special and tuple(x + cj for x, cj in zip(special, c)))
    assert moved(forbidden) <= cforbidden and moved(space) <= cspace
    assert all(l < c[j] for j, l in cforbidden - moved(forbidden))
    assert all(l < c[j] for j, l in cspace - moved(space))
    if sum(s) - sum(t) < e * f:
        i, x = genericity_obstruction(s, t, e, p, f)
        assert genericity_obstruction(*_shifted(frame, c)[3:], e, p, f) == \
            (i, x + c[i])


@settings(max_examples=100, deadline=None)
@given(frames((3, 5, 7), 3, 2), st.data())
def test_frame_verdicts_are_those_of_every_shift(frame, data):
    p, e, f, s, t = frame
    if sum(s) - sum(t) >= e * f:
        return
    h = e * (p - 2)
    c = [data.draw(st.integers(-min(x, y), h - max(x, y)))
         for x, y in zip(s, t)]
    F = field_make(p, f)
    assert frame_verdicts(s, t, e, p, f, F) == \
        frame_verdicts(*_shifted(frame, c)[3:], e, p, f, F)


def test_sweep_decides_by_frame_a_difference_whose_representative_fails(
        monkeypatch):
    # at (p, e, f) = (5, 1, 1) the frames with d = -1 are (0, 1), (1, 2) and
    # (2, 3), the representative; a failure there is not read as a failure
    # of the others, which are then solved one by one
    solve = breuil.obstruction_frame_verdicts
    solved = []

    def failing(top, bot, witness):
        solved.append((top.s, bot.s))
        if (top.s, bot.s) == ((2,), (3,)):
            return False, [(0, 0)]
        return solve(top, bot, witness)

    monkeypatch.setattr(breuil, "obstruction_frame_verdicts", failing)
    verdicts = sweep_frame_verdicts(5, 1, 1, F5)
    assert len(solved) == 4              # d in {-3, -2, -1, 0}
    solved.clear()
    assert verdicts((0,), (2,)) == (False, True) and solved == []
    assert verdicts((1,), (2,)) == (False, True) and solved == [((1,), (2,))]
    assert verdicts((2,), (3,)) == (False, False)


@pytest.mark.parametrize("p,f,es", [(5, 1, (1, 2)), (7, 1, (1, 3)),
                                    (3, 2, (1, 2)), (3, 3, (1,))])
def test_frame_system_bound_covers_every_system(monkeypatch, p, f, es):
    # every change-of-variables system of a sweep, both directions and both
    # margins, has at most frame_system_bound equations and unknowns
    sizes = []
    for name in ("sparse_feasible", "sparse_solve_columns"):
        def recorded(rows, columns, nunk, F, solve=getattr(breuil, name)):
            sizes.append(max(len(rows), nunk))
            return solve(rows, columns, nunk, F)
        monkeypatch.setattr(breuil, name, recorded)
    for top, bot, witness in obstruction_frames(p, f, es):
        sizes.clear()
        obstruction_frame_verdicts(top, bot, witness)
        assert 0 < max(sizes) <= frame_system_bound(p, top.e, f)


def test_frame_verdicts_read_a_reachable_witness():
    # a window class that a crystalline extension reaches reads reached
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    assert per_class_verdicts(top, bot, (0, 2)) == (True, [])
    assert obstruction_frame_verdicts(top, bot, (0, 2)) == (True, [])


@pytest.mark.parametrize("p,e,f", [(3, 2, 2), (7, 3, 1), (5, 2, 1)])
def test_three_eliminations_per_obstruction_frame(monkeypatch, p, e, f):
    calls = []
    echelon = linalg._echelon

    def counted(rows, field):
        calls.append(1)
        return echelon(rows, field)

    monkeypatch.setattr(linalg, "_echelon", counted)
    kinds = Counter()
    for top, bot, witness in obstruction_frames(p, f, (e,)):
        calls.clear()
        obstruction_frame_verdicts(top, bot, witness)
        forb = breuil_forbidden_degrees(top, bot)
        clean = any(l not in forb[j] for j in range(f) for l in range(top.s[j]))
        # one to-etale system for the clean classes (none without one), and
        # the back system at margin 0 and at margin 2ep
        assert len(calls) == (3 if clean else 2), (top.s, bot.s)
        kinds[clean] += 1
    assert kinds[True] > 0


def test_frame_guard_reruns_the_back_system_at_margin_2ep(monkeypatch):
    from dwork_forge import breuil
    from dwork_forge.breuil import WindowTooSmall
    solve = breuil._cov_solve
    margins = []

    def spy(givens, *args, margin=0, verdicts_only=False, **kwargs):
        out = solve(givens, *args, margin=margin, verdicts_only=verdicts_only,
                    **kwargs)
        if verdicts_only:
            margins.append(margin)
        return out

    monkeypatch.setattr(breuil, "_cov_solve", spy)
    top, bot, witness = next(obstruction_frames(5, 1, (2,)))
    obstruction_frame_verdicts(top, bot, witness)
    assert margins == [0, 2 * 2 * 5]

    def flipped(givens, *args, margin=0, verdicts_only=False, **kwargs):
        out = solve(givens, *args, margin=margin, verdicts_only=verdicts_only,
                    **kwargs)
        return [not out[0]] + out[1:] if margin else out

    monkeypatch.setattr(breuil, "_cov_solve", flipped)
    with pytest.raises(WindowTooSmall):
        obstruction_frame_verdicts(top, bot, witness)


@pytest.mark.parametrize("to_etale", [False, True])
def test_cov_truncation_reaches_every_given_class(to_etale):
    # at s = 3, t = 0, p = 5 only lambda_{-44} reaches u^-41 (not a multiple
    # of p), its phi-term u^-220 only lambda_{-223}, and so on down forever:
    # u^-41 is infeasible. u^-40 is the phi-term of lambda_{-8}, whose other
    # term u^-5 is that of lambda_{-1}, whose other term u^2 is a class
    # degree in both directions: feasible, but only with lambda indices
    # below the unknowns' own truncation (L = -3), so the truncation must
    # reach past the given data, alone or in a batch
    from dwork_forge.breuil import _bk_class_space, _cov_solve, _window_class_space
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    space = (_window_class_space if to_etale else _bk_class_space)(top, bot)
    givens = [{(0, -41): ONE}, {}, {(0, -40): ONE},
              {(0, 1): ONE, (0, -41): ONE}]
    verdicts = _cov_solve(givens, top, bot, space, to_etale,
                          verdicts_only=True)
    assert verdicts == [False, True, True, False]
    sols = _cov_solve(givens, top, bot, space, to_etale)
    assert [sol != INFEASIBLE for sol in sols] == verdicts


def test_etale_phi_class_support_checked():
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    cls = {(0, 2): ONE, (0, 3): ONE}
    assert change_of_variables_solver(cls, top, bot) != INFEASIBLE
    # a pair with chi_1 = chi_2, which has a special degree
    t5 = make_rank_one(5, 1, 2, (5,), ONE)
    b1 = make_rank_one(5, 1, 2, (1,), ONE)
    assert chi_equal(t5, b1)


@pytest.mark.parametrize("solve", [change_of_variables_solver,
                                   normal_form_in_windows])
def test_cov_reads_a_given_index_mod_f(solve):
    # f = 1, so the given index 1 is index 0 in both directions, and
    # coefficients that land on one key add up, to zero too. u^-41 is
    # reached in neither direction; u^2 and u^3 are classes in both spaces
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    assert solve({(1, -41): ONE}, top, bot) == INFEASIBLE
    for g in (-41, 2, 3):
        assert solve({(1, g): ONE}, top, bot) == solve({(0, g): ONE}, top, bot)
        for a, b in [(1, 3), (2, 3), (4, 4)]:
            a, b = F5.from_int(a), F5.from_int(b)
            assert solve({(0, g): a, (1, g): b}, top, bot) == \
                solve({(0, g): a + b}, top, bot), (a, b, g)


def test_frame_verdicts_read_the_witness_index_mod_f():
    # the witness at index i + f is the witness at i, frame by frame
    for top, bot, (i, x) in obstruction_frames(3, 2, (2,)):
        assert obstruction_frame_verdicts(top, bot, (i + 2, x)) == \
            obstruction_frame_verdicts(top, bot, (i, x)), (top.s, bot.s)


def test_change_of_variables_zero_class():
    top = make_rank_one(5, 1, 2, (3,), ONE)
    bot = make_rank_one(5, 1, 2, (0,), ONE)
    verdict = change_of_variables_solver({}, top, bot)
    assert verdict != INFEASIBLE
    y_sol, lam_sol = verdict
    assert not y_sol and all(not lj for lj in lam_sol)


def test_change_of_variables_f2_sampled():
    # two-component frames, sampled: witness infeasible, clean classes
    # round-trip through the windows
    F25 = field_make(5, 2)
    one = F25.one()
    rng = random.Random(23)
    done = 0
    while done < 12:
        e = rng.randint(1, 2)
        hi = 3 * e
        s = (rng.randint(0, hi), rng.randint(0, hi))
        t = (rng.randint(0, hi), rng.randint(0, hi))
        if sum(s[j] - t[j] - e for j in range(2)) >= 0:
            continue
        top = make_rank_one(5, 2, e, s, one)
        bot = make_rank_one(5, 2, e, t, one)
        i, x = genericity_obstruction(s, t, e, 5, 2)
        assert change_of_variables_solver({(i, x): one}, top, bot) == INFEASIBLE
        forb = breuil_forbidden_degrees(top, bot)
        for j in range(2):
            clean = [l for l in range(s[j]) if l not in forb[j]]
            if clean:
                nf = normal_form_in_windows({(j, clean[0]): one}, top, bot)
                assert nf != INFEASIBLE
                assert change_of_variables_solver(nf, top, bot) != INFEASIBLE
        done += 1


def test_larger_frames_sampled():
    # beyond the exhaustive sweep range: p = 7 and f = 3, randomly sampled
    rng = random.Random(17)
    for _ in range(300):
        p = rng.choice((5, 7))
        e = rng.randint(1, 3)
        f = rng.randint(1, 3)
        hi = e * (p - 2)
        s = tuple(rng.randint(0, hi) for _ in range(f))
        t = tuple(rng.randint(0, hi) for _ in range(f))
        n, r = slope_data(s, t, e, p, f)  # asserts recurrence and r range
        if sum(s[j] - t[j] - e for j in range(f)) < 0:
            i, x = genericity_obstruction(s, t, e, p, f)
            assert (x - t[i]) % p != 0 and x <= s[i] - e


def test_chain_slope_check():
    assert chain_slope_check(((0,),), 1)                 # d = 1 vacuous
    assert chain_slope_check(((0,), (1,)), 1)            # forced d = 2 chain
    assert chain_slope_check(((0, 0), (2, 2), (4, 4)), 2)
    with pytest.raises(PreconditionViolated):
        chain_slope_check(((0,), (0,)), 1)               # increment fails
    with pytest.raises(PreconditionViolated):
        chain_slope_check(((0,), (2,)), 1)               # height too big


@pytest.mark.parametrize("d,e,f", list(product((1, 2, 3, 4), (1, 2), (1, 2))))
def test_increasing_chains_match_brute_force(d, e, f):
    hmax = e * (d - 1)
    total = {lv: sum(lv) for lv in product(range(hmax + 1), repeat=f)}
    brute = [c for c in product(total, repeat=d)
             if all(total[b] - total[a] >= e * f for a, b in pairwise(c))]
    assert list(increasing_chains(d, e, f)) == brute     # same chains, same order


@pytest.mark.parametrize("d,e,f", [(4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 3, 2),
                                   (3, 2, 3), (4, 2, 3), (5, 1, 3)])
def test_chain_count_is_the_closed_form(d, e, f):
    # the level totals are forced to 0, ef, ..., ef(d-1): the count is the
    # product over i of the number of levels in [0, e(d-1)]^f with sum i e f
    sums = Counter(map(sum, product(range(e * (d - 1) + 1), repeat=f)))
    assert sum(1 for _ in increasing_chains(d, e, f)) == prod(
        sums[i * e * f] for i in range(d))


@pytest.mark.parametrize("d,e,f", [(0, 1, 1), (-1, 1, 1), (2, -1, 1),
                                   (2, 1, 0)])
def test_increasing_chains_reject_small_parameters(d, e, f):
    with pytest.raises(PreconditionViolated):
        next(increasing_chains(d, e, f))


def test_chain_level_bound_is_the_table_limit():
    from dwork_forge.breuil import _levels_fit
    from dwork_forge.ff import TABLE_LIMIT, TooLarge
    # 2^16 levels of 16 heights is exactly the limit; d = 1 has one level
    assert _levels_fit(1, 16) and not _levels_fit(1, 17)
    assert _levels_fit(0, TABLE_LIMIT) and not _levels_fit(0, TABLE_LIMIT + 1)
    assert not _levels_fit(10 ** 30, 1) and not _levels_fit(1, 10 ** 20)
    assert len(list(increasing_chains(2, 1, 16))) == 1
    with pytest.raises(TooLarge):
        increasing_chains(2, 1, 17)
    with pytest.raises(PreconditionViolated):    # checked before the size
        increasing_chains(0, 1, 10 ** 20)


def test_chain_count_bound_is_the_table_limit(monkeypatch):
    from dwork_forge import breuil
    from dwork_forge.ff import TooLarge
    # (5, 2, 2) has 1 * 5 * 9 * 5 * 1 = 225 chains over 81 levels of 2 heights
    monkeypatch.setattr(breuil, "TABLE_LIMIT", 225)
    assert sum(1 for _ in increasing_chains(5, 2, 2)) == 225
    monkeypatch.setattr(breuil, "TABLE_LIMIT", 224)
    with pytest.raises(TooLarge, match="225 chains"):
        increasing_chains(5, 2, 2)
