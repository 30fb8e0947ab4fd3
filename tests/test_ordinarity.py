import random
from math import comb

import pytest

from dwork_forge.ff import char_value, extension_of
from dwork_forge.hypergeom import char_poly, newton_polygon, select_chi, trace_all_fast
from dwork_forge.lambda_adic import reduce_mod_lambda
from dwork_forge.ordinarity import (build_ordinary_test, exponents_c,
                                    lucas_check, ordinary_locus, u_poly,
                                    unit_root_check, verify_norm_identity)


def test_exponents_c_standard_tau():
    params = select_chi(3, 2)
    c, lam = exponents_c(params, 7)
    assert c == (2, 4)
    # z^(c_i) equals the reduction of chi_{m_i}(z) on all of k(v)^x
    K = lam.residue_field
    for m, ci in zip(params.rho_exponents, c):
        for z in K.nonzero_elements():
            assert z ** ci == reduce_mod_lambda(char_value(3, m, z), lam)


@pytest.mark.parametrize("N,n,l", [(3, 2, 7), (5, 2, 11), (11, 3, 23), (3, 2, 13)])
def test_exponents_consistency_sweep(N, n, l):
    params = select_chi(N, n)
    c, lam = exponents_c(params, l)
    K = lam.residue_field
    assert all(1 <= ci <= K.q - 2 for ci in c)
    for m, ci in zip(params.rho_exponents, c):
        for z in K.nonzero_elements():
            assert z ** ci == reduce_mod_lambda(char_value(N, m, z), lam)


def test_u_poly_examples():
    assert u_poly((2, 4), 2, 7) == (1, 1, 6)
    assert u_poly((1, 1), 2, 5) == (1, 1)
    assert u_poly((1, 1), 2, 11) == (1, 1)
    # constant coefficient is always 1; degree <= min c_i
    rng = random.Random(2)
    for _ in range(50):
        l = rng.choice((5, 7, 11))
        c = tuple(rng.randint(1, l - 2) for _ in range(rng.randint(1, 4)))
        u = u_poly(c, rng.randint(1, 5), l)
        assert u[0] == 1 and len(u) - 1 <= min(c)


def test_u_poly_odd_n_signs():
    # n odd: (-1)^(nr) alternates
    u = u_poly((2, 2, 2), 3, 7)
    assert u == (1, (-comb(2, 1) ** 3) % 7, (comb(2, 2) ** 3) % 7)


def test_ordinary_locus():
    params = select_chi(3, 2)
    test = build_ordinary_test(params, 7)
    # u = 1 + T + 6T^2 over F_7: roots where u(x) = 0
    loc1 = ordinary_locus(test, 1)
    K = test.field_v
    expected = [x for x in K.nonzero_elements()
                if x != K.one() and not test.u_at(x).is_zero()]
    assert loc1 == expected
    # locus over F_{q^2} contains the embedded locus over F_q
    from dwork_forge.ff import embed
    K2 = extension_of(K, 2)
    loc2 = set(ordinary_locus(test, 2))
    for x in loc1:
        assert embed(x, K2) in loc2


def test_ordinary_locus_linear_u():
    # a synthetic test with u = 1 + T over F_7: excluded point is x = 6
    params = select_chi(3, 2)
    test = build_ordinary_test(params, 7)
    test2 = type(test)(params, test.l, test.lam, test.field_v, test.q_v,
                       test.c, (1, 1), test.tau)
    K = test.field_v
    locus = ordinary_locus(test2, 1)
    assert K.from_encoding(6) not in locus
    assert len(locus) == 7 - 2 - 1


@pytest.mark.parametrize("N,n,l,d", [(3, 2, 7, 1), (3, 2, 7, 2),
                                     (11, 3, 23, 1), (11, 3, 23, 2),
                                     (5, 2, 11, 1)])
def test_norm_identity_exhaustive(N, n, l, d):
    params = select_chi(N, n)
    test = build_ordinary_test(params, l)
    rows = verify_norm_identity(test, d)
    assert rows and all(r.ok for r in rows)
    # d = 1 degenerate form: trace = u(x) mod lambda directly
    if d == 1:
        for r in rows:
            x = test.field_v.from_dlog(r.x_dlog)
            assert r.norm_u == test.u_at(x)


def test_lucas_examples():
    assert lucas_check(3, 7, 2, [0, 0], 7)          # r = 0
    assert lucas_check(2, 5, 3, [3, 1, 0], 5)       # vanishing binomial side
    rng = random.Random(11)
    for l in (5, 7, 11):
        for _ in range(500):
            d = rng.randint(1, 3)
            c = rng.randint(1, l - 2)
            digits = [rng.randint(0, l - 2) for _ in range(d)]
            assert lucas_check(c, l, d, digits, l)


def test_lucas_requires_l_power():
    with pytest.raises(ValueError, match="power of l"):
        lucas_check(2, 6, 2, [1, 1], 5)


def test_unit_root_check_paths():
    params = select_chi(3, 2)
    test = build_ordinary_test(params, 7)
    K = test.field_v
    for x in sorted(trace_all_fast(params, K), key=lambda e: e.k):
        rec = char_poly(params, K, x)
        newton_polygon(rec, test.lam)
        rep = unit_root_check(test, rec)
        if test.u_at(x).is_zero():
            assert rep.skipped
        else:
            assert rep.min_slope_zero and rep.fully_ordinary


def test_unit_root_requires_slopes():
    params = select_chi(3, 2)
    test = build_ordinary_test(params, 7)
    K = test.field_v
    rec = char_poly(params, K, K.from_encoding(3))
    with pytest.raises(ValueError, match="newton_polygon first"):
        unit_root_check(test, rec)
