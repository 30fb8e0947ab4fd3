import dataclasses
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from dwork_forge.ff import char_value, extension_of, norm_to_subfield
from dwork_forge.hypergeom import (char_poly, newton_polygon, select_chi,
                                   trace_all_fast, verify_det, verify_purity)
from dwork_forge.lambda_adic import reduce_mod_lambda
from dwork_forge.ordinarity import (build_ordinary_test, exponents_c,
                                    lucas_check, ordinary_locus, u_poly,
                                    unit_root_check, verify_norm_identity)
from dwork_forge.util import VerificationFailed


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


def pointwise_norm_identity(test, d):
    """The oracle: (x_dlog, u(x) != 0, reduced trace, norm, ok) at each
    point, from reduce_mod_lambda, u_at and norm_to_subfield on field
    elements, with the two sides as encodings in k(v)."""
    K = extension_of(test.field_v, d)
    traces = trace_all_fast(test.params, K)
    rows = []
    for x in traces:
        t_red = reduce_mod_lambda(traces[x], test.lam)
        u_val = test.u_at(x)
        norm_u = norm_to_subfield(u_val, test.field_v)
        rows.append((K.dlog(x), not u_val.is_zero(), t_red.encoding,
                     norm_u.encoding, t_red == norm_u))
    return rows


def array_rows(ident):
    return list(zip(ident.x_dlog.tolist(), ident.u_nonzero.tolist(),
                    ident.trace_red.tolist(), ident.norm_u.tolist(),
                    ident.ok.tolist()))


# the residue fields k(v) = F_81 (N = 5, l = 3) and F_729 (N = 7, l = 3) are
# not prime fields; N = 3, l = 2 is characteristic 2 over k(v) = F_4
@pytest.mark.parametrize("N,n,l,d", [(3, 2, 7, 1), (3, 2, 7, 2),
                                     (11, 3, 23, 1), (11, 3, 23, 2),
                                     (5, 2, 11, 1), (5, 2, 3, 2), (7, 3, 3, 1),
                                     (3, 2, 2, 1), (3, 2, 2, 3)])
def test_norm_identity_exhaustive(N, n, l, d):
    test = build_ordinary_test(select_chi(N, n), l)
    ident = verify_norm_identity(test, d)
    assert array_rows(ident) == pointwise_norm_identity(test, d)
    assert ident.ok.all()
    # both sides of the identity are nonzero somewhere, so neither is
    # trivially equal to the other
    assert ident.u_nonzero.any() and ident.trace_red.any()


def test_norm_identity_peak_memory():
    test = build_ordinary_test(select_chi(11, 3), 23)
    verify_norm_identity(test, 2)      # the trace map and the tables it reads are cached
    counts = trace_all_fast(test.params, extension_of(test.field_v, 2)).counts
    tracemalloc.start()
    try:
        ident = verify_norm_identity(test, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results = sum(a.nbytes for a in (ident.x_dlog, ident.u_nonzero,
                                     ident.trace_red, ident.norm_u, ident.ok))
    assert peak <= 2 * counts.nbytes + results


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
        rep = unit_root_check(test, rec, newton_polygon(rec, test.lam))
        if test.u_at(x).is_zero():
            assert rep.skipped
        else:
            assert rep.min_slope_zero and rep.fully_ordinary


def test_unit_root_requires_slopes():
    # the check judges the slopes it is handed, whatever the record's
    # polygon is: slopes without a 0 at a u-nonvanishing point are a
    # violation, and a point with u(x) = 0 is skipped whatever the slopes
    params = select_chi(3, 2)
    test = build_ordinary_test(params, 7)
    K = extension_of(test.field_v, 2)       # F_7 has no zero of u
    points = sorted(trace_all_fast(params, K), key=lambda e: e.k)
    unit = next(x for x in points if not test.u_at(x).is_zero())
    rec = char_poly(params, K, unit)
    half = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(VerificationFailed, match="unit-root violation"):
        unit_root_check(test, rec, half)
    rep = unit_root_check(test, rec, (Fraction(0), Fraction(1)))
    assert not rep.skipped and rep.min_slope_zero and rep.fully_ordinary
    rep = unit_root_check(test, rec, (Fraction(0), Fraction(0)))
    assert rep.min_slope_zero and not rep.fully_ordinary
    zero = next(x for x in points if test.u_at(x).is_zero())
    assert unit_root_check(test, char_poly(params, K, zero), half).skipped


def test_checks_leave_the_record_equal_to_a_fresh_one():
    # every per-point check returns its verdict and writes nothing: after
    # all four, each record still equals char_poly's at the same point
    params = select_chi(3, 2)
    test = build_ordinary_test(params, 7)
    K = test.field_v
    for x in trace_all_fast(params, K):
        rec = char_poly(params, K, x)
        slopes = newton_polygon(rec, test.lam)
        assert verify_det(rec).passed and verify_purity(rec)
        unit_root_check(test, rec, slopes)
        assert rec == char_poly(params, K, x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.coeffs = rec.coeffs[::-1]
    fields = {f.name for f in dataclasses.fields(rec)}
    assert fields == {"params", "q", "field", "x", "traces", "coeffs"}
