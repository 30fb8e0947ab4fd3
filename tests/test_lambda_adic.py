import random
from itertools import zip_longest
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwork_forge.cyclotomic import CyclotomicInt, cyclotomic_polynomial, euler_phi_of
from dwork_forge.ff import _pdivmod, _pmul, _ptrim, field_make
from dwork_forge.lambda_adic import (PrecisionExhausted, _field_inverse_mod_l,
                                     _UnramifiedRing, lambda_prime,
                                     reduce_mod_lambda, val_lambda,
                                     val_lambda_auto)

CONFIGS = [(3, 7), (5, 11), (11, 23), (5, 7), (7, 3)]  # last two have d > 1


def rand_elem(rng, N, bound=20):
    phi = euler_phi_of(N)
    return CyclotomicInt(N, [rng.randrange(-bound, bound + 1) for _ in range(phi)])


def rand_unit(rng, N, lam):
    while True:
        a = rand_elem(rng, N)
        if not reduce_mod_lambda(a, lam).is_zero():
            return a


def test_residue_degree():
    assert lambda_prime(3, 7).d == 1     # 7 = 1 mod 3
    assert lambda_prime(5, 7).d == 4     # ord(7 mod 5) = ord(2) = 4
    assert lambda_prime(7, 3).d == 6     # 3 is a primitive root mod 7
    assert lambda_prime(11, 23).d == 1


def test_lifted_root_satisfies_phi():
    lam = lambda_prime(3, 7, precision=32)
    r = lam.lifted_root
    phi = cyclotomic_polynomial(3)
    val = sum(c * r ** i for i, c in enumerate(phi))
    assert val % 7 ** 32 == 0
    assert pow(r, 3, 7 ** 32) == 1


def test_bad_inputs():
    with pytest.raises(ValueError):
        lambda_prime(3, 4)     # not prime
    with pytest.raises(ValueError):
        lambda_prime(3, 3)     # l | N
    with pytest.raises(ValueError):
        lambda_prime(5, 7, tau_choice=5)  # not coprime to N


@pytest.mark.parametrize("N,l", CONFIGS)
def test_reduce_is_ring_hom(N, l):
    lam = lambda_prime(N, l)
    rng = random.Random(N * 100 + l)
    z = CyclotomicInt.zeta_pow(N, 1)
    assert reduce_mod_lambda(z, lam) ** N == lam.residue_field.one()
    assert reduce_mod_lambda(CyclotomicInt.from_int(N, l), lam).is_zero()
    for _ in range(40):
        a, b = rand_elem(rng, N), rand_elem(rng, N)
        ra, rb = reduce_mod_lambda(a, lam), reduce_mod_lambda(b, lam)
        assert reduce_mod_lambda(a + b, lam) == ra + rb
        assert reduce_mod_lambda(a * b, lam) == ra * rb


@pytest.mark.parametrize("N,l", CONFIGS)
def test_val_basics(N, l):
    lam = lambda_prime(N, l)
    rng = random.Random(N + l)
    assert val_lambda(CyclotomicInt.one(N), lam) == 0
    assert val_lambda(CyclotomicInt.from_int(N, l), lam) == 1
    assert val_lambda(CyclotomicInt.zero(N), lam) == inf
    u = rand_unit(rng, N, lam)
    assert val_lambda(u * (l ** 3), lam) == 3


@pytest.mark.parametrize("N,l", [(3, 7), (5, 11), (5, 7)])
def test_val_multiplicative(N, l):
    lam = lambda_prime(N, l)
    rng = random.Random(N * 7 + l)
    for _ in range(200):
        a, b = rand_elem(rng, N), rand_elem(rng, N)
        if a.is_zero() or b.is_zero():
            continue
        assert val_lambda(a * b, lam) == val_lambda(a, lam) + val_lambda(b, lam)
        # v(a) = 0 iff the reduction is nonzero
        assert (val_lambda(a, lam) == 0) == (not reduce_mod_lambda(a, lam).is_zero())


def test_precision_exhausted_and_retry():
    lam = lambda_prime(3, 7, precision=16)
    deep = CyclotomicInt.from_int(3, 7 ** 16)
    with pytest.raises(PrecisionExhausted):
        val_lambda(deep, lam)
    v, lam2 = val_lambda_auto(deep, lam)
    assert v == 16 and lam2.precision == 32


def test_tau_choice_changes_identification():
    lam1 = lambda_prime(5, 11, tau_choice=1)
    lam2 = lambda_prime(5, 11, tau_choice=2)
    z = CyclotomicInt.zeta_pow(5, 1)
    w1, w2 = reduce_mod_lambda(z, lam1), reduce_mod_lambda(z, lam2)
    assert w1 != w2 and w1 ** 5 == w2 ** 5 == lam1.residue_field.one()
    # valuations agree on rational integers regardless of tau
    a = CyclotomicInt.from_int(5, 11 * 13)
    assert val_lambda(a, lam1) == val_lambda(a, lam2) == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 7]), st.data())
def test_fp_division_and_inverse_mod_l(p, data):
    digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
    a = data.draw(digits)
    b = data.draw(digits) + [data.draw(st.integers(1, p - 1))]
    q, r = _pdivmod(a, b, p)
    assert r == [0] or len(r) < len(b)              # deg r < deg b
    qb_plus_r = [x + y for x, y in zip_longest(_pmul(q, b, p), r, fillvalue=0)]
    assert _ptrim(qb_plus_r, p) == _ptrim(a, p)
    # inverse in F_p[y]/(h) for the defining polynomial h of F_{p^f}
    f = data.draw(st.integers(1, 4))
    ring = _UnramifiedRing(p, 1, field_make(p, f).defining_poly)
    x = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)
                        .filter(any)))
    assert ring.mul(_field_inverse_mod_l(ring, x), x) == (1,) + (0,) * (f - 1)
