import os
import random
import subprocess
import sys
from itertools import zip_longest
from math import gcd, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwork_forge
from dwork_forge.cyclotomic import CyclotomicInt, euler_phi_of
from dwork_forge.ff import _pdivmod, _pmul, _ptrim
from dwork_forge.lambda_adic import lambda_prime, reduce_mod_lambda, val_lambda

CONFIGS = [(3, 7), (5, 11), (11, 23), (5, 7), (7, 3)]  # last two have d > 1
# split (3,7), (5,11), (11,23); inert (5,7), (7,3); mixed (7,2), (13,3), (15,2)
ORACLE_CONFIGS = CONFIGS + [(7, 2), (13, 3), (15, 2)]


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


def test_place_over_N_1_is_the_prime_field():
    # (Z/1)^x is trivial, so ord(l mod 1) = 1; in a child process, so that
    # an order loop that never ends fails the test instead of hanging it
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwork_forge.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from dwork_forge.lambda_adic import lambda_prime, residue_field\n"
            "print(residue_field(1, 7).q, lambda_prime(1, 7).d)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, timeout=30, check=True).stdout
    assert out == "7 1\n"


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


@pytest.mark.parametrize("N,l", CONFIGS)
def test_deep_valuation_needs_no_precision(N, l):
    lam = lambda_prime(N, l)
    u = rand_unit(random.Random(N * 3 + l), N, lam)
    assert val_lambda(u * l ** 200, lam) == 200


def places_over(N, l):
    """One LambdaPrime per place over l: one tau_choice per coset of <l>."""
    seen, places = set(), []
    for t in range(1, N):
        if gcd(t, N) == 1 and t not in seen:
            lam = lambda_prime(N, l, tau_choice=t)
            seen.update(t * l ** j % N for j in range(lam.d))
            places.append(lam)
    return places


@pytest.mark.parametrize("N,l", ORACLE_CONFIGS)
def test_place_sum_is_the_norm_valuation(N, l):
    # v_l(Norm(a)) = sum over the places lambda | l of d * v_lambda(a)
    places = places_over(N, l)
    assert len(places) * places[0].d == euler_phi_of(N)
    rng = random.Random(N * 1000 + l)
    for _ in range(12):
        a = rand_elem(rng, N, bound=4) * l ** rng.randrange(3)
        for lam in places:     # a factor in lambda, with its own exponent
            h = sum((CyclotomicInt.zeta_pow(N, i) * c
                     for i, c in enumerate(lam.min_poly_mod_l)),
                    CyclotomicInt.zero(N))
            a = a * h ** rng.randrange(3)
        if a.is_zero():
            continue
        norm = CyclotomicInt.one(N)
        for c in range(1, N):
            if gcd(c, N) == 1:
                norm = norm * a.galois_apply(c)
        n = norm.coeffs[0]
        assert norm == CyclotomicInt.from_int(N, n) and n != 0
        v = 0
        while n % l == 0:
            n //= l
            v += 1
        assert places[0].d * sum(val_lambda(a, lam) for lam in places) == v


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
def test_fp_division(p, data):
    digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
    a = data.draw(digits)
    b = data.draw(digits) + [data.draw(st.integers(1, p - 1))]
    q, r = _pdivmod(a, b, p)
    assert r == [0] or len(r) < len(b)              # deg r < deg b
    qb_plus_r = [x + y for x, y in zip_longest(_pmul(q, b, p), r, fillvalue=0)]
    assert _ptrim(qb_plus_r, p) == _ptrim(a, p)
