import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from curveseq.exactnum import (
    INF,
    QuadExt,
    generalized_binomial,
    is_prime,
    legendre_symbol,
    mobius,
    padic_valuation,
    reduce_fraction_mod,
    sqrt_mod,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def test_padic_valuation_examples():
    assert padic_valuation(Fraction(-77, 128), 2) == -7
    assert padic_valuation(Fraction(0), 5) == INF
    # c_5 = -77/128 = -7*11/2^7 is 7-integral with valuation exactly 1
    assert padic_valuation(Fraction(-77, 128), 7) == 1
    assert padic_valuation(18, 3) == 2


def test_padic_valuation_rejects_composite():
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1, 2), 6)


@given(rationals, rationals)
def test_padic_valuation_additive(q1, q2):
    if q1 == 0 or q2 == 0:
        return
    for p in (2, 3, 7):
        assert padic_valuation(q1 * q2, p) == padic_valuation(q1, p) + padic_valuation(q2, p)


@given(rationals, rationals)
def test_rationals_exact_field(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


def test_generalized_binomial():
    assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert generalized_binomial(3, 5) == 0
    assert generalized_binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)
    for n in range(8):
        for k in range(8):
            assert generalized_binomial(n, k) == math.comb(n, k)


def test_legendre_symbol():
    assert legendre_symbol(4, 5) == 1
    assert legendre_symbol(3, 5) == -1
    assert legendre_symbol(10, 5) == 0
    with pytest.raises(ValueError):
        legendre_symbol(3, 9)
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)


def test_legendre_euler_criterion_exhaustive():
    for p in range(3, 101):
        if not is_prime(p):
            continue
        for a in range(1, p):
            assert legendre_symbol(a, p) % p == pow(a, (p - 1) // 2, p)


def test_mobius_values():
    assert mobius(12) == 0
    assert mobius(6) == 1
    # 10 = 2 * 5 has an even number of prime factors, so mu(10) = +1
    assert mobius(10) == 1
    assert mobius(30) == -1
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_divisor_sum():
    # sum_{d | n} mu(d) = [n = 1]
    from curveseq.exactnum import divisors

    for n in range(1, 10001):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_is_prime_64bit_cases():
    assert is_prime(2) and is_prime(3) and is_prime(101)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**31 - 2)
    assert is_prime(2**31 - 1)


def test_is_prime_agrees_with_trial_division_below_1e5():
    sieve = bytearray([1]) * 10**5
    sieve[0] = sieve[1] = 0
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sieve[n]]


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_rejects_the_strong_pseudoprimes_to_the_first_prime_bases():
    """Each psi_k fools Miller-Rabin on the first k prime bases (so the
    table's bounds are tight) and is rejected; psi_12 = 399165290221 *
    798330580441 passes every base below 41."""
    from curveseq.exactnum import _PSI, _SMALL_PRIMES

    for k, psi in enumerate(_PSI, 1):
        assert all(_strong_probable_prime(psi, a) for a in _SMALL_PRIMES[:k]), k
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441 == _PSI[11]
    for psi in _PSI[:-1]:
        assert not is_prime(psi), psi
    assert is_prime(2**61 - 1) and is_prime(10**24 + 7)
    with pytest.raises(ValueError):
        is_prime(_PSI[-1])


def test_reduce_fraction_mod():
    from curveseq.series import _to_domain

    assert reduce_fraction_mod(Fraction(-1, 8), 7) == 6
    assert reduce_fraction_mod(Fraction(-1, 2), 7) == 3
    # the series entry point shares the one reduction
    for q in (Fraction(-1, 8), Fraction(-77, 128), Fraction(146, 27), Fraction(10**30 + 1, 3)):
        for p in (7, 11, 101):
            want = reduce_fraction_mod(q, p)
            assert _to_domain(q, p) == want
    for reduce in (reduce_fraction_mod, _to_domain):
        with pytest.raises(ValueError):
            reduce(Fraction(1, 7), 7)
        with pytest.raises(ValueError):
            reduce(Fraction(3, 98), 7)


@given(
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
    st.sampled_from((2, 3, 7, 101, 10007)),
    st.integers(0, 3),
    st.booleans(),
)
def test_reduce_fraction_mod_pair_form(a, b, p, k, square):
    # a pair need not be in lowest terms; shared factors of p cancel first
    m = p * p if square else p
    q = Fraction(a, b)
    pairs = [(a, b), (a * p**k, b * p**k), (-a * p**k, -b * p**k)]
    if q.denominator % p == 0:
        for pair in pairs:
            with pytest.raises(ValueError):
                reduce_fraction_mod(pair, m)
    else:
        want = reduce_fraction_mod(q, m)
        assert want == q.numerator * pow(q.denominator, -1, m) % m
        assert all(reduce_fraction_mod(pair, m) == want for pair in pairs)


def test_reduce_fraction_mod_pair_not_integral():
    assert reduce_fraction_mod((7 * 3, 7 * 2), 7) == 3 * pow(2, -1, 7) % 7
    assert reduce_fraction_mod((0, 49), 7) == 0
    with pytest.raises(ValueError):
        reduce_fraction_mod((7 * 3, 7 * 49), 7)  # 3/49
    with pytest.raises(ValueError):
        reduce_fraction_mod((2, 14), 49)  # 1/7 mod 7^2


def test_sqrt_mod():
    assert sqrt_mod(0, 7) == 0
    r = sqrt_mod(65, 7)
    assert r is not None and r * r % 7 == 65 % 7
    assert sqrt_mod(65, 11) is None  # 65 = 10 is a non-residue mod 11


def test_quadext_field_ops():
    x = QuadExt(2, 3, 11, 65)
    y = QuadExt(5, 1, 11, 65)
    assert x + y == QuadExt(7, 4, 11, 65)
    assert x * y == QuadExt((2 * 5 + 65 * 3) % 11, (2 + 15) % 11, 11, 65)
    assert (x * y.inverse()) * y == x
    assert x * x.inverse() == QuadExt(1, 0, 11, 65)
    assert bool(QuadExt(0, 0, 11, 65)) is False
