import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from curveseq.exactnum import is_prime
from curveseq.polyring import Polynomial, RationalFunction, resultant
from curveseq.series import TruncatedSeries


def test_polynomial_basics():
    f = Polynomial([1, 2, 3])
    g = Polynomial([0, 1])
    assert f.degree == 2
    assert (f * g).coeffs == [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]
    assert (f - f).is_zero()
    assert f(2) == 1 + 4 + 12
    assert f.derivative().coeffs == [Fraction(2), Fraction(6)]


def test_polynomial_mod_path():
    f = Polynomial([1, 2, 3], 5)
    assert f(2) == (1 + 4 + 12) % 5
    assert (f * f).modulus == 5
    q, r = (f * f).divmod(f)
    assert q == f and r.is_zero()


def naive_product(a, b, modulus):
    """Schoolbook product of two coefficient lists, the reference for ``*``."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out if modulus is None else [c % modulus for c in out]


# lengths on both sides of the numpy cutoff (48); 2^61 - 1 is past the
# int64 guard, so its long products take the exact Python path
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([7, 1009, 2**61 - 1]),
    st.sampled_from([0, 1, 5, 47, 48, 49, 90]),
    st.sampled_from([1, 3, 47, 48, 60]),
    st.randoms(use_true_random=False),
)
def test_product_matches_naive_mod_p(p, len_a, len_b, rng):
    a = [rng.randrange(p) for _ in range(len_a)]
    b = [rng.randrange(p) for _ in range(len_b)]
    assert Polynomial(a, p) * Polynomial(b, p) == Polynomial(naive_product(a, b, p), p)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=50), max_size=12),
    st.lists(st.fractions(max_denominator=50), max_size=12),
)
def test_product_matches_naive_over_q(a, b):
    assert Polynomial(a) * Polynomial(b) == Polynomial(naive_product(a, b, None))


# the squarings cross the numpy cutoff, so the Python path's output feeds
# the int64 path: it must come back reduced (the example overflows if not)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([None, 7, 1000003, 2**61 - 1]),
    st.lists(st.integers(-50, 50), min_size=1, max_size=13),
    st.integers(0, 20),
)
@example(1000003, [-3, 1, -4, 1, -5, 9, -2, 6, -5, 3, -5, 8, -9], 20)
def test_power_matches_repeated_naive_product(modulus, coeffs, e):
    want = [1]
    for _ in range(e):
        want = naive_product(want, coeffs, modulus)
    assert Polynomial(coeffs, modulus) ** e == Polynomial(want, modulus)


def test_polynomial_pow():
    assert (Polynomial([1, 1], 5) ** 3).coeffs == [1, 3, 3, 1]
    assert (Polynomial([4, 0, 1, 2, 1], 7) ** 1).coeffs == [4, 0, 1, 2, 1]


def test_polynomial_pow_large_modulus():
    # past 2^40 an int64 convolution overflows; the result must stay exact
    def naive_pow(coeffs, e, p):
        out = [1]
        for _ in range(e):
            nxt = [0] * (len(out) + len(coeffs) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(coeffs):
                    nxt[i + j] = (nxt[i + j] + a * b) % p
            out = nxt
        return out

    p = 2**40 + 15
    while not is_prime(p):
        p += 2
    assert (Polynomial([p - 1, p - 2, 3], p) ** 2).coeffs == [1, 4, p - 2, p - 12, 9]
    rng = random.Random(5)
    long = [rng.randrange(p) for _ in range(60)]
    assert (Polynomial(long, p) ** 3).coeffs == naive_pow(long, 3, p)


def test_polynomial_pow_negative_exponent_raises():
    for modulus in (None, 7):
        with pytest.raises(ValueError):
            Polynomial([1, 1], modulus) ** -1


def test_divmod_and_gcd():
    rng = random.Random(5)
    for modulus in (None, 7):
        for _ in range(12):
            a = Polynomial([rng.randint(-4, 4) for _ in range(6)] + [1], modulus)
            b = Polynomial([rng.randint(-4, 4) for _ in range(3)] + [1], modulus)
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree
            g = a.gcd(b)
            assert (a % g).is_zero() and (b % g).is_zero()


def test_resultant_discriminant():
    q = Polynomial([4, 0, 1, 2, 1])
    assert resultant(q, q.derivative()) == 16640  # 2^8 * 5 * 13
    # shares a root <=> resultant 0
    f = Polynomial([-1, 1]) * Polynomial([1, 1])
    g = Polynomial([-1, 1]) * Polynomial([2, 1])
    assert resultant(f, g) == 0


def test_rational_function_reduction():
    num = Polynomial([0, 1, 1])  # x + x^2
    den = Polynomial([0, 2])  # 2x
    r = RationalFunction(num, den)
    assert r.num == Polynomial([Fraction(1, 2), Fraction(1, 2)])
    assert r.den == Polynomial([1])
    assert r == RationalFunction(Polynomial([1, 1]), Polynomial([2]))


def test_rational_function_field_ops():
    x = RationalFunction(Polynomial([0, 1]))
    one = RationalFunction(Polynomial([1]))
    one_over_x = one / x
    assert x * one_over_x == 1
    assert (x + one_over_x) - one_over_x == x
    d = (x * x).derivative()
    assert d == RationalFunction(Polynomial([0, 2]))
    assert (one / (-x + 1)).derivative() == RationalFunction(
        Polynomial([1]), Polynomial([1, -2, 1])
    )


def test_reduce_mod():
    r = RationalFunction(Polynomial([Fraction(1, 2), 1]), Polynomial([3, 1]))
    rm = r.reduce_mod(7)
    assert rm.modulus == 7
    assert rm.num == Polynomial([4, 1], 7)


def test_series_and_polynomial_share_the_q_scalar_rule():
    # one coercion rule: over Q an int enters a series and a polynomial alike
    s, f = TruncatedSeries([1, 2], 2), Polynomial([1, 2])
    assert [type(c) for c in s.coeffs] == [type(c) for c in f.coeffs] == [Fraction, Fraction]
    assert s == TruncatedSeries([Fraction(1), Fraction(2)], 2)


@pytest.mark.parametrize("m", [7, 11])
def test_polynomial_operations_stay_reduced(m):
    # ring operations wrap their results without coercing them again, so each
    # must leave every coefficient in [0, m) and agree with the reduction of
    # the same operation over Q
    fq = Polynomial([3, -1, 5, Fraction(-2, 3), -8, 1])
    gq = Polynomial([-6, Fraction(1, 2), 1])
    f, g = fq.reduce_mod(m), gq.reduce_mod(m)
    pairs = [
        (-f, -fq),
        (f + g, fq + gq),
        (f - g, fq - gq),
        (f * g, fq * gq),
        (f * Fraction(1, 3), fq * Fraction(1, 3)),
        (f * -5, fq * -5),
        (f.derivative(), fq.derivative()),
        (f // g, fq // gq),
        (f % g, fq % gq),
        (f**3, fq**3),
        (f.monic(), fq.monic()),
    ]
    for got, want in pairs:
        assert all(isinstance(c, int) and 0 <= c < m for c in got.coeffs)
        assert got == want.reduce_mod(m)


@pytest.mark.parametrize("modulus", [None, 7])
def test_a_float_enters_no_domain(modulus):
    # Q's scalars are ints and Fractions only, so a float is refused over Q
    # as over Z/m, by every way a scalar enters a series or a polynomial
    series, poly = TruncatedSeries([1, 2], 2, modulus), Polynomial([1, 1], modulus)
    for enter in (
        lambda: TruncatedSeries([1, 0.5], 2, modulus),
        lambda: Polynomial([0.25, 1], modulus),
        lambda: series.scale(0.1),
        lambda: series / 0.5,
        lambda: poly(0.5),
        lambda: poly + 0.5,
    ):
        with pytest.raises(TypeError, match="cannot take|unsupported operand"):
            enter()
    # the int fast path still takes an int into the domain
    want = [Fraction(1), Fraction(2)] if modulus is None else [1, 2]
    assert TruncatedSeries([1, 2], 2, modulus).coeffs == want
