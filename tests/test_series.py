import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curveseq.curve import s_series
from curveseq.exactnum import generalized_binomial
from curveseq.recurrence import main_sequence
from curveseq.series import (
    DieudonneExponents,
    LaurentSeries,
    TruncatedSeries,
    _NUMPY_CUTOFF,
    _convolve,
    _exponent_product,
    _lowest_terms,
    WITNESS_TERMS,
    _rederives,
    congruence_scan,
    dieudonne_exponents,
    dieudonne_exponents_peeling,
)


def long_division_inverse(f: TruncatedSeries) -> list[Fraction]:
    """Independent oracle: coefficients of 1/f by explicit long division."""
    n = f.precision
    out = []
    rem = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(n):
        q = rem[0] / f[0]
        out.append(q)
        rem = [rem[i + 1] - q * f[i + 1] for i in range(n - 1)] + [Fraction(0)]
    return out


def test_inverse_geometric():
    f = TruncatedSeries([1, -1], 10)
    assert f.inverse().coeffs == [Fraction(1)] * 10


def test_inverse_against_long_division():
    rng = random.Random(7)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(11)
        ]
        f = TruncatedSeries(coeffs, 12)
        assert f.inverse().coeffs == long_division_inverse(f)


def test_inverse_of_y_half():
    # 2/y = 1 - x^2/8 - x^3/4 - ...
    q = TruncatedSeries([4, 0, 1, 2, 1], 8)
    y = q * q.inverse_sqrt(Fraction(2))
    inv = (y / 2).inverse()
    assert inv.coeffs[:4] == [Fraction(1), Fraction(0), Fraction(-1, 8), Fraction(-1, 4)]
    assert inv.coeffs == long_division_inverse(y / 2)


def test_inverse_constant_mod5():
    f = TruncatedSeries([2], 3, 5)
    assert f.inverse().coeffs == [3, 0, 0]


def test_inverse_rejects_zero_constant():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries([0, 1], 5).inverse()


def test_sqrt_square_roundtrip():
    q = TruncatedSeries([4, 0, 1, 2, 1], 30)
    y = q * q.inverse_sqrt(Fraction(2))
    assert (y * y) == q
    assert y.coeffs[:4] == [Fraction(2), Fraction(0), Fraction(1, 4), Fraction(1, 2)]


def test_sqrt_perfect_square_and_sign():
    f = TruncatedSeries([1, 2, 1], 6)
    assert (f * f.inverse_sqrt(Fraction(1))).coeffs[:3] == [Fraction(1), Fraction(1), Fraction(0)]
    g = TruncatedSeries([1, -2, 1], 6)
    assert (g * g.inverse_sqrt(Fraction(-1))).coeffs[:2] == [Fraction(-1), Fraction(1)]


def test_sqrt_rejects():
    def f(coeffs, modulus=None):
        return TruncatedSeries(coeffs, 4, modulus)

    for series, root0 in [
        (f([2, 1]), Fraction(1)),  # root0^2 != f(0)
        (f([0, 1]), Fraction(0)),  # a zero root0
        (f([1, 1], 2), 1),  # characteristic 2
        (f([2, 1], 7), 1),
        (f([0, 1], 7), 0),
        (f([0, 1], 7), 7),  # zero once reduced
        (f([1, 1], 7), Fraction(1, 7)),  # not 7-integral
        (f([0, 1], 9), 3),  # 3^2 = 0 = f(0), but 2 * 3 is no unit mod 9
        (f([1, 1], 4), 1),  # 2 * 1 is no unit mod 4
    ]:
        with pytest.raises(ValueError):
            series.inverse_sqrt(root0)


def _random_unit_series(domain: str, n: int, rng: random.Random) -> TruncatedSeries:
    """A series with a unit constant term: over Q with denominators prime to
    7 and 11 (so it reduces mod 7 and mod 121), or over F_p with residues
    drawn uniformly from all of F_p."""
    if domain.startswith("F_"):
        p = int(domain[2:])
        return TruncatedSeries([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)], n, p)
    coeffs = [Fraction(rng.choice([1, 2, 3]))]
    coeffs += [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4, 5])) for _ in range(n - 1)]
    return TruncatedSeries(coeffs, n, None if domain == "Q" else int(domain[2:]))


@pytest.mark.parametrize("n", [5, 130])  # 130 > _NUMPY_CUTOFF: the numpy product runs
@pytest.mark.parametrize("domain", ["Q", "Z/7", "Z/121", "F_7", "F_11"])
def test_newton_sqrt_and_inverse_on_every_domain(domain, n):
    g = _random_unit_series(domain, n, random.Random(n))
    f = g * g
    r, inv = f.inverse_sqrt(g[0]), g.inverse()
    assert f * r == g and (f * r) * (f * r) == f
    for one in (r * r * f, inv * g):
        assert one[0] == 1 and not any(one.coeffs[1:])
    if domain.startswith("Z/"):
        over_q = _random_unit_series("Q", n, random.Random(n))
        m = g.modulus
        assert g == TruncatedSeries(over_q.coeffs, n, m)
        assert r == TruncatedSeries((over_q * over_q).inverse_sqrt(over_q[0]).coeffs, n, m)
        assert inv == TruncatedSeries(over_q.inverse().coeffs, n, m)


def test_log_derivative_fermat_series():
    # f = 1 - ax: x f'/f = -sum a^n x^n
    a = Fraction(3)
    f = TruncatedSeries([1, -a], 9)
    got = f.x_log_derivative()
    assert got.coeffs == [-(a**n) if n else Fraction(0) for n in range(9)]


def test_log_derivative_constant():
    assert TruncatedSeries([5], 6).log_derivative().is_zero()


def test_log_derivative_additive():
    rng = random.Random(3)
    for _ in range(8):
        f = TruncatedSeries([Fraction(1)] + [Fraction(rng.randint(-3, 3)) for _ in range(9)], 10)
        g = TruncatedSeries([Fraction(2)] + [Fraction(rng.randint(-3, 3)) for _ in range(9)], 10)
        assert (f * g).log_derivative() == f.log_derivative() + g.log_derivative()


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@given(st.lists(small_fractions, min_size=4, max_size=10))
def test_log_derivative_additive_property(tail):
    f = TruncatedSeries([Fraction(1)] + tail)
    g = TruncatedSeries([Fraction(1)] + tail[::-1])
    assert (f * g).log_derivative() == f.log_derivative() + g.log_derivative()


@given(st.lists(small_fractions, min_size=4, max_size=10))
def test_sqrt_squares_back_property(tail):
    f = TruncatedSeries([Fraction(1)] + tail)
    r = f * f.inverse_sqrt(Fraction(1))
    assert r * r == f
    assert f.inverse() * f == TruncatedSeries([Fraction(1)], f.precision)


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=3, max_size=8))
def test_dieudonne_reconstruction_property(tail):
    f = TruncatedSeries([Fraction(1)] + tail)
    m = f.precision - 1
    d = dieudonne_exponents(f, m)
    assert d.reconstruct().agrees_with(f.truncate(m + 1), m + 1)


def test_x_log_derivative_of_z_half_is_s_half():
    n = 40
    q = TruncatedSeries([4, 0, 1, 2, 1], n)
    z = TruncatedSeries([0, 1, 1], n) + q * q.inverse_sqrt(Fraction(2))
    c = main_sequence(n)
    assert (z / 2).x_log_derivative().coeffs == [v / 2 for v in c]


def test_dieudonne_single_factor():
    f = TruncatedSeries([1, -1], 10)
    d = dieudonne_exponents(f, 8)
    assert d[1] == 1 and all(d[m] == 0 for m in range(2, 9))


def test_dieudonne_constructed_product():
    n = 12
    one_minus_x = TruncatedSeries([1, -1], n)
    one_minus_x2 = TruncatedSeries([1, 0, -1], n)
    f = one_minus_x * one_minus_x2 * one_minus_x2 * one_minus_x2
    d = dieudonne_exponents(f, 10)
    assert d[1] == 1 and d[2] == 3 and all(d[m] == 0 for m in range(3, 11))


def test_dieudonne_peeling_cross_check_random():
    rng = random.Random(11)
    for _ in range(6):
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(14)
        ]
        f = TruncatedSeries(coeffs, 15)
        m = 12
        a = dieudonne_exponents(f, m)
        b = dieudonne_exponents_peeling(f, m)
        assert a.exponents == b.exponents
        assert a.reconstruct().agrees_with(f.truncate(m + 1), m + 1)


def fraction_product(exponents, n: int) -> list[Fraction]:
    """Reference: prod_m (1 - x^m)^{a_m} mod x^n, one Fraction factor at a
    time, each coefficient (-1)^k binom(a_m, k) from generalized_binomial."""
    coeffs = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m, a in enumerate(exponents, start=1):
        out = [Fraction(0)] * n
        for k in range((n - 1) // m + 1):
            fc = generalized_binomial(a, k) * (-1) ** k
            for i in range(n - m * k):
                out[i + m * k] += coeffs[i] * fc
        coeffs = out
    return coeffs


# zeros, negatives, odd and even denominators
exponent_lists = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 15, 16, 49])),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(exponent_lists)
def test_exponent_product_matches_fraction_reference(exps):
    m_max = len(exps)
    ref = fraction_product(exps, m_max + 1)
    nums, den = _exponent_product(exps, m_max + 1)
    assert den == math.lcm(*(v.denominator for v in ref))
    assert DieudonneExponents(tuple(exps), m_max).reconstruct().coeffs == ref
    f = TruncatedSeries(ref + [Fraction(7, 3)])  # beyond x^m_max: ignored
    assert list(dieudonne_exponents_peeling(f, m_max).exponents) == exps


def test_main_witness_denominator_is_least():
    # the congruence witness of curveseq all: p = 3, m = 200
    rep = congruence_scan(main_sequence(501), 3, 2, 500)
    assert rep.witness_exponents.precision == 200
    nums, den = _exponent_product(rep.witness_exponents.exponents, 201)
    assert den > 1
    assert den == math.lcm(*(Fraction(v, den).denominator for v in nums))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.just(0), st.integers(-(10**20), 10**20)), max_size=10),
    st.one_of(st.integers(1, 10**6), st.builds(lambda k: 2**k, st.integers(0, 40))),
    st.sampled_from([1, 3, 5, 9, 15, 49, 105]),
    st.integers(0, 70),
    st.integers(0, 70),
)
def test_lowest_terms_divides_by_the_gcd(nums, common, odd, num_shift, den_shift):
    # a shared factor and powers of two on both sides: odd, even and
    # power-of-two denominators; negative, all-zero and empty numerators
    nums = [(c * common) << num_shift for c in nums]
    den = (odd * common) << den_shift
    g = math.gcd(den, *nums)
    assert _lowest_terms(nums, den) == ([c // g for c in nums], den // g)


def assert_product_matches_reference(exps, n):
    ref = fraction_product(exps, n)
    nums, den = _exponent_product(exps, n)
    assert den == math.lcm(*(v.denominator for v in ref))
    assert [Fraction(v, den) for v in nums] == ref


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exponent_product_at_the_lowest_orders(n):
    # n = 1 has no factor, n = 2 only the linear tail, n = 3 one stepped factor
    for exps in itertools.product([Fraction(0), Fraction(-3, 2), Fraction(5, 3), Fraction(2)], repeat=3):
        assert_product_matches_reference(list(exps), n)


@settings(max_examples=60, deadline=None)
@given(exponent_lists, st.integers(0, 1), st.sampled_from(["zeros", "single", "odd"]), st.data())
def test_exponent_product_linear_tail(head, extra, kind, data):
    # the factors with m > (n-1)/2 go in as one polynomial: a tail of zeros,
    # of a single nonzero exponent, or of odd denominators only
    n = 2 * len(head) + 1 + extra
    size = n - 1 - len(head)
    if kind == "zeros":
        tail = [Fraction(0)] * size
    elif kind == "single":
        tail = [Fraction(0)] * size
        tail[data.draw(st.integers(0, size - 1))] = data.draw(
            st.builds(Fraction, st.integers(-40, 40).filter(bool), st.sampled_from([1, 2, 3, 8, 15]))
        )
    else:
        tail = data.draw(
            st.lists(st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 3, 5, 9, 15, 49])),
                     min_size=size, max_size=size)
        )
    assert_product_matches_reference(head + tail, n)


def test_rederivation_detects_any_changed_term():
    m = 200
    c = main_sequence(m + 1)
    witness = congruence_scan(c, 3, 2, m).witness_exponents
    nums, _ = _exponent_product(witness.exponents, m + 1)
    assert _rederives(nums, c)
    for n in range(1, m + 1):
        changed = list(c)
        changed[n] += 1 if n % 2 else Fraction(1, 3)
        assert not _rederives(nums, changed), n


@settings(max_examples=60, deadline=None)
@given(exponent_lists, st.integers(0, 40), st.fractions(max_denominator=12), st.fractions(max_denominator=12))
def test_rederivation_agrees_with_x_log_derivative(exps, index, delta, c0):
    # the old comparison: x f'/f of the product against c_1..c_M
    m = len(exps)
    f = TruncatedSeries(fraction_product(exps, m + 1))
    back = f.x_log_derivative().coeffs
    c = [c0] + back[1:]
    if 1 <= index <= m:
        c[index] += delta
    nums, _ = _exponent_product(exps, m + 1)
    assert _rederives(nums, c) == (back[1:] == c[1:])


def test_congruence_scan_main_sequence():
    c = main_sequence(130)
    # c_3 = -1/8 = 1 = c_1 mod 3
    rep3 = congruence_scan(c, 3, 2, 125)
    assert rep3.ok
    rep5 = congruence_scan(c, 5, 1, 125)
    assert rep5.ok and rep5.witness_integral
    # the actual residues at the first congruence instances
    from curveseq.exactnum import reduce_fraction_mod

    assert reduce_fraction_mod(c[3], 3) == reduce_fraction_mod(c[1], 3) == 1
    assert reduce_fraction_mod(c[5], 5) == reduce_fraction_mod(c[1], 5) == 1


def test_every_passing_scan_carries_its_witness():
    rep = congruence_scan(main_sequence(501), 3, 2, 500)
    assert rep.ok
    assert rep.witness_exponents.precision == WITNESS_TERMS == 200
    assert rep.witness_integral is True and rep.witness_rederives is True
    # a short scan covers a_1..a_n_max
    assert congruence_scan(main_sequence(30), 3, 2, 27).witness_exponents.precision == 27
    # a failing scan, on either path, carries none
    broken = [Fraction(0)] + [Fraction(1)] * 30
    broken[9] = Fraction(4)
    non_integral = [Fraction(0), Fraction(1, 3), Fraction(1)]
    for failed in (congruence_scan(broken, 3, 2, 27), congruence_scan(non_integral, 3, 0, 2)):
        assert not failed.ok
        assert (failed.witness_exponents, failed.witness_integral, failed.witness_rederives) == (None, None, None)


def test_congruence_scan_fermat():
    c = [Fraction(2) ** n for n in range(60)]
    assert congruence_scan(c, 7, 1, 59).ok
    assert (2**7 - 2) % 7 == 0


def test_congruence_scan_flags_non_integral():
    c = [Fraction(0), Fraction(1, 3), Fraction(1)]
    rep = congruence_scan(c, 3, 0, 2)
    assert not rep.ok and rep.non_integral_index == 1


def test_congruence_scan_reports_witness_pair():
    # break c_9 = c_3 mod 9 deliberately
    c = [Fraction(0)] + [Fraction(1)] * 30
    c[9] = Fraction(4)
    rep = congruence_scan(c, 3, 2, 27)
    assert not rep.ok
    assert rep.first_failure() == (1, 1) or (3, 0) in rep.failures


def test_integer_series_pass_scan_at_every_odd_prime():
    # the converse half of the round trip: x f'/f of an integer series passes
    # the scan at every odd prime up to 31
    from curveseq.exactnum import is_prime

    rng = random.Random(77)
    for _ in range(4):
        f = TruncatedSeries(
            [Fraction(1)] + [Fraction(rng.randint(-5, 5)) for _ in range(63)], 64
        )
        c = f.x_log_derivative().coeffs
        for p in range(3, 32, 2):
            if is_prime(p):
                assert congruence_scan(c, p, 2, 63).ok, p


def test_scan_congruence_implies_integral_witness():
    # forward half: an integer sequence passing the scan yields p-integral
    # exponents, hence a Z_p-coefficient witness series
    c = main_sequence(200)
    for p in (3, 7):
        rep = congruence_scan(c, p, 2, 190)
        assert rep.ok and rep.witness_integral and rep.witness_rederives
        witness = rep.witness_exponents.reconstruct()
        from curveseq.exactnum import padic_valuation

        assert all(padic_valuation(v, p) >= 0 for v in witness.coeffs)


def test_precision_propagation():
    f = TruncatedSeries([1, 1], 10)
    g = TruncatedSeries([1, 2], 6)
    assert (f * g).precision == 6
    assert (f + g).precision == 6
    assert f.derivative().precision == 9
    assert f.log_derivative().precision == 9
    assert f.x_log_derivative().precision == 10
    assert f.shift(3).precision == 13
    # a Q series and a Z/5 one do not mix, and the repr names the domain
    halves = TruncatedSeries([Fraction(1, 2), Fraction(1, 3)])
    for mixed in (lambda: f + TruncatedSeries([1], 3, 5), lambda: halves * TruncatedSeries([1], 3, 5)):
        with pytest.raises(ValueError, match="mixed scalar domains"):
            mixed()
    for s, domain in ((halves, "QQ"), (TruncatedSeries([0, 0]), "QQ"), (TruncatedSeries([1], 3, 5), "Z/5")):
        assert repr(s).endswith(f", {domain})"), repr(s)


def test_laurent_arithmetic_and_residue():
    inner = TruncatedSeries([1, 1], 8)
    w = LaurentSeries(-2, inner)
    assert w.coefficient(-2) == Fraction(1)
    assert w.coefficient(-1) == Fraction(1)
    assert w.residue() == Fraction(1)
    sq = w * w
    assert sq.offset == -4 and sq.coefficient(-3) == 2
    d = w.derivative()
    assert d.coefficient(-3) == -2
    assert (w - w).is_zero()


def test_laurent_known_zero_below_offset():
    w = LaurentSeries(2, TruncatedSeries([1], 4))
    assert w.residue() == 0
    with pytest.raises(IndexError):
        w.coefficient(10)


def test_s_series_matches_recurrence():
    n = 120
    s = s_series(n)
    assert s.coeffs == main_sequence(n)


@pytest.mark.parametrize("m", [7, 11])
def test_ring_operations_stay_reduced(m):
    # ring operations wrap their results without coercing them again, so each
    # must leave every coefficient in [0, m) and agree with the reduction of
    # the same operation over Q
    sq = TruncatedSeries([3, -1, 5, Fraction(-2, 3), -8, 1], 6)
    tq = TruncatedSeries([-6, Fraction(1, 2), 1, 4, -9], 5)
    s, t = (TruncatedSeries(x.coeffs, x.precision, m) for x in (sq, tq))
    lq, l = LaurentSeries(-2, sq), LaurentSeries(-2, s)
    pairs = [
        (-s, -sq),
        (s + t, sq + tq),
        (s - t, sq - tq),
        (s * t, sq * tq),
        (s.scale(Fraction(1, 3)), sq.scale(Fraction(1, 3))),
        (s.scale(-5), sq.scale(-5)),
        (s / 4, sq / 4),
        (s.derivative(), sq.derivative()),
        (s.inverse(), sq.inverse()),
        ((l + l * 5).series, (lq + lq * 5).series),
        ((l - l.derivative()).series, (lq - lq.derivative()).series),
        (l.derivative().series, lq.derivative().series),
    ]
    for got, want in pairs:
        assert all(isinstance(c, int) and 0 <= c < m for c in got.coeffs)
        assert got == TruncatedSeries(want.coeffs, want.precision, m)


def test_series_equality_reads_the_scalar_domain():
    # 1/2 = 4 and 1/3 = 5 mod 7, yet a Q series is not one over Z/7
    halves = TruncatedSeries([Fraction(1, 2), Fraction(1, 3)])
    over_z7 = TruncatedSeries([4, 5], 2, 7)
    assert halves != over_z7 and over_z7 != halves
    assert TruncatedSeries([0, 0]) != TruncatedSeries([0, 0], 2, 7)
    # a Z/7 series is not a Q series
    assert LaurentSeries(0, TruncatedSeries([1, 2], 2, 7)) != LaurentSeries(0, TruncatedSeries([1, 2], 2))
    # the zero series of one domain are equal at every offset, and hash alike
    zeros = [LaurentSeries(0, TruncatedSeries([0, 0], 2)), LaurentSeries(3, TruncatedSeries([0], 1))]
    assert zeros[0] == zeros[1] and hash(zeros[0]) == hash(zeros[1])
    assert zeros[0] != LaurentSeries(0, TruncatedSeries([0, 0], 2, 7))
    # Z/7 and Z/11 are two domains, also at equal residues
    assert TruncatedSeries([1], 1, 7) != TruncatedSeries([1], 1, 11)


def _series_on(modulus, values, precision):
    # the value v is v/2 in every domain
    return TruncatedSeries([Fraction(v, 2) for v in values], precision, modulus)


series_on_a_domain = st.builds(
    _series_on,
    st.sampled_from([None, 7, 11]),
    st.lists(st.sampled_from([0, 0, 0, 1, 3, 4]), max_size=3),
    st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-1, 1), series_on_a_domain, st.integers(-1, 1), series_on_a_domain)
def test_equal_series_hash_alike(off_a, a, off_b, b):
    # a == b implies hash(a) == hash(b), across the three domains and at any offset
    if a == b:
        assert hash(a) == hash(b)
    la, lb = LaurentSeries(off_a, a), LaurentSeries(off_b, b)
    if la == lb:
        assert hash(la) == hash(lb)


@pytest.mark.parametrize("modulus", [None, 101])
def test_convolve_drops_zero_padding(modulus):
    # a padded operand multiplies like its nonzero prefix, on the Python and
    # the numpy path alike, and the product is padded back to n_out
    rng = random.Random(35)
    n = 3 * _NUMPY_CUTOFF
    for short in (1, 2, _NUMPY_CUTOFF + 5):
        a = [rng.randrange(1, 100) for _ in range(short)]
        b = [rng.randrange(100) for _ in range(n)]
        want = [sum(a[i] * b[k - i] for i in range(min(k + 1, short))) for k in range(n)]
        if modulus is not None:
            want = [v % modulus for v in want]
        got = _convolve(a + [0] * (n - short), b, n, modulus)
        assert got == want
        # both operands padded: the product of the prefixes ends before n_out
        m = _NUMPY_CUTOFF + 2
        head = _convolve(a + [0] * (n - short), b[:m] + [0] * (n - m), n, modulus)
        assert head[: short + m - 1] == _convolve(a, b[:m], short + m - 1, modulus)
        assert head[short + m - 1 :] == [0] * (n - short - m + 1)
    assert _convolve([1, 2], [3], 0, modulus) == [] and _convolve([1, 2], [3], -1, modulus) == []


def schoolbook(a, b, n_out, modulus):
    out = [0] * n_out
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < n_out:
                out[i + j] += ai * bj
    return [v % modulus for v in out]


def counting_np_convolve(monkeypatch):
    """Patch np.convolve to count its calls; returns the list of calls."""
    calls, real = [], np.convolve
    monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or real(a, b))
    return calls


@pytest.mark.parametrize("modulus", [3, 7, 10007**2])
def test_convolve_path_choice_across_the_cutoff(modulus, monkeypatch):
    # every pair of lengths below and around the cutoff: the numpy path runs
    # iff both operands reach it, and both paths give the schoolbook product
    calls = counting_np_convolve(monkeypatch)
    rng = random.Random(modulus)
    lengths = sorted(set(range(1, 17)) | set(range(max(1, _NUMPY_CUTOFF - 4), _NUMPY_CUTOFF + 9)))
    for la, lb in itertools.product(lengths, repeat=2):
        a = [rng.randrange(1, modulus) for _ in range(la)]
        b = [rng.randrange(1, modulus) for _ in range(lb)]
        n_out = la + lb - 1
        before = len(calls)
        assert _convolve(a, b, n_out, modulus) == schoolbook(a, b, n_out, modulus), (la, lb)
        assert len(calls) - before == (min(la, lb) >= _NUMPY_CUTOFF), (la, lb)


def test_convolve_int64_guard_at_its_edge(monkeypatch):
    # min(len) * m^2 just below 2^62 takes numpy, just above it and far
    # above it (where int64 sums would wrap) the exact loop
    calls = counting_np_convolve(monkeypatch)
    length = _NUMPY_CUTOFF + 2
    below = math.isqrt((2**62 - 1) // length)
    rng = random.Random(62)
    for modulus, numpy_runs in ((below, True), (below + 1, False), (2**61 - 1, False)):
        a = [modulus - rng.randrange(1, 5) for _ in range(length)]
        b = [modulus - rng.randrange(1, 5) for _ in range(length + 3)]
        before = len(calls)
        assert _convolve(a, b, 2 * length + 2, modulus) == schoolbook(a, b, 2 * length + 2, modulus)
        assert len(calls) - before == numpy_runs, modulus
    assert length * below**2 < 2**62 <= length * (below + 1) ** 2


@pytest.mark.parametrize("modulus", [3, 7, 10007**2])
def test_convolve_padded_and_truncated_products(modulus):
    # zero padding never reaches the result, and n_out below the full
    # product length keeps its head
    rng = random.Random(modulus + 1)
    for la, lb in ((3, 12), (_NUMPY_CUTOFF, _NUMPY_CUTOFF), (_NUMPY_CUTOFF + 4, 20)):
        a = [rng.randrange(1, modulus) for _ in range(la)]
        b = [rng.randrange(1, modulus) for _ in range(lb)]
        full = schoolbook(a, b, la + lb - 1, modulus)
        for n_out in (1, min(la, lb), la + lb - 2, la + lb + 5):
            want = (full + [0] * n_out)[:n_out]
            assert _convolve(a + [0] * 7, b + [0] * 3, n_out, modulus) == want, (la, lb, n_out)
