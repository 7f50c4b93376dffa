import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from curveseq import recurrence
from curveseq.cli import json_scalar
from curveseq.curve import Q_COEFFS, q_polynomial, s_series
from curveseq.descent import FirstOrderOperator
from curveseq.exactnum import is_prime, padic_valuation, reduce_fraction_mod
from curveseq.recurrence import (
    FOOTNOTE_RECURRENCE,
    MAIN_RECURRENCE,
    MAIN_INITIAL_DATA,
    InitialData,
    Recurrence,
    _window_dtype,
    common_denominator,
    denominator_profile,
    extend_integral,
    extend_modp,
    extend_rational,
    main_sequence,
    operator_recurrence,
    poly_eval,
    rhs_forms,
    window_mod,
)
from curveseq.linalg import rank_fraction
from curveseq.polyring import Polynomial
from curveseq.series import TruncatedSeries


def test_golden_values():
    c = main_sequence(7)
    assert c[5] == Fraction(-77, 128)
    assert c[6] == Fraction(-7, 64)


def test_hand_unrolled_oracle():
    # the recurrence at n = 0 and n = 1, unrolled by hand
    c = main_sequence(7)
    n = 0
    assert 16 * c[5] + 16 * c[4] + 3 * c[3] + 7 * c[2] + 4 * c[1] + 0 * c[0] == 0
    n = 1
    assert 20 * c[6] + 24 * c[5] + 4 * c[4] + 11 * c[3] + 9 * c[2] + 2 * c[1] == 0


# The tables as entered by hand before they were derived from Q: the literal
# references that every derived table must equal.
LITERAL_A = (0, 4, 8, 1, 4, 5, 2)
LITERAL_B = (4, 16, 0, 1, 1)
LITERAL_MAIN = ((0, (0, 2)), (1, (4, 5)), (2, (7, 4)), (3, (3, 1)), (4, (16, 8)), (5, (16, 4)))
LITERAL_FOOTNOTE = ((0, (0, 1)), (1, (-3, -2)), (2, (2, 1)))
LITERAL_R_TILDE = ((-8, 4, 0, 0), (1, 0, 8, 0), (3, 2, 8, 12))
LITERAL_CONSTANT_BLOCK = (3, 2, 8, 12)
LITERAL_T2_BLOCK = (-31, 18, -8, 12)
LITERAL_HYPERPLANE = (1, 1, 0, 6)


def test_derived_tables_equal_their_literal_references():
    derived = {
        "A": (recurrence.A_COEFFS, LITERAL_A),
        "B": (recurrence.B_COEFFS, LITERAL_B),
        "R~": (recurrence.R_TILDE_ROWS, LITERAL_R_TILDE),
        "constant block": (recurrence.CONSTANT_BLOCK, LITERAL_CONSTANT_BLOCK),
        "(1+2x)^-2 block": (recurrence.T2_BLOCK, LITERAL_T2_BLOCK),
        "hyperplane": (recurrence.HYPERPLANE_FORM, LITERAL_HYPERPLANE),
    }
    for name, (got, want) in derived.items():
        assert got == want, name
        flat = [c for row in got for c in (row if isinstance(row, tuple) else (row,))]
        assert all(type(c) is int for c in flat), name  # integral, not Fractions equal to ints
    assert MAIN_RECURRENCE.shifts == LITERAL_MAIN
    assert FOOTNOTE_RECURRENCE.shifts == LITERAL_FOOTNOTE


def test_rhs_forms_match_the_literal_c0_formula():
    # R off the recurrence below n = 0 against the hand formula
    # (-4 C_0, -16 C_0, R~_0, R~_1 - C_0, R~_2 - C_0), R~ from the literal rows
    rng = random.Random(22)
    for _ in range(200):
        c = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(5)]
        r0, r1, r2 = (sum(a * v for a, v in zip(row, c[1:])) for row in LITERAL_R_TILDE)
        forms = rhs_forms(InitialData.of(*c))
        assert forms.r_coeffs == (-4 * c[0], -16 * c[0], r0, r1 - c[0], r2 - c[0])
        assert forms.r_tilde_coeffs == (r0, r1, r2)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), max_size=4),
    st.integers(0, 2),
    st.data(),
)
def test_operator_recurrence_solutions_are_killed_by_the_operator(a1, a0, start, data):
    # G = sum g_m x^(m+start) from the translated recurrence: a1 G' + a0 G
    # vanishes from the coefficient of the first recurrence index,
    # x^(T+start-1), T = max(len(a1) - 1, len(a0)), on
    try:
        spec = operator_recurrence(a1, a0, start)
    except ValueError as exc:  # no shift above 0 survives: no recurrence
        assert "the largest >= 1" in str(exc)
        reject()
    n_terms = 14
    assume(all(poly_eval(spec.leading_poly, n) for n in range(n_terms)))
    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    init = data.draw(st.lists(fractions, min_size=spec.order, max_size=spec.order))
    g = extend_rational(spec, init, n_terms)
    series = TruncatedSeries([0] * start + g, start + n_terms)
    image = FirstOrderOperator(Polynomial(a1), Polynomial(a0)).apply_series(series)
    first = max(len(a1) - 1, len(a0)) + start - 1  # >= 0: the order is >= 1
    assert all(c == 0 for c in image.coeffs[first:])
    # and the recurrence's window values below n = 0 are the coefficients
    # before it
    for n in range(-spec.order, 0):
        if first + n >= 0:
            assert spec.window_value(g, n) == image.coeffs[first + n]


def test_recurrence_refuses_shifts_its_routes_read_differently():
    # a repeated offset: extend_rational summed both rows (c_1 = -3) while
    # extend_modp and window_mod kept the last one (c_1 = 5 = -2 mod 7)
    with pytest.raises(ValueError, match="distinct nonnegative offsets"):
        Recurrence(((0, (1,)), (0, (2,)), (1, (1, 1))))
    # a negative offset: extend_integral read window[-1], wrapping around,
    # while _coefficient_table dropped the row
    with pytest.raises(ValueError, match="distinct nonnegative offsets"):
        Recurrence(((-1, (1,)), (0, (1,)), (1, (1,))))
    # no offset above 0: order 0, which extend_rational and window_mod met
    # with an IndexError
    for shifts in ((), ((0, (1, 3)),)):
        with pytest.raises(ValueError, match="distinct nonnegative offsets"):
            Recurrence(shifts)


def test_recurrence_equality_does_not_depend_on_shift_order():
    shuffled = list(LITERAL_MAIN)
    random.Random(5).shuffle(shuffled)
    spec = Recurrence(tuple(shuffled))
    assert spec == MAIN_RECURRENCE and hash(spec) == hash(MAIN_RECURRENCE)
    assert spec.shifts == LITERAL_MAIN
    assert spec.order == 5 and spec.leading_poly == (16, 4)
    assert Recurrence(LITERAL_FOOTNOTE[::-1]) == FOOTNOTE_RECURRENCE


def exp_x_over_1_minus_x(n: int) -> list[Fraction]:
    """Independent oracle: exp(x/(1-x)) = sum u^k / k! with u = x + x^2 + ..."""
    coeffs = [Fraction(0)] * n
    coeffs[0] = Fraction(1)
    u = [Fraction(0)] + [Fraction(1)] * (n - 1)
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        nxt = [Fraction(0)] * n
        for i, a in enumerate(power):
            if a:
                for j in range(n - i):
                    if u[j]:
                        nxt[i + j] += a * u[j]
        power = nxt
        fact = Fraction(1, math.factorial(k))
        for i in range(n):
            coeffs[i] += power[i] * fact
    return coeffs


def test_footnote_fixture_is_exp():
    got = extend_rational(FOOTNOTE_RECURRENCE, [Fraction(1), Fraction(1)], 12)
    assert got == exp_x_over_1_minus_x(12)
    assert got[2] == Fraction(3, 2) and got[3] == Fraction(13, 6)


def test_window_uniqueness_invariant():
    c = main_sequence(60)
    assert MAIN_RECURRENCE.satisfies(c)
    assert main_sequence(60) == c  # deterministic


def test_extended_by_zero_still_satisfies():
    # prepending zeros (c_m = 0 for m < 0) keeps every window valid
    c = [Fraction(0)] * 5 + main_sequence(30)
    shifted_ok = True
    for n in range(len(c) - 5):
        acc = Fraction(0)
        for j, poly in MAIN_RECURRENCE.shifts:
            c0, c1 = poly
            acc += (c0 + c1 * (n - 5)) * c[n + j]
        shifted_ok = shifted_ok and acc == 0
    assert shifted_ok


def test_extend_modp_reduction_stays_consistent():
    for p in (3, 7, 11):
        n = 5 * p
        c = main_sequence(n)
        sol = extend_modp(MAIN_RECURRENCE, MAIN_INITIAL_DATA.reduce_mod(p), p, n,
                          [reduce_fraction_mod(c[m], p) for m in range(5, n) if m % p == 1])
        assert sol.ok
        assert sol.values == [reduce_fraction_mod(v, p) for v in c]


def test_extend_modp_violation():
    # hyperplane value 6 != 0 forces failure for every free choice tried
    p = 7
    found_ok = False
    for choice in range(p):
        sol = extend_modp(
            MAIN_RECURRENCE, (0, 0, 0, 0, 1), p, 30, [choice] * 4
        )
        if sol.ok:
            found_ok = True
        else:
            assert sol.violated_at is not None and sol.violated_at % p == 1
    assert not found_ok
    first = extend_modp(MAIN_RECURRENCE, (0, 0, 0, 0, 1), p, 30)
    assert first.violated_at == 8


def test_extend_modp_exhaustive_policy():
    from curveseq.recurrence import extend_modp_exhaustive

    # off the hyperplane: no free-choice combination survives index 8
    assert extend_modp_exhaustive(MAIN_RECURRENCE, (0, 0, 0, 0, 1), 7, 9) is None
    # a member of V_7 extends past several blocks for some choice sequence
    sol = extend_modp_exhaustive(MAIN_RECURRENCE, (0, 1, 2, 6, 3), 7, 24)
    assert sol is not None and sol.ok and len(sol.values) == 24


def test_extend_modp_exhaustive_runs_past_the_recursion_limit():
    # 1200 terms take 171 free indices and more than 1000 forced steps, one
    # stack frame each in a recursive search
    from curveseq.recurrence import extend_modp_exhaustive

    sol = extend_modp_exhaustive(MAIN_RECURRENCE, (0, 1, 2, 6, 3), 7, 1200)
    assert sol is not None and sol.ok and len(sol.values) == 1200
    # the linear stepper, fed the same free choices, rebuilds every value
    free = [sol.values[m] for m, _ in sol.residuals]
    again = extend_modp(MAIN_RECURRENCE, (0, 1, 2, 6, 3), 7, 1200, free)
    assert again.ok and again.values == sol.values
    assert [m for m, _ in again.residuals] == [m for m, _ in sol.residuals]


def test_extend_modp_zero_solution():
    sol = extend_modp(MAIN_RECURRENCE, (0, 0, 0, 0, 0), 7, 40)
    assert sol.ok and all(v == 0 for v in sol.values)


def test_extend_modp_free_choice_log():
    c = main_sequence(30)
    sol = extend_modp(MAIN_RECURRENCE, MAIN_INITIAL_DATA.reduce_mod(7), 7, 30,
                      [reduce_fraction_mod(c[m], 7) for m in (8, 15, 22, 29)])
    assert [m for m, _ in sol.free_choices] == [8, 15, 22, 29]


def test_extend_modp_matches_window_value():
    # every step against Recurrence.window_value, Horner on the exact
    # coefficients, independent of _coefficient_table: 0 at each forced
    # step, the recorded residual at each free index
    p, n_terms = 7, 24  # free indices 8, 15, 22
    rng = random.Random(3)
    inits = [(0, 0, 0, 0, 0), MAIN_INITIAL_DATA.reduce_mod(p)]
    inits += [(0, *(rng.randrange(p) for _ in range(4))) for _ in range(40)]
    choices = [rng.randrange(p) for _ in range(3)]
    outcomes = set()
    for init in inits:
        sol = extend_modp(MAIN_RECURRENCE, init, p, n_terms, choices)
        assert len(sol.values) == n_terms
        assert sol.free_choices == list(zip((8, 15, 22), choices))
        residuals = dict(sol.residuals)
        for n in range(n_terms - 5):
            assert MAIN_RECURRENCE.window_value(sol.values, n) % p == residuals.get(n + 5, 0)
        bad = [m for m, r in sol.residuals if r]
        assert sol.violated_at == (bad[0] if bad else None)
        outcomes.add(sol.ok)
    assert outcomes == {True, False}


def test_extend_modp_goes_on_past_a_violation():
    # off the hyperplane the constraint below 8 fails; the run still
    # reaches n_terms, records every residual and reports the first failure
    p = 7
    sol = extend_modp(MAIN_RECURRENCE, (0, 0, 0, 0, 1), p, 30, [1, 2, 3, 4])
    assert len(sol.values) == 30
    assert [m for m, _ in sol.residuals] == [8, 15, 22, 29]
    assert sol.residuals[0][1] != 0 and sol.violated_at == 8 and not sol.ok
    assert sol.free_choices == [(8, 1), (15, 2), (22, 3), (29, 4)]


def test_extend_modp_pads_free_values_with_zero():
    p, init = 7, MAIN_INITIAL_DATA.reduce_mod(7)
    short = extend_modp(MAIN_RECURRENCE, init, p, 30, [5])
    padded = extend_modp(MAIN_RECURRENCE, init, p, 30, [5, 0, 0, 0])
    assert short == padded
    assert [v for _, v in short.free_choices] == [5, 0, 0, 0]
    assert extend_modp(MAIN_RECURRENCE, init, p, 30) == extend_modp(MAIN_RECURRENCE, init, p, 30, [0] * 4)


@pytest.mark.parametrize("n_terms", [0, 3, 5, 6])
def test_extend_modp_returns_n_terms_values(n_terms):
    # as many as extend_integral returns, and the same values mod 7
    sol = extend_modp(MAIN_RECURRENCE, (0, 1, 2, 3, 4), 7, n_terms)
    exact = extend_rational(MAIN_RECURRENCE, (0, 1, 2, 3, 4), n_terms)
    assert sol.values == [reduce_fraction_mod(v, 7) for v in exact]
    assert len(sol.values) == n_terms
    oracle = recurrence.extend_modp_exhaustive(MAIN_RECURRENCE, (0, 1, 2, 3, 4), 7, n_terms)
    assert oracle.values == sol.values


@pytest.mark.parametrize(
    "run",
    [
        lambda init: extend_modp(MAIN_RECURRENCE, init, 7, 20),
        lambda init: extend_modp(MAIN_RECURRENCE, init, 7, 20, [0] * 20),
        lambda init: recurrence.extend_modp_exhaustive(MAIN_RECURRENCE, init, 7, 20),
        lambda init: window_mod(MAIN_RECURRENCE, init, 7, 10),
        lambda init: extend_integral(MAIN_RECURRENCE, init, 20),
    ],
    ids=["extend_modp", "extend_modp_free_values", "extend_modp_exhaustive", "window_mod", "extend_integral"],
)
def test_six_initial_values_raise(run):
    # the order-5 recurrence takes exactly five; a sixth is no free value
    with pytest.raises(ValueError, match="need exactly 5 initial values"):
        run((0, 1, 2, 3, 4, 5))


def test_rhs_forms_special_vanish():
    forms = rhs_forms(MAIN_INITIAL_DATA)
    assert all(v == 0 for v in forms.r_coeffs)
    assert forms.r_is_multiple_of_b()


def test_rhs_forms_examples():
    forms = rhs_forms(InitialData.of(0, 0, 0, 0, 1))
    assert forms.r_tilde_coeffs == (0, 0, 12)
    assert not forms.r_is_multiple_of_b()


def test_rhs_forms_multiple_of_b_iff_special():
    # special with C_0 != 0: R = -C_0 * B exactly
    init = InitialData.of(3, 1, 2, Fraction(-1, 8), Fraction(-1, 2))
    forms = rhs_forms(init)
    assert forms.r_is_multiple_of_b()
    assert list(forms.r_coeffs) == [-3 * b for b in (4, 16, 0, 1, 1)]
    rng = random.Random(4)
    for _ in range(10):
        vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
        init = InitialData.of(*vals)
        assert rhs_forms(init).r_is_multiple_of_b() == init.is_special


def test_rhs_form_rank_is_4():
    # the R-coefficients of the five unit vectors: the transpose of the
    # forms' matrix, so the same rank
    units = [InitialData.of(*(int(i == k) for i in range(5))) for k in range(5)]
    assert rank_fraction([list(rhs_forms(e).r_coeffs) for e in units]) == 4


def test_special_detector():
    for init, expected in [
        (MAIN_INITIAL_DATA, (True, Fraction(0))),
        (InitialData.of(0, 2, 4, Fraction(-1, 4), -1), (True, Fraction(0))),
        (InitialData.of(0, 0, 0, 0, 1), (False, Fraction(6))),
    ]:
        assert (init.is_special, init.hyperplane_value) == expected
    # zero vector counts as proportional
    assert InitialData.of(0, 0, 0, 0, 0).is_special is True


def test_denominator_profile_main_sequence():
    c = main_sequence(200)
    prof = denominator_profile(c, 1)
    assert prof.ok
    assert set(prof.prime_support) <= {2}
    # the stronger statement: 2^(2n-3) c_n integral
    for n in range(2, 200):
        assert (Fraction(2) ** (2 * n - 3) * c[n]).denominator == 1


def test_denominator_profile_e1():
    init = InitialData.of(0, 1, 0, 0, 0)
    seq = extend_rational(MAIN_RECURRENCE, init, 201)
    assert common_denominator(init) == 1
    prof = denominator_profile(seq, 1)
    assert prof.ok


def test_denominator_profile_zero_sequence():
    prof = denominator_profile([Fraction(0)] * 50, 1)
    assert prof.ok


def test_denominator_profile_witnesses_violation():
    seq = [Fraction(0), Fraction(1), Fraction(1, 7)]
    prof = denominator_profile(seq, 1)
    assert not prof.ok and prof.witness == (2, 7)


def test_footnote_fixture_factorial_growth():
    # contrast: lcm of denominators beats any geometric bound by n = 60
    seq = extend_rational(FOOTNOTE_RECURRENCE, [Fraction(1), Fraction(1)], 61)
    lcm = 1
    best = Fraction(0)
    for n, c in enumerate(seq):
        lcm = math.lcm(lcm, c.denominator)
        best = max(best, Fraction(lcm, 4**n))
    assert best > 10**6


def test_shifted_block_membership():
    # every tail (c_{mp+n})_n satisfies the recurrence mod p
    for p in (7, 11):
        cbar = [reduce_fraction_mod(v, p) for v in main_sequence(5 * p)]
        for m in range(4):
            assert MAIN_RECURRENCE.satisfies(cbar[m * p :], modulus=p)


def test_integrality_witness():
    seq = extend_rational(MAIN_RECURRENCE, InitialData.of(0, 0, 0, 0, 1), 100)
    w = next((n for n in range(61) if padic_valuation(seq[n], 7) < 0), None)
    assert w is not None and padic_valuation(seq[w], 7) < 0


def test_json_round_trip():
    c = main_sequence(12)
    data = json.loads(json.dumps(json_scalar(c)))
    assert data[5] == "-77/128"
    assert [Fraction(v) for v in data] == c


# -- the integer kernel against a per-op Fraction loop ---------------------------


def fraction_loop(spec, init, n_terms):
    """Test-only oracle: the recurrence stepped one Fraction operation at a
    time, with its own polynomial evaluation."""
    values = [Fraction(v) for v in init]
    d = spec.order
    polys = dict(spec.shifts)
    for n in range(n_terms - d):
        acc = Fraction(0)
        for j in range(d):
            acc += sum(c * n**k for k, c in enumerate(polys.get(j, ()))) * values[n + j]
        values.append(-acc / sum(c * n**k for k, c in enumerate(polys[d])))
    return values[:n_terms]


rationals = st.fractions(max_denominator=10**6)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just([0] * 5), st.lists(rationals, min_size=5, max_size=5)),
    st.integers(0, 80),
)
def test_extend_rational_matches_fraction_loop_main(values, n_terms):
    init = InitialData.of(*values)
    assert extend_rational(MAIN_RECURRENCE, init, n_terms) == fraction_loop(
        MAIN_RECURRENCE, init.values, n_terms
    )


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just([0, 0]), st.lists(rationals, min_size=2, max_size=2)),
    st.integers(0, 80),
)
def test_extend_rational_matches_fraction_loop_footnote(values, n_terms):
    assert extend_rational(FOOTNOTE_RECURRENCE, values, n_terms) == fraction_loop(
        FOOTNOTE_RECURRENCE, values, n_terms
    )


def test_extend_rational_vanishing_leading_coefficient():
    # (n - 3) g_{n+1} + g_n = 0: the leading coefficient is negative up to
    # n = 2, and the step at n = 3 divides by zero
    spec = Recurrence(((0, (1,)), (1, (-3, 1))))
    nums, dens = extend_integral(spec, [1], 4)
    assert all(d > 0 for d in dens)
    assert extend_rational(spec, [1], 4) == fraction_loop(spec, [1], 4)
    with pytest.raises(ZeroDivisionError):
        extend_rational(spec, [1], 5)
    with pytest.raises(ZeroDivisionError):
        fraction_loop(spec, [1], 5)


def test_extend_integral_shared_denominator_is_least():
    # on the main data the shared denominator is the lcm of the window's
    # reduced denominators: the kernel carries no excess factor
    nums, dens = extend_integral(MAIN_RECURRENCE, MAIN_INITIAL_DATA, 1001)
    c = [Fraction(a, b) for a, b in zip(nums, dens)]
    assert c == main_sequence(1001)
    for k in range(4, 1001):
        assert dens[k] == math.lcm(*(v.denominator for v in c[k - 4 : k + 1]))


# -- window_mod: windows mod p off step-matrix products --------------------------------


def q_windows(spec, init, p, ns):
    """The windows at ns mod p by the Q route: extend_integral, then
    reduce_fraction_mod on the pairs (ValueError where one is not p-integral)."""
    d = spec.order
    nums, dens = extend_integral(spec, init, max(ns) + d)
    return [tuple(reduce_fraction_mod((nums[k], dens[k]), p) for k in range(n, n + d)) for n in ns]


ODD_PRIMES_BELOW_200 = [p for p in range(3, 200) if is_prime(p)]


def test_window_mod_matches_q_route_across_free_indices():
    # MAIN's free steps are m = kp - 4 (P_5(m) = 4(m + 4)); for p >= 5 a
    # window at n crosses k of them for kp - 4 < n <= (k+1)p - 4, here
    # k = 0..4
    rng = random.Random(11)
    nums, dens = extend_integral(MAIN_RECURRENCE, MAIN_INITIAL_DATA, 5 * max(ODD_PRIMES_BELOW_200) + 1)
    for p in ODD_PRIMES_BELOW_200:
        ns = [max(0, k * p - 3 + rng.randrange(p)) for k in range(5)]
        want = [tuple(reduce_fraction_mod((nums[k], dens[k]), p) for k in range(n, n + 5)) for n in ns]
        assert [window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, p, n) for n in ns] == want, p


def test_window_mod_reads_cp1_and_c2p_at_every_good_prime_below_1050():
    # the two entries the C_p = C_1 degeneracy reads, and the V_p tail vector
    nums, dens = extend_integral(MAIN_RECURRENCE, MAIN_INITIAL_DATA, 2 * 1049 + 1)
    good = [p for p in range(7, 1050) if is_prime(p) and p != 13]
    assert len(good) == 172
    for p in good:
        w1, tail, w2 = (window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, p, n) for n in (p - 3, p, 2 * p - 4))
        red = [reduce_fraction_mod((nums[k], dens[k]), p) for k in (p + 1, p + 2, p + 3, p + 4, 2 * p)]
        assert (tail[1:], w1[-1], w2[-1]) == (tuple(red[:4]), red[0], red[4]), p


def test_window_mod_not_p_integral_raises():
    for p in (7, 11, 37):
        # C_4 = 1/p: the initial window itself is not p-integral
        init = InitialData.of(0, 1, 2, Fraction(-1, 8), Fraction(1, p))
        for n in (0, p + 1):
            with pytest.raises(ValueError):
                window_mod(MAIN_RECURRENCE, init, p, n)
            with pytest.raises(ValueError):
                q_windows(MAIN_RECURRENCE, init, p, [n])
        # exp(x/(1-x)) has c_p = sum_k binom(p-1, k-1)/k! with one 1/p! term:
        # the window up to c_{p-1} reads, the one through c_p does not
        assert window_mod(FOOTNOTE_RECURRENCE, [1, 1], p, p - 2) == q_windows(FOOTNOTE_RECURRENCE, [1, 1], p, [p - 2])[0]
        with pytest.raises(ValueError):
            window_mod(FOOTNOTE_RECURRENCE, [1, 1], p, p - 1)
        with pytest.raises(ValueError):
            q_windows(FOOTNOTE_RECURRENCE, [1, 1], p, [p - 1])


def hasse_spec(f_coeffs):
    """The recurrence of (F/F(0))^(-1/2), entered by hand from F's
    coefficients: shift d - j carries (f_j (2 - j), 2 f_j)."""
    d = len(f_coeffs) - 1
    return Recurrence(tuple((d - j, (f * (2 - j), 2 * f)) for j, f in enumerate(f_coeffs) if f))


def test_hasse_spec_is_the_translated_operator():
    # 2F h' + F' h = 0 through operator_recurrence, g_m = h_(m+1-d), against
    # the literal spec: on Q, the reversed quartic and the reversed cubic
    for f in (Q_COEFFS, Q_COEFFS[::-1], (1, 0, 1, 1)):
        d = len(f) - 1
        derivative = [j * c for j, c in enumerate(f)][1:]
        assert operator_recurrence([2 * c for c in f], derivative, 1 - d) == hasse_spec(f), f


#: order 4 from the quartic Q; order 3 from x^3 f(1/x), f = x^3 + x + 1 (no
#: shift 2, so a zero row in the coefficient table)
HASSE_QUARTIC = hasse_spec(Q_COEFFS)
HASSE_CUBIC = hasse_spec((1, 0, 1, 1))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(MAIN_RECURRENCE, 5), (FOOTNOTE_RECURRENCE, 2), (HASSE_QUARTIC, 4), (HASSE_CUBIC, 3)]),
    st.sampled_from([3, 5, 7, 11, 13]),
    st.data(),
)
def test_window_mod_agrees_or_raises_with_q_route(spec_d, p, data):
    # window_mod raises ValueError exactly when some c_k, k < n + d, is not
    # p-integral; otherwise it is the Q route's window
    spec, d = spec_d
    dens = st.sampled_from([1, 2, 8, 3 * p + 1, p, 2 * p, p * p])
    init = data.draw(st.lists(st.builds(Fraction, st.integers(-50, 50), dens), min_size=d, max_size=d))
    n = data.draw(st.integers(0, 4 * p))
    nums, dens = extend_integral(spec, init, n + d)
    try:
        [reduce_fraction_mod((a, b), p) for a, b in zip(nums, dens)]
        want = q_windows(spec, init, p, [n])[0]
    except ValueError:
        want = ValueError
    try:
        got = window_mod(spec, init, p, n)
    except ValueError:
        got = ValueError
    assert got == want


def test_window_mod_vanishing_leading_coefficient():
    # (n - 3) g_{n+1} + g_n = 0, as in the Q kernel's test: the step at n = 3
    # divides by zero (at p = 3 already c_1 = 1/3 is not 3-integral)
    spec = Recurrence(((0, (1,)), (1, (-3, 1))))
    with pytest.raises(ValueError):
        window_mod(spec, [1], 3, 1)
    for p in (5, 7):
        assert window_mod(spec, [1], p, 3) == q_windows(spec, [1], p, [3])[0]
        with pytest.raises(ZeroDivisionError):
            window_mod(spec, [1], p, 4)


def test_window_mod_bad_indices_raise():
    with pytest.raises(ValueError):
        window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, 7, -1)
    with pytest.raises(ValueError):
        window_mod(MAIN_RECURRENCE, [0, 1], 7, 3)


def test_window_mod_checks_its_domain_before_any_array_work():
    # p = 0 used to reach numpy's % 0 (two RuntimeWarnings) before failing,
    # and a composite p failed in extend_modp as "base is not invertible"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0, 1, 9):
            with pytest.raises(ValueError, match=f"{p} is not prime"):
                window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, p, 10)
            with pytest.raises(ValueError):
                extend_modp(MAIN_RECURRENCE, (0, 1, 2, 3, 4), p, 10)
    with pytest.raises(ValueError, match="9 is not prime"):
        extend_modp(MAIN_RECURRENCE, (0, 1, 2, 3, 4), 9, 10)
    # the message names p, not the working modulus p^(1 + e)
    with pytest.raises(ValueError, match="initial value -1/8 is not 2-integral"):
        window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, 2, 10)


def test_extend_modp_exhaustive_refuses_a_composite_p():
    # it used to fail inside pow with "base is not invertible"
    for p in (9, 15):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            recurrence.extend_modp_exhaustive(MAIN_RECURRENCE, (0, 1, 2, 3, 4), p, 20)


def random_unit_lead_spec(rng, d, p, steps):
    """A random order-d recurrence whose lead is a unit mod p at every step
    m < steps, so that a window at n <= steps is one forced segment."""
    poly = lambda: tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
    while True:
        lead = poly()
        if all(poly_eval(lead, m) % p for m in range(steps)):
            return Recurrence(tuple((j, poly()) for j in range(d)) + ((d, lead),))


def test_window_mod_sweeps_segment_lengths():
    # one forced segment of every length 0..70: each level of the product
    # tree meets both parities, and the closed-form first level meets d = 1..5
    p, top = 101, 70
    rng = random.Random(2024)
    cases = [(MAIN_RECURRENCE, MAIN_INITIAL_DATA), (FOOTNOTE_RECURRENCE, [1, 1])]
    for d in (1, 2, 3, 4, 5):
        for _ in range(2):
            spec = random_unit_lead_spec(rng, d, p, top)
            cases.append((spec, [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 7])) for _ in range(d)]))
    for spec, init in cases:
        want = q_windows(spec, init, p, range(top + 1))
        assert [window_mod(spec, init, p, n) for n in range(top + 1)] == want, spec


def test_window_mod_object_fallback(monkeypatch):
    # p = 7: the steps m < n cross e = v_7 sum over m + 4 = 7, 14, ..., with
    # 49 counting twice; e = 9 for 53 <= n <= 59 (7^10 still int64), e = 10
    # from n = 60 (7^11 past the guard), e = 13 at n = 80
    seen = []
    forced = recurrence._forced_steps

    def spy(spec, window, start, stop, q, dtype):
        seen.append(dtype)
        return forced(spec, window, start, stop, q, dtype)

    monkeypatch.setattr(recurrence, "_forced_steps", spy)
    p = 7
    for n, dtype in ((59, np.dtype(np.int64)), (60, np.dtype(object)), (80, np.dtype(object))):
        seen.clear()
        assert window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, p, n) == q_windows(
            MAIN_RECURRENCE, MAIN_INITIAL_DATA, p, [n]
        )[0]
        assert set(seen) == {dtype}, n


def test_window_dtype_guard():
    # only dtypes are inspected, nothing is allocated: int64 exactly while a
    # row times a column, d(q-1)^2, and a Horner step, (q-1)^2 + max|c|, fit
    top = int(np.iinfo(np.int64).max)
    wide = Recurrence(((0, (2**40,)), (1, (1,))))  # d = 1: the Horner bound binds
    for spec, cmax in ((MAIN_RECURRENCE, 16), (FOOTNOTE_RECURRENCE, 3), (wide, 2**40)):
        bound = lambda q: max(spec.order * (q - 1) ** 2, (q - 1) ** 2 + cmax)
        edge = math.isqrt(top // spec.order)  # near the last q that fits
        while bound(edge + 1) <= top:
            edge += 1
        while bound(edge) > top:
            edge -= 1
        for q in (3, 7**10, 7**11, edge - 1, edge, edge + 1, 2**64, 2**127):
            assert _window_dtype(spec, q) == (np.dtype(np.int64) if bound(q) <= top else object), (spec, q)
        assert _window_dtype(spec, edge) == np.int64 and _window_dtype(spec, edge + 1) == object
    assert _window_dtype(MAIN_RECURRENCE, 7**10) == np.int64
    assert _window_dtype(MAIN_RECURRENCE, 7**11) == object


def test_main_sequence_mod_p_from_the_hasse_power():
    # a third route: s = 2x(2x+1)/y and 1/y = Q^((p-1)/2) Q(x^p)^(-1/2) mod p,
    # with Q(x^p)^(-1/2) = 1/2 + O(x^(2p)), so c_n = a_(n-1) + 2 a_(n-2) mod p
    # for 1 <= n <= 2p, a_k the coefficients of Q^((p-1)/2); deg = 2p - 2
    # gives c_(2p) = 2
    for p in (p for p in range(7, 400) if is_prime(p) and p != 13):
        a = q_polynomial(p) ** ((p - 1) // 2)
        c = s_series(2 * p + 1, modulus=p)
        assert all(c[n] == (a[n - 1] + 2 * a[n - 2]) % p for n in range(1, 2 * p + 1)), p
        assert c[2 * p] == 2
