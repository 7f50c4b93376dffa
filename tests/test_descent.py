import itertools
import random

import pytest

from curveseq.curve import BAD_PRIMES, s_series
from curveseq.descent import (
    DescentError,
    FirstOrderOperator,
    _nullspace,
    descend_series_solution,
    main_operator,
    polynomial_solution_search,
    solution_space_dimension,
)
from curveseq.exactnum import is_prime
from curveseq.polyring import Polynomial
from curveseq.series import TruncatedSeries

GOOD_PRIMES = [p for p in range(3, 32) if is_prime(p) and p not in BAD_PRIMES]


def known_polynomial_solution(p: int) -> Polynomial:
    """x(2x+1) Q(x)^((p-1)/2) over F_p, of degree 2p."""
    return Polynomial([0, 1, 2], p) * Polynomial([4, 0, 1, 2, 1], p) ** ((p - 1) // 2)


def test_polynomial_solution_search():
    for p in GOOD_PRIMES:
        sol = polynomial_solution_search(p, 4 * p)
        assert sol is not None and sol.degree == 2 * p
        assert sol == known_polynomial_solution(p).monic()
    assert polynomial_solution_search(7, 10) is None


def test_solution_space_one_dimensional_below_2p():
    for p in (3, 7):
        assert solution_space_dimension(p, 2 * p) == 1
        assert solution_space_dimension(p, 2 * p - 1) == 0


def test_solution_space_is_kp_module():
    # multiplying a solution by x^p gives another solution; dimension over the
    # constant field F_p(x^p) stays <= the operator order (here 1): every
    # nullspace element is phi * (polynomial in x^p).  p must be a prime of
    # good reduction (at p = 5 the quartic degenerates and extra low-degree
    # solutions appear).
    p = 7
    op = main_operator(p)
    phi = known_polynomial_solution(p)
    assert op.apply_poly(phi).is_zero()
    shifted = phi * Polynomial([0] * p + [1], p)
    assert op.apply_poly(shifted).is_zero()
    for vec in _nullspace(op, 4 * p, p):
        candidate = Polynomial(vec, p)
        q, r = candidate.divmod(phi)
        assert r.is_zero()
        assert all(c == 0 for i, c in enumerate(q.coeffs) if i % p)


def test_descend_simple_integration():
    op = FirstOrderOperator(Polynomial([1], 5), Polynomial([], 5))
    res = descend_series_solution(op, Polynomial([0, 2], 5), TruncatedSeries([0, 0, 1], 3, 5), 5, 6)
    assert res.phi == Polynomial([0, 0, 1], 5)


def test_descend_obstructed_rhs():
    op = FirstOrderOperator(Polynomial([1], 5), Polynomial([], 5))
    with pytest.raises(DescentError):
        descend_series_solution(op, Polynomial([0, 0, 0, 0, 1], 5), TruncatedSeries([0] * 8, 8, 5), 5, 12)


def test_descend_recovers_curve_polynomial():
    for p in GOOD_PRIMES:
        sbar = s_series(3 * p + 2, modulus=p)
        op = main_operator(p)
        assert op.apply_series(sbar).is_zero()
        res = descend_series_solution(op, Polynomial([], p), sbar, p, 2 * p)
        assert res.phi == known_polynomial_solution(p)
        assert res.agreement >= 2 * p + 1


def test_descend_with_declared_denominator():
    # Gamma = (1-x)^2 d/dx, u = 1: the series solution 1 + x + x^2 + ... is the
    # rational function 1/(1-x); searching psi = phi (1-x) finds psi = 1.
    # phi = psi/den turns Gamma(phi) = u into
    # (a1 den) psi' + (a0 den - a1 den') psi = u den^2
    p = 5
    den = Polynomial([1, -1], p)
    op = FirstOrderOperator(den * den, Polynomial([], p))
    rhs = Polynomial([1], p)
    geometric = TruncatedSeries([1] * 12, 12, p)
    assert op.apply_series(geometric) == TruncatedSeries([1], 11, p)
    op2 = FirstOrderOperator(op.a1 * den, op.a0 * den - op.a1 * den.derivative())
    rhs2 = rhs * den * den
    psi_series = geometric * TruncatedSeries(den.coeffs, 12, p)  # = 1
    res = descend_series_solution(op2, rhs2, psi_series, p, 6)
    assert res.phi == Polynomial([1], p)


def test_descend_agreement_is_shared_precision():
    # beyond 2p the series and the degree-2p polynomial must part ways
    p = 7
    sbar = s_series(4 * p, modulus=p)
    res = descend_series_solution(main_operator(p), Polynomial([], p), sbar, p, 2 * p)
    assert res.agreement < 4 * p


def test_descend_rhs_beyond_the_image_is_inconsistent():
    # deg rhs = 60 exceeds every image of deg phi <= 6 under d/dx
    op = FirstOrderOperator(Polynomial([1], 5), Polynomial([], 5))
    rhs = Polynomial([0] * 60 + [1], 5)
    with pytest.raises(DescentError):
        descend_series_solution(op, rhs, TruncatedSeries([0] * 8, 8, 5), 5, 6)


def test_descend_matches_exhaustive_search_over_f3():
    # every phi of degree <= bound is tried: descent raises exactly when no
    # phi solves Gamma(phi) = rhs with phi_n = s_n for n < min(p, precision)
    p = 3
    rng = random.Random(13)

    def rand_poly(deg):
        return Polynomial([rng.randrange(p) for _ in range(deg + 1)], p)

    raised = solved = 0
    for case in range(60):
        op = FirstOrderOperator(rand_poly(rng.randrange(3)), rand_poly(rng.randrange(3)))
        if op.a1.is_zero() and op.a0.is_zero():
            continue
        bound = rng.randrange(7)
        planted = rand_poly(bound)
        rhs = op.apply_poly(planted) if case % 2 else rand_poly(rng.randrange(bound + 3))
        precision = rng.randrange(6)
        source = planted if rng.randrange(3) else rand_poly(bound)
        series = TruncatedSeries([source[n] for n in range(precision)], precision, p)
        pins = min(p, precision)
        feasible = any(
            op.apply_poly(phi) == rhs and all(phi[n] == series.coeffs[n] for n in range(pins))
            for phi in (Polynomial(c, p) for c in itertools.product(range(p), repeat=bound + 1))
        )
        if not feasible:
            with pytest.raises(DescentError):
                descend_series_solution(op, rhs, series, p, bound)
            raised += 1
            continue
        res = descend_series_solution(op, rhs, series, p, bound)
        assert res.phi.degree <= bound
        assert op.apply_poly(res.phi) == rhs
        assert all(res.phi[n] == series.coeffs[n] for n in range(pins))
        solved += 1
    assert raised >= 10 and solved >= 10
