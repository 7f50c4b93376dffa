"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a single summary line (visible with pytest -s) and asserts
its stated runtime budget.  Two reference values are pinned by multi-route
derivation rather than as quoted: the table entry b_1 (= 0, forced by the
l-table and the generating function; 4 is inconsistent) and the second
introductory congruence family (offsets kp-1, kp-2 with exact witness d(2y);
the offsets kp-2, kp-3 fail already at k = 1, p = 7).
"""

import random
import time
from fractions import Fraction

import pytest

from curveseq.cartier import (
    alphabeta_quartic,
    alphabeta_weierstrass,
    legendre_hasse,
)
from curveseq.curve import (
    J_INVARIANT,
    closed_forms,
    curve_model_checks,
    s_series,
    two_adic_facts,
    verify_algebraic_identities,
    xi_quadrature,
)
from curveseq.descent import (
    descend_series_solution,
    main_operator,
    polynomial_solution_search,
    solution_space_dimension,
)
from curveseq.exactnum import is_prime, padic_valuation, reduce_fraction_mod
from curveseq.frobenius import asd_check, origin_expansion, point_count
from curveseq.modpspace import compute_vp, union_check
from curveseq.polyring import Polynomial
from curveseq.recurrence import (
    InitialData,
    MAIN_RECURRENCE,
    MAIN_INITIAL_DATA,
    common_denominator,
    denominator_profile,
    extend_rational,
    main_sequence,
)
from curveseq.series import TruncatedSeries, congruence_scan, dieudonne_exponents

GOOD_PRIMES_TO_101 = [
    p for p in range(7, 102) if is_prime(p) and p not in (13,)
]


def report(criterion: str, elapsed: float, budget: float):
    print(f"[{criterion}] PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"


def test_criterion_01_golden_values():
    t0 = time.time()
    c = main_sequence(7)
    assert c[5] == Fraction(-77, 128)
    rows = closed_forms(6)
    # b_1 = 0: forced by l_2 = b_1 + 8 b_0 = 8 and 4 c_2 = 8 (4 is inconsistent)
    assert [r.b for r in rows[:5]] == [1, 0, -2, -16, -26]
    assert [r.l for r in rows[:5]] == [0, 1, 8, -2, -32]
    assert rows[5].l == -154
    report("criterion 01: golden values", time.time() - t0, 1)


def test_criterion_02_integrality_and_sharpness():
    t0 = time.time()
    c = main_sequence(501)
    for n in range(2, 501):
        assert (Fraction(2) ** (2 * n - 3) * c[n]).denominator == 1, n
    # sharpness at the odd indices n = 2^k + 1 (k >= 1; n = 2 is even and
    # l_2 = 8 has valuation 3)
    for k in range(1, 8):
        n = 2**k + 1
        assert padic_valuation(c[n] * Fraction(4) ** (n - 1), 2) == 1, n
    report("criterion 02: 2-adic integrality + sharpness", time.time() - t0, 10)


def test_criterion_03_congruences():
    t0 = time.time()
    c = main_sequence(2001)
    for p in (3, 5, 7, 11, 13):
        rep = congruence_scan(c, p, 2, 2000)
        assert rep.ok, (p, rep.first_failure(), rep.non_integral_index)
    report("criterion 03: c_(kp^(r+1)) = c_(kp^r) mod p^(r+1)", time.time() - t0, 60)


def test_criterion_04_intro_congruences():
    t0 = time.time()
    c = main_sequence(1006)
    for p in (7, 11):
        for k in range(0, 1000 // p):
            v = (
                6 * reduce_fraction_mod(c[k * p + 4], p)
                + reduce_fraction_mod(c[k * p + 2], p)
                + reduce_fraction_mod(c[k * p + 1], p)
            ) % p
            assert v == 0, (p, k)
        # second family (witness d(2y) = 2t(x^2+x) omega): offsets kp-1, kp-2;
        # the shifted variant kp-2, kp-3 is refuted below
        for k in range(1, 1000 // p + 1):
            v = (
                reduce_fraction_mod(c[k * p - 1], p)
                + reduce_fraction_mod(c[k * p - 2], p)
            ) % p
            assert v == 0, (p, k)
    # the shifted-offset variant fails at its very first instance
    assert (reduce_fraction_mod(c[5], 7) + reduce_fraction_mod(c[4], 7)) % 7 != 0
    # no stronger periodicity: c_(kp+i) = c_i fails for some k <= 10
    p = 7
    for i in (1, 2, 4):
        assert any(
            reduce_fraction_mod(c[k * p + i], p) != reduce_fraction_mod(c[i], p)
            for k in range(1, 11)
        ), i
    report("criterion 04: intro congruence families", time.time() - t0, 10)


def test_criterion_05_identities():
    t0 = time.time()
    checks = verify_algebraic_identities()
    assert len(checks) >= 6 and all(c.holds for c in checks)
    model = curve_model_checks()
    assert all(c.holds for c in model)
    assert J_INVARIANT == Fraction(7**6, 65)
    report("criterion 05: exact identity suite + j-invariant", time.time() - t0, 1)


def test_criterion_06_ode_and_quadrature():
    t0 = time.time()
    assert main_operator().apply_series(s_series(200)).is_zero()
    rng = random.Random(106)
    for _ in range(20):
        vals = [Fraction(0)] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)
        ]
        res = xi_quadrature(InitialData.of(*vals), 102)
        assert res.derivative_matches
    report("criterion 06: ODE + quadrature d(S/s) = R~/(2t^2) omega", time.time() - t0, 30)


def test_criterion_07_denominator_bound():
    t0 = time.time()
    rng = random.Random(107)
    data = []
    while len(data) < 5:
        vals = [Fraction(0)] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)
        ]
        init = InitialData.of(*vals)
        if not init.is_special:
            data.append(init)
    from curveseq.modpspace import extendability_test

    for init in data:
        seq = extend_rational(MAIN_RECURRENCE, init, 201)
        d = common_denominator(init)
        prof = denominator_profile(seq, d)
        assert prof.ok, (init.values, prof.witness)
        if init.hyperplane_value != 0:
            longer = extend_rational(MAIN_RECURRENCE, init, 8 * 31 + 1)
            for p in (7, 11, 17, 19, 23, 29, 31):
                witness = next(
                    (n for n in range(8 * p + 1) if padic_valuation(longer[n], p) < 0),
                    None,
                )
                # the witness bound needs the hyperplane value to be nonzero
                # MOD p: a prime dividing its numerator can put the reduced
                # vector inside V_p, making the attached form exact mod p
                # (observed at p = 23 for one sampled datum, where the first
                # denominator appears only at n = 530)
                if init.hyperplane_value.numerator % p != 0:
                    assert witness is not None, (init.values, p)
                else:
                    red = tuple(reduce_fraction_mod(v, p) for v in init.values[1:])
                    in_vp = extendability_test(red, p).extendable
                    assert in_vp == (witness is None), (init.values, p)
    report("criterion 07: denominator bound + p-witnesses", time.time() - t0, 30)


def test_criterion_08_vp_dimension():
    t0 = time.time()
    for p in GOOD_PRIMES_TO_101:
        space = compute_vp(p, brute_validate=(p in (7, 11)))
        assert space.dim == 2
        assert space.contains(space.basis[0]) and space.contains(space.basis[1])
    report("criterion 08: dim V_p = 2 for good p <= 101 (brute at 7, 11)", time.time() - t0, 120)


def test_criterion_09_union_theorem():
    t0 = time.time()
    for p in (7, 11, 17):
        rep = union_check(p)
        assert rep.equivalence_holds and rep.checked == p * p
    report("criterion 09: C_p = C_1 iff special, exhaustive", time.time() - t0, 60)


def test_criterion_10_cartier_invariants():
    t0 = time.time()
    for p in range(3, 501):
        if not is_prime(p) or p in (5, 13):
            continue
        assert not alphabeta_quartic(p).both_zero, p
    rng = random.Random(110)
    curves = []
    while len(curves) < 10:
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if 4 * a**3 + 27 * b**2 != 0:
            curves.append((a, b))
    for a, b in curves:
        disc = 4 * a**3 + 27 * b**2
        for p in range(5, 501):
            if not is_prime(p) or disc % p == 0:
                continue
            assert not alphabeta_weierstrass([b % p, a % p, 0, 1], p).both_zero, (a, b, p)
    for p in range(5, 51):
        if not is_prime(p):
            continue
        tried = 0
        rng2 = random.Random(p)
        while tried < 4:
            a, b = rng2.randrange(p), rng2.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            inv = alphabeta_weierstrass([b, a, 0, 1], p)
            assert point_count(a, b, p).trace % p == inv.alpha
            tried += 1
    for p in (7, 11, 13):
        data = legendre_hasse(3, p)
        assert data.derivative_identity and data.ode_identity
    report("criterion 10: (alpha, beta) != (0,0); alpha = trace; Hasse identities", time.time() - t0, 120)


def test_criterion_11_cm_pattern():
    t0 = time.time()
    for p in range(5, 501):
        if not is_prime(p) or p == 3:
            continue
        inv = alphabeta_weierstrass([1, 0, 0, 1], p)
        assert (inv.alpha == 0) == (p % 3 == 2), p
        assert inv.alpha * inv.beta % p == 0, p
        assert not inv.both_zero, p
    report("criterion 11: CM pattern for y^2 = x^3 + 1, p <= 500", time.time() - t0, 60)


def test_criterion_12_asd():
    t0 = time.time()
    rng = random.Random(112)
    curves = [(0, 1)]
    while len(curves) < 6:
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        disc = 4 * a**3 + 27 * b**2
        if disc != 0 and all(disc % p for p in (5, 7, 11, 13)):
            curves.append((a, b))
    for a, b in curves:
        for p in (5, 7, 11, 13):
            rep = asd_check(a, b, p, 2, 5)
            assert rep.ok, (a, b, p, rep.failures)
    # supersingular consequence: v_p(c_(p^2)) = 1 at p = 5, 11 for (0, 1)
    for p in (5, 11):
        assert point_count(0, 1, p).trace == 0
        exp = origin_expansion(0, 1, p * p + 2, modulus=p * p)
        v = exp.c(p * p)
        assert v % p == 0 and (v // p) % p != 0, p
    report("criterion 12: ASD congruences + supersingular v_p(c_(p^2)) = 1", time.time() - t0, 120)


def test_criterion_13_honda_katz():
    t0 = time.time()
    for p in (3, 7, 11):
        sbar = s_series(3 * p + 2, modulus=p)
        res = descend_series_solution(main_operator(p), Polynomial([], p), sbar, p, 2 * p)
        expect = Polynomial([0, 2, 4], p) * Polynomial([4, 0, 1, 2, 1], p) ** ((p - 1) // 2)
        # recovered up to a scalar: 2 x(2x+1) Q^((p-1)/2) times 1/2
        ratio = None
        for a, b in zip(res.phi.coeffs, expect.coeffs):
            if b:
                ratio = a * pow(b, -1, p) % p
                break
        assert ratio and res.phi == expect * ratio
        assert res.phi.degree == 2 * p
        assert solution_space_dimension(p, 2 * p) == 1
        assert polynomial_solution_search(p, 4 * p).degree == 2 * p
    report("criterion 13: descent recovers the degree-2p polynomial", time.time() - t0, 60)


def test_criterion_14_dieudonne_round_trip():
    t0 = time.time()
    n = 206
    q = TruncatedSeries([4, 0, 1, 2, 1], n)
    z_half = (TruncatedSeries([0, 1, 1], n) + q * q.inverse_sqrt(Fraction(2))) / 2
    exps = dieudonne_exponents(z_half, 200)
    for p in range(3, 32, 2):
        if not is_prime(p):
            continue
        for m in range(1, 201):
            assert padic_valuation(exps[m], p) >= 0, (p, m)
    rec = exps.reconstruct()
    assert rec.agrees_with(z_half.truncate(201), 201)
    # converse at p = 7: the scan rebuilds a 7-integral witness for the
    # sequence, whose exponential form reproduces the coefficients
    c = main_sequence(160)
    rep = congruence_scan(c, 7, 2, 150)
    assert rep.ok and rep.witness_integral
    witness = rep.witness_exponents.reconstruct()
    assert all(padic_valuation(v, 7) >= 0 for v in witness.coeffs)
    back = witness.x_log_derivative()
    assert back.coeffs[:121] == c[:121]
    report("criterion 14: Dieudonne exponents round trip", time.time() - t0, 30)
