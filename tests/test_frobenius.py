import random

import pytest

from curveseq.cartier import alphabeta_weierstrass
from curveseq.exactnum import is_prime
from curveseq.frobenius import (
    asd_check,
    origin_expansion,
    point_count,
    supersingular_scan,
)


def test_point_count_cm_fixtures():
    td = point_count(0, 1, 5)
    assert td.count == 6 and td.trace == 0
    td7 = point_count(0, 1, 7)
    assert td7.trace % 7 == 3  # alpha_7 = C(3, 2) = 3
    td11 = point_count(0, 1, 11)
    assert td11.count == 12 and td11.trace == 0


def test_point_count_exhaustive_oracle():
    # brute-force point enumeration for one curve
    a, b, p = 2, 3, 13
    pts = 1  # infinity
    for x in range(p):
        for y in range(p):
            if (y * y - (x**3 + a * x + b)) % p == 0:
                pts += 1
    assert point_count(a, b, p).count == pts


def test_point_count_rejects_singular():
    with pytest.raises(ValueError):
        point_count(0, 0, 7)


def test_hasse_bound_holds_everywhere():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for a in range(3):
            for b in range(1, 4):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                td = point_count(a, b, p)
                assert td.trace**2 <= 4 * p


def test_origin_expansion_invariants():
    e = origin_expansion(0, 1, 14)
    assert e.c(1) == 1
    assert e.x.offset == -2 and e.x.series.coeffs[0] == 1
    assert e.y.offset == -3 and e.y.series.coeffs[0] == -1
    # x, y have integer coefficients up to t^10 for (0, 1)
    assert all(c.denominator == 1 for c in e.x.series.coeffs[:13])
    # y = -x/t exactly: compare Laurent coefficients
    ratio = e.x * e.y.inverse()
    assert ratio.offset == 1 and ratio.series.coeffs[0] == -1
    # y^2 = x^3 + 1
    lhs = e.y * e.y
    rhs = e.x * e.x * e.x + 1
    assert lhs == rhs


def test_origin_expansion_random_curve_equation():
    rng = random.Random(17)
    for _ in range(4):
        a, b = rng.randint(-3, 3), rng.randint(1, 4)
        e = origin_expansion(a, b, 12)
        lhs = e.y * e.y
        rhs = e.x * e.x * e.x + a * e.x + b
        assert lhs == rhs


def test_origin_expansion_mod_path_matches_exact():
    exact = origin_expansion(0, 1, 30)
    m = origin_expansion(0, 1, 30, modulus=49)
    for n in range(1, 29):
        assert exact.c(n) % 49 == m.c(n)


def test_asd_base_cases():
    rep7 = asd_check(0, 1, 7, 1, 1)
    assert rep7.ok  # c_7 = f_7 mod 7
    rep5 = asd_check(0, 1, 5, 2, 1)
    assert rep5.ok and rep5.trace == 0
    # explicit: c_25 = -5 c_1 mod 25 when f_5 = 0
    e = origin_expansion(0, 1, 27)
    assert (e.c(25) + 5 * e.c(1)) % 25 == 0


def test_asd_first_power_general_n():
    # r = 1: c_{np} = f_p c_n mod p
    p = 7
    trace = point_count(0, 1, p).trace
    e = origin_expansion(0, 1, 50)
    for n in range(1, 8):
        assert (e.c(n * p) - trace * e.c(n)) % p == 0


def test_asd_random_curves():
    rng = random.Random(23)
    count = 0
    while count < 3:
        a, b = rng.randint(-4, 4), rng.randint(1, 5)
        if any((4 * a**3 + 27 * b**2) % p == 0 for p in (5, 7)):
            continue
        for p in (5, 7):
            assert asd_check(a, b, p, 2, 3).ok, (a, b, p)
        count += 1


def test_supersingular_scan_cm_curve():
    rep = supersingular_scan(0, 1, 50)
    assert [r.p for r in rep.supersingular] == [5, 11, 17, 23, 29, 41, 47]
    assert all(r.beta_nonzero for r in rep.supersingular)
    assert all(r.vp_c_p2_is_1 for r in rep.supersingular)
    assert rep.cm_pattern_ok


@pytest.mark.parametrize("a, b", [(0, 1), (2, 3)])  # (2, 3) is bad at 5 and 11
def test_supersingular_scan_keeps_invariants_of_every_good_prime(a, b):
    rep = supersingular_scan(a, b, 50, vp_limit=5)
    good = [p for p in range(5, 51) if is_prime(p) and (4 * a**3 + 27 * b**2) % p]
    assert list(rep.invariants) == good
    for p, inv in rep.invariants.items():
        assert inv.alpha.value == point_count(a, b, p).trace % p


def test_supersingular_vp_limit():
    rep = supersingular_scan(0, 1, 50, vp_limit=11)
    checked = [r for r in rep.supersingular if r.vp_c_p2_is_1 is not None]
    assert [r.p for r in checked] == [5, 11]


def test_alpha_equals_trace_mod_p():
    rng = random.Random(31)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        tried = 0
        while tried < 20:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            inv = alphabeta_weierstrass([b, a, 0, 1], p)
            td = point_count(a, b, p)
            assert td.trace % p == inv.alpha.value, (a, b, p)
            tried += 1


def test_cm_alpha_beta_product_zero():
    for p in range(5, 200):
        if not is_prime(p) or p == 3:
            continue
        if 27 % p == 0:
            continue
        inv = alphabeta_weierstrass([1, 0, 0, 1], p)
        assert inv.alpha.value * inv.beta.value % p == 0
        assert inv.alpha.value != 0 or inv.beta.value != 0
        assert (inv.alpha.value == 0) == (p % 3 == 2)
