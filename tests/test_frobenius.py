import importlib
import random
from pathlib import Path

import pytest

from curveseq import frobenius
from curveseq.cartier import alphabeta_weierstrass
from curveseq.exactnum import is_prime
from curveseq.frobenius import (
    SupersingularRow,
    asd_check,
    omega_coefficient,
    origin_expansion,
    point_count,
    supersingular_scan,
)
from curveseq.series import LaurentSeries, TruncatedSeries

# (1, 0) has j = 1728 and (0, 1), (0, -2) have j = 0: the expansion runs in
# t^4 and t^6 there, in t^2 on the generic curves
ROUTE_CURVES = [(0, 1), (2, 3), (-1, 5), (1, 0), (0, -2)]


def stride(a, b):
    """2g: the curve equation involves t only through t^(2g), so c_n = 0 unless n = 1 mod 2g."""
    return 6 if a == 0 else 4 if b == 0 else 2


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


def plus_constant(w: LaurentSeries, c) -> LaurentSeries:
    """w + c, the constant known as far as w is."""
    return w + LaurentSeries(0, TruncatedSeries([c], max(w.bound, 0), w.modulus))


def test_origin_expansion_invariants():
    e = origin_expansion(0, 1, 14)
    assert e.c(1) == 1
    assert e.x.offset == -2 and e.x.series.coeffs[0] == 1
    assert e.y.offset == -3 and e.y.series.coeffs[0] == -1
    # x, y have integer coefficients up to t^10 for (0, 1)
    assert all(c.denominator == 1 for c in e.x.series.coeffs[:13])
    # y = -x/t exactly: compare Laurent coefficients of -t y and x
    minus_t = LaurentSeries(1, TruncatedSeries([-1], e.y.series.precision))
    assert e.y * minus_t == e.x
    # y^2 = x^3 + 1
    lhs = e.y * e.y
    rhs = plus_constant(e.x * e.x * e.x, 1)
    assert lhs == rhs


def test_origin_expansion_random_curve_equation():
    rng = random.Random(17)
    for _ in range(4):
        a, b = rng.randint(-3, 3), rng.randint(1, 4)
        e = origin_expansion(a, b, 12)
        lhs = e.y * e.y
        rhs = plus_constant(e.x * e.x * e.x + a * e.x, b)
        assert lhs == rhs


@pytest.mark.parametrize("n_terms", [4, 5, 6, 7, 13, 15])
@pytest.mark.parametrize("a, b", ROUTE_CURVES)
def test_origin_expansion_odd_length(a, b, n_terms):
    # the expansion in r = t^(2g) spreads back to every length, odd ones
    # and those shorter than one stride included
    e = origin_expansion(a, b, n_terms)
    assert e.x.series.precision == n_terms
    assert e.omega.precision == n_terms - 1
    assert e.y * e.y == plus_constant(e.x * e.x * e.x + a * e.x, b)
    assert all(e.c(n) == 0 for n in range(2, n_terms, 2))
    assert all(e.c(n) == 0 for n in range(1, n_terms) if (n - 1) % stride(a, b))
    m = origin_expansion(a, b, n_terms, modulus=7**3)
    assert m.omega.precision == n_terms - 1
    assert [c % 7**3 for c in e.omega.coeffs] == m.omega.coeffs


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
    # without a limit both routes run at every supersingular prime
    assert all(r.expansion_agrees is True for r in rep.supersingular)
    assert rep.cm_pattern_ok


@pytest.mark.parametrize("a, b", [(0, 1), (2, 3)])  # (2, 3) is bad at 5 and 11
def test_supersingular_scan_keeps_invariants_of_every_good_prime(a, b):
    rep = supersingular_scan(a, b, 50, vp_limit=5)
    good = [p for p in range(5, 51) if is_prime(p) and (4 * a**3 + 27 * b**2) % p]
    assert list(rep.invariants) == good
    for p, inv in rep.invariants.items():
        assert inv.alpha == point_count(a, b, p).trace % p


def test_supersingular_vp_limit():
    # the limit bounds the expansion cross-check only; the formula runs everywhere
    rep = supersingular_scan(0, 1, 50, vp_limit=11)
    crossed = [r for r in rep.supersingular if r.expansion_agrees is not None]
    assert [r.p for r in crossed] == [5, 11]
    assert all(r.expansion_agrees for r in crossed)
    assert [r.p for r in rep.supersingular] == [5, 11, 17, 23, 29, 41, 47]
    assert all(r.vp_c_p2_is_1 for r in rep.supersingular)


def test_supersingular_verdict_needs_the_routes_to_agree():
    # c_25 = 5 (mod 25) has v_5 = 1, but an expansion that says 10 refutes it
    assert SupersingularRow(5, True, 5, None).vp_c_p2_is_1
    assert SupersingularRow(5, True, 5, 5).vp_c_p2_is_1
    row = SupersingularRow(5, True, 5, 10)
    assert row.formula_vp_is_1 and row.expansion_agrees is False
    assert not row.vp_c_p2_is_1
    assert not SupersingularRow(5, True, 0, 0).vp_c_p2_is_1


def test_benchmark_gate_fails_when_the_routes_disagree(monkeypatch, tmp_path):
    # the `modp` benchmark gate reads the row verdict, so a wrong route trips it
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    modp = importlib.import_module("workloads").Modp(seed=11, out_dir=tmp_path, supersingular_pmax=20)
    assert modp.gate_supersingular()
    honda = frobenius.omega_coefficient

    def doubled(a, b, n, p, r):
        # keeps v_p(c_(p^2)) = 1, so only the cross-check can notice
        return 2 * honda(a, b, n, p, r) % p**r

    monkeypatch.setattr(frobenius, "omega_coefficient", doubled)
    rep = supersingular_scan(0, 1, 20)
    assert [(r.formula_vp_is_1, r.expansion_agrees) for r in rep.supersingular] == [(True, False)] * 3
    assert not modp.gate_supersingular()


# Honda's formula c_n = [x^(n-1)] (x^3 + ax + b)^((n-1)/2) against the expansion

BIG_P, BIG_R = 1000003, 5  # p^r > 2 |c_n| for n <= 61 on ROUTE_CURVES


@pytest.mark.parametrize("a, b", ROUTE_CURVES)
def test_omega_coefficient_equals_expansion_over_q(a, b):
    e = origin_expansion(a, b, 63)
    mod = BIG_P**BIG_R
    for n in range(1, 62):
        c = e.c(n)
        assert c.denominator == 1 and 2 * abs(c) < mod
        if (n - 1) % stride(a, b):  # every even n among them
            assert c == 0 and omega_coefficient(a, b, n, BIG_P, BIG_R) == 0
        else:
            assert omega_coefficient(a, b, n, BIG_P, BIG_R) == c % mod, n


# (a, b, (p, r)): strides 2, 4 and 6, and a = b = 0, over Q (None) and over
# Z/p^r where p divides a or b
BOUNDARY_CASES = [
    (2, 3, None), (1, 0, None), (0, 1, None), (0, 0, None),
    (7, 3, (7, 2)), (2, 14, (7, 3)), (5, 0, (5, 3)), (0, 7, (7, 2)), (0, 0, (7, 2)),
]


@pytest.mark.parametrize("a, b, domain", BOUNDARY_CASES)
def test_expansion_is_honda_at_every_doubling_boundary(a, b, domain):
    # Newton doubles the length in r = t^(2g): the lengths stride 2^j - 1,
    # stride 2^j and stride 2^j + 1 end a step exactly, inside one, or one
    # coefficient into the next
    s = stride(a, b) if (a, b) != (0, 0) else 2
    lengths = [s * 2**j + d for j in range(1, 6) for d in (-1, 0, 1) if s * 2**j + d >= 4]
    p, r = domain or (BIG_P, BIG_R)  # over Q, c_n is compared mod BIG_P^BIG_R
    modulus = domain and p**r
    honda = [None] + [omega_coefficient(a, b, n, p, r) for n in range(1, max(lengths))]
    for n_terms in lengths:
        e = origin_expansion(a, b, n_terms, modulus)
        assert e.omega.precision == n_terms - 1 and e.x.series.precision == n_terms
        for n in range(1, n_terms):
            c = e.c(n)
            if modulus is None:
                assert c.denominator == 1
            assert honda[n] == c % p**r, (n_terms, n)


def test_expansion_is_honda_near_the_int64_guard():
    # mod p ~ 10^7 at 1000 coefficients in r, _convolve takes np.convolve
    # (1000 p^2 < 2^62) with no room for an operand >= p: every list the
    # expansion hands it must be reduced first
    p = 10**7 + 19
    e = origin_expansion(2, 3, 2001, modulus=p)
    assert all(omega_coefficient(2, 3, n, p, 1) == e.c(n) for n in range(1, 2001))


@pytest.mark.parametrize("a, b", ROUTE_CURVES)
def test_omega_coefficient_equals_c_p2_mod_p2(a, b):
    good = [p for p in range(5, 48) if is_prime(p) and (4 * a**3 + 27 * b**2) % p]
    assert len(good) >= 10
    for p in good:
        expanded = origin_expansion(a, b, p * p + 2, modulus=p * p).c(p * p)
        assert omega_coefficient(a, b, p * p, p, 2) == expanded, p


@pytest.mark.parametrize("a, b", ROUTE_CURVES)
def test_omega_coefficient_tracks_b(a, b):
    # c_7 = 3b: the formula on another b disagrees with this curve's expansion
    e = origin_expansion(a, b, 63)
    mod = BIG_P**BIG_R
    wrong = [n for n in range(1, 62, 2) if omega_coefficient(a, b + 1, n, BIG_P, BIG_R) != e.c(n) % mod]
    assert 7 in wrong
    p = 7  # a good prime of every route curve and of its b + 1 neighbour
    expanded = origin_expansion(a, b, p * p + 2, modulus=p * p).c(p * p)
    assert omega_coefficient(a, b + 1, p * p, p, 2) != expanded


@pytest.mark.parametrize("args", [(0, 1, 0, 5, 2), (0, 1, 7, 4, 2), (0, 1, 7, 5, 0)])
def test_omega_coefficient_domain(args):
    with pytest.raises(ValueError):
        omega_coefficient(*args)


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
            assert td.trace % p == inv.alpha, (a, b, p)
            tried += 1


def test_cm_alpha_beta_product_zero():
    for p in range(5, 200):
        if not is_prime(p) or p == 3:
            continue
        if 27 % p == 0:
            continue
        inv = alphabeta_weierstrass([1, 0, 0, 1], p)
        assert inv.alpha * inv.beta % p == 0
        assert inv.alpha != 0 or inv.beta != 0
        assert (inv.alpha == 0) == (p % 3 == 2)
