import random
from fractions import Fraction
from functools import partial

import pytest

from curveseq import cartier
from curveseq.cartier import (
    CartierInvariants,
    alphabeta_quartic,
    alphabeta_weierstrass,
    cartier_laurent,
    exactness_scan_bound,
    first_disagreement,
    half_pole_pairs,
    hasse_window,
    legendre_hasse,
    pole_bound_check,
    reduce_form,
    residue_check,
    x_shift_form,
)
from curveseq.curve import (
    Q_COEFFS,
    CurveForm,
    CurveFunction,
    Place,
    eta,
    expand_to_bound,
    fn_s,
    fn_y,
    infinity_place,
    omega,
    origin_place,
    q_polynomial,
    s_series,
    xi_form,
    xi_s,
)
from curveseq.exactnum import is_prime, reduce_fraction_mod, sqrt_mod
from curveseq.polyring import Polynomial, RationalFunction
from curveseq.recurrence import HYPERPLANE_FORM, Recurrence, extend_rational, form_value, main_sequence
from curveseq.series import LaurentSeries, TruncatedSeries


def power_series_image(g, p):
    """C(g dx) on F_p[[x]]: cartier_laurent on the power series g."""
    return cartier_laurent(LaurentSeries(0, g), p).series


def invariant_claims(inv):
    """C(omega) = alpha' omega and C(eta) = beta' omega, as first_disagreement claims."""
    w_omega = omega(inv.p)
    return [(w_omega, w_omega, inv.alpha), (eta(inv.p), w_omega, inv.beta)]


def refuted_forms(firsts):
    """The forms among omega and eta whose invariant claim is refuted."""
    return {name for name, f in zip(("omega", "eta"), firsts) if f is not None}


def test_cartier_series_fixed_point():
    g = TruncatedSeries([1] * 12, 12, 3)
    assert power_series_image(g, 3).coeffs == [1] * 4


def test_cartier_series_kills_derivative():
    # d(x^2) = 2x dx
    g = TruncatedSeries([0, 2, 0, 0, 0, 0], 6, 3)
    assert power_series_image(g, 3).is_zero()
    rng = random.Random(9)
    for p in (3, 5):
        h = TruncatedSeries([rng.randrange(p) for _ in range(30)], 30, p)
        dh = h.derivative().shift(0)
        assert power_series_image(TruncatedSeries(dh.coeffs, dh.precision, p), p).is_zero()


def test_cartier_series_precision():
    g = TruncatedSeries([1] * 13, 13, 7)
    assert power_series_image(g, 7).precision == 1
    g = TruncatedSeries([1] * 6, 6, 7)
    assert power_series_image(g, 7).precision == 0


def test_cartier_series_picks_main_sequence_blocks():
    # C(2 x^(-1) t omega) = sum c_{3n+1} x^n dx over F_3: check via the
    # series expansion of x^(-1) * s dx/x shifted into power-series range
    p = 3
    n = 61
    s = s_series(n, modulus=p)
    # x^{-1} s dx/x = sum c_n x^(n-2) dx; multiply by x^2: picks c_{pm+1} at x^(pm-1)...
    # directly: coefficients of x^(m p - 1) in sum c_n x^(n-2) are c_{mp+1}
    w = LaurentSeries(-2, s)
    img = cartier_laurent(w, p)
    cbar = [reduce_fraction_mod(v, p) for v in main_sequence(n)]
    for m in range(img.offset, img.bound):
        assert img.coefficient(m) == cbar[p * (m + 1) + 1]


def test_semilinearity_over_pth_powers():
    # C(h^p w dx) = h C(w dx) at the series level
    rng = random.Random(2)
    for p in (3, 7):
        n = 8 * p
        w = TruncatedSeries([rng.randrange(p) for _ in range(n)], n, p)
        h = Polynomial([rng.randrange(p) for _ in range(3)], p)
        hp = Polynomial([0] * 0 + [], p)
        # h(x)^p = h(x^p) coefficientwise over F_p
        hp_coeffs = [0] * (p * h.degree + 1)
        for q, c in enumerate(h.coeffs):
            hp_coeffs[p * q] = c
        hp_series = TruncatedSeries(hp_coeffs, n, p)
        lhs = power_series_image(hp_series * w, p)
        rhs = TruncatedSeries(h.coeffs, lhs.precision, p) * power_series_image(w, p)
        assert lhs == rhs.truncate(lhs.precision)


def test_exactness_xi_family():
    f = xi_form((0, 0, 0, 1), 7)
    [first] = first_disagreement([(f, None, 1)], 7)
    assert first is not None and first + 1 <= 8
    assert exactness_scan_bound(f) == 8
    f2 = xi_form((1, 2, 6, 3), 7)  # special vector mod 7
    assert first_disagreement([(f2, None, 1)], 7) == [None]


def test_exactness_omega_iff_supersingular():
    for p in (3, 7, 11, 17, 19, 23, 29):
        inv = alphabeta_quartic(p)
        assert (first_disagreement([(omega(p), None, 1)], p) == [None]) == (inv.alpha == 0)


def test_exactness_rejects_bad_primes():
    with pytest.raises(ValueError):
        first_disagreement([(omega(7), None, 1)], 5)
    with pytest.raises(ValueError):
        alphabeta_quartic(13)


def test_log_exactness_dz_over_z():
    for p in (3, 7, 11):
        half = pow(2, -1, p)
        for form in (CurveForm(xi_s(p).g * half), CurveForm(xi_s(p).g)):
            # scalar multiples stay logarithmically exact: a dz/z = d(z^a)/z^a
            assert first_disagreement([(form, form, 1)], p) == [None]
    # omega is not fixed by Cartier at p = 7 (C(omega) = 3 omega)
    assert first_disagreement([(omega(7), omega(7), 1)], 7) != [None]


def test_series_field_fixtures():
    # w dx is logarithmically exact in F_p((x)) when Cartier fixes every
    # known coefficient, and exact when it kills them
    ones = TruncatedSeries([1] * 40, 40, 5)
    img = power_series_image(ones, 5)
    assert img.coeffs == ones.coeffs[: img.precision]
    dx = TruncatedSeries([1] + [0] * 39, 40, 5)
    img = power_series_image(dx, 5)
    assert img.coeffs != dx.coeffs[: img.precision]
    assert img.is_zero()


def test_alphabeta_weierstrass_cm_examples():
    inv5 = alphabeta_weierstrass([1, 0, 0, 1], 5)
    assert (inv5.alpha, inv5.beta) == (0, 2)
    inv7 = alphabeta_weierstrass([1, 0, 0, 1], 7)
    assert (inv7.alpha, inv7.beta) == (3, 0)
    inv11 = alphabeta_weierstrass([1, 0, 0, 1], 11)
    assert inv11.alpha == 0 and inv11.beta != 0
    with pytest.raises(ValueError):
        alphabeta_weierstrass([0, 0, 0, 1], 3)  # p too small
    with pytest.raises(ValueError):
        alphabeta_weierstrass([0, 0, 0, 1], 7)  # singular: x^3


def test_alphabeta_quartic_values():
    inv3 = alphabeta_quartic(3)
    assert inv3.alpha == 1  # [x^2] Q = 1
    for p in (3, 7, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        inv = alphabeta_quartic(p)
        assert not inv.both_zero
        if p <= 31:
            assert first_disagreement(invariant_claims(inv), p) == [None, None], p


def test_quartic_alpha_is_trace_of_weierstrass_reduction():
    # alpha' = trace of Frobenius mod p, point-counted on the Weierstrass
    # model V^2 = U^3 - (49/3)U + 146/27 reduced mod p
    from curveseq.exactnum import is_prime
    from curveseq.frobenius import point_count

    for p in range(7, 51):
        if not is_prime(p) or p == 13:
            continue
        a = -49 * pow(3, -1, p) % p
        b = 146 * pow(27, -1, p) % p
        assert point_count(a, b, p).trace % p == alphabeta_quartic(p).alpha, p


def test_quartic_alpha_is_trace_of_the_integral_model_to_1050():
    # the route `cartier` decides its tabulation by: y^2 = x^3 + 81A x + 729B,
    # the integral model of V^2 = U^3 + AU + B, nonsingular at every good p >= 7
    from curveseq.curve import BAD_PRIMES, WEIERSTRASS_A, WEIERSTRASS_B
    from curveseq.exactnum import is_prime
    from curveseq.frobenius import point_count, singular_mod

    assert (81 * WEIERSTRASS_A, 729 * WEIERSTRASS_B) == (-1323, 3942)
    a, b = -1323, 3942
    good = [p for p in range(7, 1050) if is_prime(p) and p not in BAD_PRIMES]
    assert not any(singular_mod(a, b, p) for p in good)
    for p in good:
        assert point_count(a, b, p).trace % p == alphabeta_quartic(p).alpha, p


#: Cartier image coefficients the series reference route compares
SERIES_ROUTE_COEFFS = 60


def series_route_refutes(p, invariants):
    """For each (alpha, beta), the forms among omega and eta whose Cartier
    image differs from alpha omega, beta omega within its first 60
    coefficients: power_series_image on the first 61p + 1 coefficients of the
    (0, 2)-expansions, a fixed length and no pole budget."""
    n = p * (SERIES_ROUTE_COEFFS + 1) + 1
    expansions = expand_to_bound([omega(p), eta(p)], origin_place(+1, p), n)
    w_omega, w_eta = (TruncatedSeries([w.coefficient(k) for k in range(n)], n, p) for w in expansions)
    images = {"omega": power_series_image(w_omega, p), "eta": power_series_image(w_eta, p)}
    out = []
    for alpha, beta in invariants:
        refuted = set()
        for name, scalar in (("omega", alpha), ("eta", beta)):
            img = images[name]
            want = w_omega.truncate(img.precision).scale(scalar)
            if img.coeffs[:SERIES_ROUTE_COEFFS] != want.coeffs[:SERIES_ROUTE_COEFFS]:
                refuted.add(name)
        out.append(refuted)
    return out


def _invariant_mutants(inv):
    """The invariants with alpha' or beta' moved by +-1, each with the form
    on which the move must be caught."""
    p = inv.p
    for d in (1, -1):
        yield CartierInvariants(p, (inv.alpha + d) % p, inv.beta), "omega"
        yield CartierInvariants(p, inv.alpha, (inv.beta + d) % p), "eta"


def test_quartic_series_route_cross_check_to_50():
    # the budgeted check and the fixed-length series route reach the same
    # verdict, on the invariants and on every +-1 mutant of them
    for p in (37, 41, 43, 47):
        inv = alphabeta_quartic(p)
        cases = [inv] + [mutant for mutant, _ in _invariant_mutants(inv)]
        series = series_route_refutes(p, [(c.alpha, c.beta) for c in cases])
        firsts = first_disagreement([claim for c in cases for claim in invariant_claims(c)], p)
        budgeted = [refuted_forms(firsts[2 * i : 2 * i + 2]) for i in range(len(cases))]
        assert series == budgeted, p
        assert series[0] == set()


def test_invariant_mutants_are_caught_on_their_form():
    # one batched call decides the invariants and their mutants, each claim
    # exactly as a call of its own does
    for p in range(3, 100):
        if not is_prime(p) or p in (5, 13):
            continue
        inv = alphabeta_quartic(p)
        mutants = list(_invariant_mutants(inv))
        claims = [claim for c in [inv] + [m for m, _ in mutants] for claim in invariant_claims(c)]
        firsts = first_disagreement(claims, p)
        assert firsts == [f for claim in claims for f in first_disagreement([claim], p)], p
        assert firsts[:2] == [None, None], p
        for i, (mutant, form) in enumerate(mutants, start=1):
            assert refuted_forms(firsts[2 * i : 2 * i + 2]) == {form}, (p, mutant)


def test_quartic_sanity_coefficient_all_p():
    # [x^(2p-1)] (x^2+x) Q^((p-1)/2) = 0 is asserted inside for every call
    from curveseq.exactnum import is_prime

    for p in range(3, 101):
        if is_prime(p) and p not in (5, 13):
            alphabeta_quartic(p)


def hasse_power_route(p):
    """(alpha', beta') off all 2p - 1 coefficients of Q^((p-1)/2) mod p."""
    a = q_polynomial(p) ** ((p - 1) // 2)
    return a[p - 1], (a[p - 3] + a[p - 2]) % p


def test_alphabeta_quartic_matches_the_hasse_power():
    primes = [p for p in range(3, 1050) if is_prime(p) and p not in (5, 13)] + [10007]
    for p in primes:
        inv = alphabeta_quartic(p)
        assert (inv.alpha, inv.beta) == hasse_power_route(p), p
    inv = alphabeta_quartic(3)  # the window is read at 0, not at p - 4
    assert (inv.alpha, inv.beta) == (1, 1)


def _kernel_call(monkeypatch, f_coeffs):
    """The recurrence and start window hasse_window hands to window_mod."""
    seen = []
    real = cartier.window_mod
    with monkeypatch.context() as m:
        m.setattr(cartier, "window_mod", lambda spec, init, p, n: seen.append((spec, init)) or real(spec, init, p, n))
        hasse_window(f_coeffs, 7, 0)
    return seen[0]


def test_hasse_recurrence_solves_two_over_root_q(monkeypatch):
    spec, init = _kernel_call(monkeypatch, Q_COEFFS)
    assert init == (0, 0, 0, 1)
    n = 200
    q = TruncatedSeries([Fraction(c) for c in Q_COEFFS], n)
    h = q.inverse_sqrt(2).scale(2)
    assert extend_rational(spec, init, n + 3) == [0, 0, 0] + h.coeffs


def _hasse_mutants(spec, init):
    """The kernel's recurrence with one coefficient moved (absent shifts
    included), and its start window with one value moved."""
    shifts = dict(spec.shifts)
    for j in range(spec.order + 1):
        shifts.setdefault(j, (0, 0))
    for j, poly in shifts.items():
        for k in range(len(poly)):
            moved = {**shifts, j: poly[:k] + (poly[k] + 1,) + poly[k + 1:]}
            yield f"P_{j}[{k}]", Recurrence(tuple(moved.items())), init
    for i in range(len(init)):
        yield f"start[{i}]", spec, init[:i] + (init[i] + 1,) + init[i + 1:]


def _disagrees(invariants, reference, p):
    """The kernel's invariants at p differ from the power route's; a moved
    lead can vanish mod p inside the window, and a window the mutant cannot
    read is no mismatch."""
    try:
        inv = invariants(p)
    except (ValueError, ZeroDivisionError):
        return False
    return (inv.alpha, inv.beta) != reference(p)


def _assert_mutants_caught(monkeypatch, f_coeffs, invariants, reference, primes):
    real = cartier.window_mod
    for label, spec, init in _hasse_mutants(*_kernel_call(monkeypatch, f_coeffs)):
        monkeypatch.setattr(cartier, "window_mod", lambda _s, _i, p, n, spec=spec, init=init: real(spec, init, p, n))
        assert any(_disagrees(invariants, reference, p) for p in primes), label


def test_hasse_recurrence_mutants_are_caught(monkeypatch):
    primes = [p for p in range(3, 100) if is_prime(p) and p not in (5, 13)]
    _assert_mutants_caught(monkeypatch, Q_COEFFS, alphabeta_quartic, hasse_power_route, primes)


def weierstrass_power_route(f_coeffs, p):
    """(alpha, beta) off all coefficients of f^((p-1)/2) mod p."""
    a = Polynomial(f_coeffs, p) ** ((p - 1) // 2)
    return a[p - 1], a[p - 2]


def test_hasse_kernel_mutants_are_caught_on_a_weierstrass_curve(monkeypatch):
    # y^2 = x^3 + 1: the kernel reads F = 1 + x^3
    curve = [1, 0, 0, 1]
    primes = [p for p in range(5, 100) if is_prime(p)]
    _assert_mutants_caught(
        monkeypatch,
        curve[::-1],
        partial(alphabeta_weierstrass, curve),
        partial(weierstrass_power_route, curve),
        primes,
    )


def test_alphabeta_weierstrass_matches_the_power():
    # (a, b) = (2, 0) and (-1, 0) have b = 0 at every p, (3, 7 * 11) at 7 and
    # 11; the last two cubics carry an x^2 term
    curves = [[1, 0, 0, 1], [0, 2, 0, 1], [0, -1, 0, 1], [77, 3, 0, 1], [3, -2, 5, 1], [0, 1, 1, 1]]
    for c0, c1, c2, _ in curves:
        disc = 18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2 - 4 * c1**3 - 27 * c0**2
        for p in range(5, 1000):
            if not is_prime(p):
                continue
            f = [c0, c1, c2, 1]
            if disc % p == 0:
                with pytest.raises(ValueError):
                    alphabeta_weierstrass(f, p)
                continue
            inv = alphabeta_weierstrass(f, p)
            assert (inv.alpha, inv.beta) == weierstrass_power_route(f, p), (f, p)


def test_hasse_window_is_the_power_window():
    # any degree, F(0) a non-residue at some p, every window 0 <= n < p
    rng = random.Random(18)
    for p in (3, 7, 11, 23, 41):
        for d in (1, 2, 3, 5):
            f = [rng.randrange(1, p)] + [rng.randrange(-9, 10) for _ in range(d)]
            power = Polynomial(f, p) ** ((p - 1) // 2)
            a = [0] * (d - 1) + [power[k] for k in range(p)]
            for n in range(p):
                assert hasse_window(f, p, n) == tuple(a[n : n + d]), (f, p, n)


def test_hasse_window_domain():
    assert hasse_window(Q_COEFFS, 7, 0) == (0, 0, 0, 1)
    for p, n in ((7, 7), (7, -1)):
        with pytest.raises(ValueError):
            hasse_window(Q_COEFFS, p, n)
    with pytest.raises(ValueError):
        hasse_window([2, 1], 2, 0)  # p = 2
    with pytest.raises(ValueError):
        hasse_window([7, 1, 1], 7, 3)  # F(0) = 0 mod p


def test_legendre_hasse_identities():
    for p in (7, 11, 13):
        data = legendre_hasse(3, p)
        assert data.derivative_identity
        assert data.ode_identity
        assert data.h_m or data.h_m1
    with pytest.raises(ValueError):
        legendre_hasse(0, 7)
    with pytest.raises(ValueError):
        legendre_hasse(1, 7)


def test_h_table_is_its_definition():
    # H_i(lambda_0) is the x^i coefficient of (x-1)^m (x-lambda_0)^m =
    # (x^2 - (1+lambda_0) x + lambda_0)^m; deg H_i <= m < p, so the values
    # at every lambda_0 in F_p pin the table
    for p, lams in ((7, range(7)), (11, range(11)), (101, (2, 50, 100))):
        m = (p - 1) // 2
        h = cartier._h_polynomials(p)
        for lam0 in lams:
            power = Polynomial([lam0, -1 - lam0, 1], p) ** m
            assert [hi(lam0) for hi in h] == [power[i] for i in range(2 * m + 1)], (p, lam0)


def test_legendre_hasse_exhaustive_f13():
    for lam in range(2, 13):
        legendre_hasse(lam, 13)  # raises if (H_m, H_{m-1}) = (0, 0)


def is_nonzero(residue) -> bool:
    """A value of residue_check: an int, or the pair (a, b) of a + b sqrt 65."""
    return any(residue) if isinstance(residue, tuple) else bool(residue)


def test_residue_check_xi_family():
    res = residue_check(xi_form((0, 0, 0, 1), 7), 7)
    t_residues = [v for k, v in res.items() if k.startswith("t=0")]
    assert all(is_nonzero(v) for v in t_residues)  # R~'(-1/2) = -12 != 0
    res2 = residue_check(xi_form((1, 1, 0, 0), 11), 11)  # hyperplane: 1+1+0 != 0
    assert any(is_nonzero(v) for v in res2.values())
    res3 = residue_check(xi_form((1, 2, 6, 3), 7), 7)
    assert not any(is_nonzero(v) for v in res3.values())


def test_residue_at_split_half_pole_places():
    # 65 = 2 is a square mod 7: the places above x = -1/2 are F_7-rational and
    # their residues are elements of F_7
    res = residue_check(xi_form((0, 0, 0, 1), 7), 7)
    assert (res["t=0(+)"], res["t=0(-)"]) == (5, 2)
    assert type(res["t=0(+)"]) is int and type(res["t=0(-)"]) is int


def residue_fixtures(p):
    return [omega(p), eta(p), xi_s(p), xi_form((0, 0, 0, 1), p), xi_form((1, 2, 3, 4), p), x_shift_form(3, p)]


@pytest.mark.parametrize("p", [7, 11, 23, 101])
def test_every_residue_mod_p_is_a_residue_class(p):
    # an int in [0, p), or where 65 is no square mod p a pair of them above
    # x = -1/2: a zero residue there used to come back as the rational 0
    inert = sqrt_mod(65, p) is None
    for form in residue_fixtures(p):
        for name, value in residue_check(form, p).items():
            pair = inert and name.startswith("t=0")
            parts = value if pair else (value,)
            assert type(parts) is tuple and len(parts) == 1 + pair, (name, value)
            assert all(type(v) is int and 0 <= v < p for v in parts), (name, value)


@pytest.mark.parametrize("p", [7, 11, 17, 23, 101])
def test_xi_residues_above_minus_one_half_by_the_hyperplane_form(p):
    # an exact second route: at (-1/2, +-y0) the residue of xi_C is
    # -+HYPERPLANE_FORM(C)/(4 y0) = -+(H/65) sqrt 65, as y0 = sqrt(65)/4;
    # so res E = 0 and res F = -4 H/65.  Split primes (7, 101) read sqrt 65
    # in F_p, inert ones (11, 17, 23) give the pair (a, b) of a + b sqrt 65.
    rng = random.Random(p)
    root = sqrt_mod(65, p)
    for _ in range(6):
        c4 = tuple(rng.randrange(-50, 50) for _ in range(4))
        h = form_value(HYPERPLANE_FORM, c4)
        form = xi_form(c4, p)
        res = residue_check(form, p)
        for sign, name in ((+1, "t=0(+)"), (-1, "t=0(-)")):
            b = -sign * h * pow(65, -1, p) % p
            assert res[name] == ((0, b) if root is None else b * root % p), (c4, name)
        [(e, f)] = half_pole_pairs([form], p, 0)
        assert (e.residue(), f.residue()) == (0, -4 * h * pow(65, -1, p) % p), c4


#: pole_bound_check rows (v_form, v_image, bound), all ok, at (0, 2),
#: (0, -2), inf+, inf-, t=0(+), t=0(-) and the degree sum, and residue_check
#: values at t=0(+), t=0(-), inf+ and inf-, recorded from the F_p(sqrt 65)
#: arithmetic that computed them before the pairs did: a residue above
#: x = -1/2 as the pair (a, b) of a + b sqrt 65, with b = 0 where 65 is a
#: square mod p (7, 101).  That arithmetic returned a zero residue there as
#: the rational 0; it is pinned as (0, 0).
PINNED_POLE_ROWS_AND_RESIDUES = {
    ("omega", 7): (
        ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("omega", 11): (
        ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("omega", 23): (
        ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("omega", 101): (
        ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("eta", 7): (
        ((1, 0, 0), (1, 0, 0), (-2, 0, -1), (-2, 0, -1), (0, 0, 0), (0, 0, 0), (-4, 0, -4)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("eta", 11): (
        ((1, 0, 0), (1, 0, 0), (-2, 0, -1), (-2, 0, -1), (0, 0, 0), (0, 0, 0), (-4, 0, -4)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("eta", 23): (
        ((1, 0, 0), (1, 0, 0), (-2, 0, -1), (-2, 0, -1), (0, 0, 0), (0, 0, 0), (-4, 0, -4)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("eta", 101): (
        ((1, 0, 0), (1, 0, 0), (-2, 0, -1), (-2, 0, -1), (0, 0, 0), (0, 0, 0), (-4, 0, -4)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("xi_s", 7): (
        ((0, 0, 0), (0, 0, 0), (-1, -1, -1), (-1, -1, -1), (1, 1, 0), (1, 1, 0), (-2, -2, -2)),
        ((0, 0), (0, 0), 3, 4),
    ),
    ("xi_s", 11): (
        ((0, 0, 0), (0, 0, 0), (-1, -1, -1), (-1, -1, -1), (1, 1, 0), (1, 1, 0), (-2, -2, -2)),
        ((0, 0), (0, 0), 7, 4),
    ),
    ("xi_s", 23): (
        ((0, 0, 0), (0, 0, 0), (-1, -1, -1), (-1, -1, -1), (1, 1, 0), (1, 1, 0), (-2, -2, -2)),
        ((0, 0), (0, 0), 19, 4),
    ),
    ("xi_s", 101): (
        ((0, 0, 0), (0, 0, 0), (-1, -1, -1), (-1, -1, -1), (1, 1, 0), (1, 1, 0), (-2, -2, -2)),
        ((0, 0), (0, 0), 97, 4),
    ),
    ("xi_0001", 7): (
        ((2, 0, 0), (2, 0, 0), (0, 1, 0), (0, 1, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((5, 0), (2, 0), 0, 0),
    ),
    ("xi_0001", 11): (
        ((2, 0, 0), (2, 0, 0), (0, 0, 0), (0, 0, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((0, 6), (0, 5), 0, 0),
    ),
    ("xi_0001", 23): (
        ((2, 0, 0), (2, 0, 0), (0, 0, 0), (0, 0, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((0, 13), (0, 10), 0, 0),
    ),
    ("xi_0001", 101): (
        ((2, 0, 0), (2, 0, 0), (0, 0, 0), (0, 0, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((91, 0), (10, 0), 0, 0),
    ),
    ("xi_1234", 7): (
        ((1, 1, 0), (1, 1, 0), (0, 0, 0), (0, 0, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((5, 0), (2, 0), 0, 0),
    ),
    ("xi_1234", 11): (
        ((1, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((0, 5), (0, 6), 0, 0),
    ),
    ("xi_1234", 23): (
        ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((0, 1), (0, 22), 0, 0),
    ),
    ("xi_1234", 101): (
        ((1, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0), (-2, -1, -1), (-2, -1, -1), (-4, -2, -4)),
        ((56, 0), (45, 0), 0, 0),
    ),
    ("x_shift_3", 7): (
        ((-3, -1, -1), (-3, -1, -1), (2, 0, 0), (2, 0, 0), (1, 0, 0), (1, 0, 0), (-6, -2, -6)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("x_shift_3", 11): (
        ((-3, -1, -1), (-3, -1, -1), (2, 0, 0), (2, 0, 0), (1, 0, 0), (1, 0, 0), (-6, -2, -6)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("x_shift_3", 23): (
        ((-3, -1, -1), (-3, -1, -1), (2, 0, 0), (2, 0, 0), (1, 0, 0), (1, 0, 0), (-6, -2, -6)),
        ((0, 0), (0, 0), 0, 0),
    ),
    ("x_shift_3", 101): (
        ((-3, -1, -1), (-3, -1, -1), (2, 0, 0), (2, 0, 0), (1, 0, 0), (1, 0, 0), (-6, -2, -6)),
        ((0, 0), (0, 0), 0, 0),
    ),
}


@pytest.mark.parametrize("p", [7, 11, 23, 101])
def test_pole_bounds_and_residues_are_pinned(p):
    names = ("omega", "eta", "xi_s", "xi_0001", "xi_1234", "x_shift_3")
    root = sqrt_mod(65, p)
    for name, form in zip(names, residue_fixtures(p)):
        rows, residues = PINNED_POLE_ROWS_AND_RESIDUES[(name, p)]
        got = pole_bound_check(form, p)
        assert [r.place for r in got] == ["(0,2)", "(0,-2)", "inf+", "inf-", "t=0(+)", "t=0(-)", "degree-sum"]
        assert all(r.ok for r in got) and [(r.v_form, r.v_image, r.bound) for r in got] == list(rows), name
        halves = [a if root is not None and b == 0 else (a, b) for a, b in residues[:2]]
        assert list(residue_check(form, p).values()) == halves + list(residues[2:]), name


def test_residue_xi_s_at_infinity_mod_p():
    for p in (7, 11):
        res = residue_check(CurveForm(xi_s(p).g), p)
        assert res["inf+"] == (-4) % p
        assert res["inf-"] == 4 % p


def test_pole_bounds_xi():
    rows = pole_bound_check(xi_form((0, 0, 0, 1), 7), 7)
    assert all(r.ok for r in rows)
    t_rows = [r for r in rows if r.place.startswith("t=0")]
    assert all(r.v_form == -2 for r in t_rows)


def test_pole_bounds_omega_regular():
    rows = pole_bound_check(omega(7), 7)
    for r in rows:
        assert r.ok
        if r.place != "degree-sum":
            assert (r.v_form or 0) >= 0 and (r.v_image is None or r.v_image >= 0)


def test_pole_bound_image_decided_through_the_budget():
    # expanded through the B + 4 budget, the image at (0, +-2) is decided:
    # a fixed working precision used to leave it unknown (None) at p = 37
    rows = pole_bound_check(xi_form((1, 2, 3, 4), 37), 37)
    origin_rows = [r for r in rows if r.place in ("(0,2)", "(0,-2)")]
    assert len(origin_rows) == 2
    assert all(r.v_image == 1 and r.ok for r in origin_rows)


def test_every_expansion_lands_on_the_requested_bound():
    # offsets are read off exact valuations, so every expansion is known
    # exactly below the bound asked for: alone or among other items, at a
    # pole, a zero or a regular point, and for a bound below the valuation
    # (above x = -1/2, at the inert p = 11, both halves of every pair)
    p = 11
    items = [omega(p), eta(p), xi_form((1, 2, 3, 4), p), x_shift_form(3, p), fn_s(p), fn_y(p)]
    expanders = [
        lambda items, bound, place=place: expand_to_bound(items, place, bound)
        for place in (origin_place(-1, p), infinity_place(+1, p))
    ]
    expanders.append(lambda items, bound: [w for pair in half_pole_pairs(items, p, bound) for w in pair])
    for expand in expanders:
        for bound in (-5, 0, 1, 45, 3 * p):
            for item in items:
                assert {w.bound for w in expand([item], bound)} == {bound}
            assert {w.bound for w in expand(items, bound)} == {bound}


def test_expansion_refuses_a_form_over_another_domain():
    # one domain guard, in expand_to_bound: a form over Q or over another
    # prime is refused by every caller, not expanded and reported ok
    p = 7
    checks = (
        lambda form, p: first_disagreement([(form, None, 1)], p),  # exactness
        lambda form, p: first_disagreement([(form, form, 1)], p),  # log-exactness
        residue_check,
        pole_bound_check,
    )
    for form in (xi_form((1, 2, 3, 4), 11), xi_form((1, 2, 3, 4))):
        for check in checks:
            with pytest.raises(ValueError, match="must live over the scalar domain"):
                check(form, p)


@pytest.mark.parametrize("p", [7, 11, 23])
def test_cartier_is_semilinear_over_the_half_pole_field(p):
    # C(y^p w) = y C(w) above x = -1/2, on the pairs E + y0 F: C takes a pair
    # to (C(E), eps C(F)), eps = (65/16)^((p-1)/2), as the p-th root of y0
    # is y0^p = eps y0 -- the identity where 65 is a square mod p (7) and the
    # conjugation where it is not (11, 23).  w has both halves nonzero.
    w = CurveForm(xi_form((1, 2, 3, 4), p).g + fn_s(p))
    y_to_p = CurveFunction.y_multiple(q_polynomial(p) ** ((p - 1) // 2), p)  # y^p = Q^((p-1)/2) y
    (e, f), (e_p, f_p), (_, f_y) = half_pole_pairs([w, CurveForm(w.g * y_to_p), fn_y(p)], p, 6 * p)
    eps = pow(65 * pow(16, -1, p), (p - 1) // 2, p)
    assert eps == (1 if p == 7 else p - 1)
    lhs = cartier_laurent(e_p, p), cartier_laurent(f_p, p) * eps
    # y = y0 F_y times C(E) + y0 eps C(F) is (65/16) F_y eps C(F) + y0 F_y C(E)
    rhs = f_y * cartier_laurent(f, p) * (eps * Fraction(65, 16)), f_y * cartier_laurent(e, p)
    for a, b in zip(lhs, rhs):
        known = range(min(a.offset, b.offset), 6)
        assert a.bound == b.bound == 6 and any(a.coefficient(k) for k in known)
        assert [a.coefficient(k) for k in known] == [b.coefficient(k) for k in known]


def test_pole_bound_v_minus_p():
    # pole of order exactly p: C has at most a simple pole
    p = 7
    form = CurveForm(
        CurveFunction.rational(
            RationalFunction(Polynomial([1], p), Polynomial([0] * p + [1], p)), p
        )
    )
    rows = pole_bound_check(form, p)
    origin_rows = [r for r in rows if r.place.startswith("(0,")]
    for r in origin_rows:
        assert r.v_form == -p and r.bound == -1 and r.ok
        assert r.v_image is None or r.v_image >= -1


def test_exactness_with_pole_at_expansion_place():
    # x^-3 omega has a nonzero residue at the origin (coefficient of x^-1 is
    # [x^2] 1/y = -1/16): the obstruction sits at a non-positive exponent and
    # must be scanned even though the form has a pole at the expansion place
    for p in (7, 11):
        g = RationalFunction(Polynomial([1], p), Polynomial([0, 0, 0, 1], p))
        [first] = first_disagreement([(CurveForm(CurveFunction.rational(g, p)), None, 1)], p)
        assert first is not None and first + 1 == 0


def test_example_modp_witness_form():
    # d(y/x^3 + 3y/x^2) = -2(x^3+x^2+6) x^-4 t omega is exact: C = 0
    p = 7
    g = RationalFunction(
        Polynomial([-2], p) * Polynomial([6, 0, 1, 1], p) * Polynomial([1, 2], p),
        Polynomial([0, 0, 0, 0, 1], p),
    )
    form = CurveForm(CurveFunction.rational(g, p))
    assert first_disagreement([(form, None, 1)], p) == [None]


def test_intro_congruence_families():
    c = main_sequence(1010)
    for p in (7, 11):
        for k in range(0, 1000 // p - 1):
            lhs = (
                6 * reduce_fraction_mod(c[k * p + 4], p)
                + reduce_fraction_mod(c[k * p + 2], p)
                + reduce_fraction_mod(c[k * p + 1], p)
            ) % p
            assert lhs == 0, (p, k)
        for k in range(1, 1000 // p + 1):
            lhs = (
                reduce_fraction_mod(c[k * p - 1], p)
                + reduce_fraction_mod(c[k * p - 2], p)
            ) % p
            assert lhs == 0, (p, k)


def test_minus_family_offsets_are_minus1_minus2():
    """The offsets (kp-2, kp-3) fail already at (k, p) = (1, 7):
    c_5 + c_4 = -141/128 = 3 mod 7.  The exact witness d(2y) = 2t(x^2+x) omega
    yields the true family at offsets (kp-1, kp-2)."""
    c = main_sequence(10)
    val = (reduce_fraction_mod(c[5], 7) + reduce_fraction_mod(c[4], 7)) % 7
    assert val == 3 != 0


def test_no_stronger_periodicity():
    # c_(kp+i) = c_i mod p fails for i = 1, 2, 4 at p = 7 with k <= 10
    p = 7
    c = main_sequence(11 * p + 5)
    for i in (1, 2, 4):
        failing = [
            k
            for k in range(1, 11)
            if reduce_fraction_mod(c[k * p + i], p) != reduce_fraction_mod(c[i], p)
        ]
        assert failing, f"no failing k for i={i}"
    # structural reason: C(2 x^-i t omega) is regular at x = 1 while
    # c_i dx/(1-x) has a pole there; check regularity of the image
    for i in (1, 2, 4):
        form = x_shift_form(i, p)
        [w] = expand_to_bound([form], origin_place(+1, p), 16 * p)
        img = cartier_laurent(w, p)
        # image = sum c_{pn+i} x^(n-1) dx: a rational function regular at 1;
        # its first coefficients match the sequence directly
        cbar = [reduce_fraction_mod(v, p) for v in c]
        for m in range(img.offset, min(img.bound, 8)):
            assert img.coefficient(m) == cbar[p * (m + 1) + i]


def test_exactness_scan_bound_values():
    assert exactness_scan_bound(xi_form((0, 0, 0, 1), 7)) == 8
    assert exactness_scan_bound(omega(7)) == 4


def test_half_pole_chart_is_the_root_of_q_above_minus_one_half():
    # Q(-1/2 + w) = 65/16 - w^2/2 + w^4, and y = +-y0 F with y0^2 = 65/16 and
    # F = sqrt(16 Q(-1/2 + w)/65), F(0) = 1, whether or not 65 is a square
    # mod p (7: it is; 11: it is not)
    n = 12
    for p in (7, 11):
        [(e, f)] = half_pole_pairs([fn_y(p)], p, n)
        g = TruncatedSeries([Fraction(65, 16), 0, Fraction(-1, 2), 0, 1], n, p).scale(Fraction(16, 65))
        assert e.is_zero() and e.bound == n
        assert (f.offset, f.series) == (0, g * g.inverse_sqrt(1))
        # a Place holds y0 in its own domain: F_7 has sqrt 65, F_11 none
        chart = Polynomial([Fraction(-1, 2), 1], p), Polynomial([1], p)
        roots = [y0 for y0 in range(p) if (16 * y0 * y0 - 65) % p == 0]
        assert len(roots) == (2 if p == 7 else 0)
        for y0 in range(p):
            if y0 in roots:
                [y] = expand_to_bound([fn_y(p)], Place("t=0", *chart, y0), n)
                assert y == LaurentSeries(0, f.series * y0)
            else:
                with pytest.raises(ValueError):
                    Place("t=0", *chart, y0)


def test_infinity_chart_is_the_reversed_quartic():
    # y = sign u^-2 sqrt(1 + 2u + u^2 + 4u^4) at inf+-, u = 1/x
    for modulus in (None, 7, 11):
        for n in (1, 2, 5, 40):
            inner = TruncatedSeries([1, 2, 1, 0, 4], n, modulus)
            for sign in (+1, -1):
                place = infinity_place(sign, modulus)
                assert place.name == ("inf+" if sign > 0 else "inf-")
                [y] = expand_to_bound([fn_y(modulus)], place, n - 2)
                assert (y.offset, y.series) == (-2, inner * inner.inverse_sqrt(sign))


def test_place_omega_is_dx_over_y():
    # omega, a product with the chart's one Newton series, against the
    # division route x'(w)/y: the same coefficients below the bound; at
    # (0, +-2) and inf+- over Q, Z/7 and Z/101 (n = 60 > _NUMPY_CUTOFF), and
    # above x = -1/2 where sqrt 65 lies in F_p (7, 29); test_curve checks
    # y omega = x' on the pairs there, over Q and at the inert 11 too
    places = [
        make(sign, modulus)
        for make in (origin_place, infinity_place)
        for sign in (+1, -1)
        for modulus in (None, 7, 101)
    ]
    for p in (7, 29):
        chart, y0 = (Polynomial([Fraction(-1, 2), 1], p), Polynomial([1], p)), sqrt_mod(65, p) * pow(4, -1, p)
        places += [Place("t=0", *chart, sign * y0 % p) for sign in (+1, -1)]
    for place in places:
        m = place.a.modulus
        x_fn = CurveFunction.rational(Polynomial([0, 1], m), m)
        for n in (3, 60):
            x, y, w = expand_to_bound([x_fn, fn_y(m), omega(m)], place, n)
            yn = y.normalized()
            ref = x.derivative() * LaurentSeries(-yn.offset, yn.series.inverse())
            assert w.bound == n and ref.bound >= n - 1
            known = range(min(w.offset, ref.offset), min(n, ref.bound))
            assert [w.coefficient(e) for e in known] == [ref.coefficient(e) for e in known], place.name
