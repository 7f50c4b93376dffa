"""The Cartier operator on series and on the reduced curve mod p.

On a series field F_p((x)) the operator sends (sum u_n x^n) dx to
(sum over n = -1 mod p of u_n^(1/p) x^((n+1)/p - 1)) dx; the p-th root is
the identity on F_p and, on F_p(sqrt 65), the conjugation when 65 is a
non-residue.  A form is exact iff its image vanishes (C1) and
logarithmically exact iff it is fixed (C2).  Both properties are decided
here through finitely many expansion coefficients, the number of which is
controlled by the pole divisor of the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curve import (
    BAD_PRIMES,
    Q_COEFFS,
    CurveForm,
    CurveFunction,
    Place,
    expand_to_bound,
    infinity_place,
    origin_place,
)
from .exactnum import QuadExt, require_prime, sqrt_mod
from .polyring import Polynomial, RationalFunction
from .recurrence import operator_recurrence, window_mod
from .series import LaurentSeries, TruncatedSeries, _domain_inverse


def cartier_laurent(w: LaurentSeries, p: int) -> LaurentSeries:
    """C(w(t) dt): the same coefficient picking on a Laurent expansion, with
    the p-th root of each picked coefficient.  That root is the identity on
    F_p; on F_p(sqrt d) it is a + b sqrt d -> a + b d^((p-1)/2) sqrt d, the
    conjugation when d is a non-residue."""
    f_min = -((-(w.offset + 1)) // p) - 1  # smallest f with p(f+1)-1 >= offset
    # exclusive bound: p(f+1)-1 < w.bound
    coeffs = [_pth_root(w.coefficient(p * (f + 1) - 1), p) for f in range(f_min, w.bound // p)]
    return LaurentSeries(f_min, TruncatedSeries(coeffs, len(coeffs), w.modulus))


def _pth_root(c, p: int):
    if isinstance(c, QuadExt):
        return QuadExt(c.a, c.b * pow(c.d, (p - 1) // 2, p), p, c.d)
    return c


def require_good_prime(p: int) -> int:
    require_prime(p)
    if p in BAD_PRIMES:
        raise ValueError(f"p = {p} is a prime of bad reduction")
    return p


def pole_degree_bound(form: CurveForm) -> int:
    """Upper bound for -sum of the negative orders of the form (= of g, since
    omega is everywhere regular and every place above a finite x is at most
    double)."""
    u, v = form.g.u, form.g.v
    finite = 2 * max(u.den.degree, 0) + 2 * max(v.den.degree, 0)
    inf_u = u.num.degree - u.den.degree if not u.is_zero() else -1
    inf_v = v.num.degree - v.den.degree + 2 if not v.is_zero() else -1
    infinite = 2 * max(0, inf_u, inf_v)
    return finite + infinite


def exactness_scan_bound(form: CurveForm) -> int:
    """Blocks to scan: pole degree + (2g - 2) + deg x + N_x = poles + 4."""
    return pole_degree_bound(form) + 4


def first_disagreement(claims: Sequence[tuple[CurveForm, CurveForm | None, int]], p: int) -> list[int | None]:
    """For each claim (form, target, scalar), C(form) = scalar * target on
    the reduced curve (target None: the zero form), the first exponent at
    which the two sides differ at (0, 2), or None when the claim holds.
    Exactness (C1) is the claim (form, None, 1), logarithmic exactness (C2)
    the claim (form, form, 1).

    (C(form) - scalar * target)/omega is a function with at most
    B(form) + B(target) + 4 poles, B = pole_degree_bound.  If its expansion
    vanishes on every exponent from its valuation floor through that budget,
    it has more zeros than poles, so it is zero.  Every form and target is
    expanded once, on one place, far enough for the largest budget: C(w)
    through f needs w below p(f + 1).
    """
    require_good_prime(p)
    forms = list({id(f): f for claim in claims for f in claim[:2] if f is not None}.values())
    budgets = [
        exactness_scan_bound(form) + (0 if target is None else pole_degree_bound(target))
        for form, target, _ in claims
    ]
    expansions = expand_to_bound(forms, origin_place(+1, p), p * (max(budgets) + 1))
    w = {id(f): e for f, e in zip(forms, expansions)}
    out = []
    for (form, target, scalar), budget in zip(claims, budgets):
        c = cartier_laurent(w[id(form)], p)
        t = None if target is None else w[id(target)]
        first = None
        for e in range(min(c.offset, 0 if t is None else t.offset, 0), budget + 1):
            if c.coefficient(e) != (0 if t is None else scalar * t.coefficient(e) % p):
                first = e
                break
        out.append(first)
    return out


# -- alpha / beta invariants ---------------------------------------------------


@dataclass(frozen=True)
class CartierInvariants:
    """C(omega) = alpha * omega and C(eta) = beta * omega on the reduced curve;
    alpha and beta are residues in [0, p)."""

    p: int
    alpha: int
    beta: int

    @property
    def both_zero(self) -> bool:
        return not self.alpha and not self.beta


def hasse_window(f_coeffs: Sequence[int], p: int, n: int) -> tuple[int, ...]:
    """(a_(n-d+1), ..., a_n) mod p for a_k = [x^k] F^((p-1)/2), where F has
    the integer coefficients ``f_coeffs`` (degree d, F(0) a unit mod p) and
    0 <= n < p; a_k = 0 for k < 0.

    Below x^p, F^((p-1)/2) = F(0)^((p-1)/2) h with h = (F/F(0))^(-1/2), since
    (F/F(0))^(p/2) = (F(x^p)/F(0))^(1/2) = 1 + O(x^p) mod p.  h solves
    2F h' + F' h = 0, whose recurrence in g_m = h_(m+1-d) (operator_recurrence)
    gives shift d - j the polynomial f_j (2n + 2 - j); the lead 2 f_0 (k + 1)
    is a unit for k < p - 1.  One window_mod call reads the window from
    h_0 = 1 preceded by d - 1 zeros.
    """
    require_prime(p)
    if p == 2 or f_coeffs[0] % p == 0:
        raise ValueError(f"need p odd and F(0) a unit mod p (p = {p})")
    if not 0 <= n < p:
        raise ValueError(f"window index {n} outside [0, {p})")
    d = len(f_coeffs) - 1
    spec = operator_recurrence([2 * f for f in f_coeffs], [j * f for j, f in enumerate(f_coeffs)][1:], 1 - d)
    h = window_mod(spec, (0,) * (d - 1) + (1,), p, n)
    scale = pow(f_coeffs[0], (p - 1) // 2, p)
    return tuple(v * scale % p for v in h)


def alphabeta_weierstrass(f_coeffs, p: int) -> CartierInvariants:
    """Invariants for y^2 = f(x), f a monic cubic nonsingular mod p:
    alpha = [x^(p-1)] f^((p-1)/2) (the Hasse invariant),
    beta  = [x^(p-2)] f^((p-1)/2) (from eta = x omega).

    With F = x^3 f(1/x) (F(0) = 1), [x^k] f^m = [x^(3m-k)] F^m for
    m = (p-1)/2, so alpha and beta are the coefficients of x^m and x^(m+1)
    of F^m: the last two of its Hasse window at m + 1.
    """
    require_prime(p)
    if p < 5:
        raise ValueError("p >= 5 required for a cubic Weierstrass model")
    coeffs = [c % p for c in f_coeffs]
    if len(coeffs) != 4 or coeffs[3] != 1:
        raise ValueError("need a monic cubic")
    fpoly = Polynomial(coeffs, p)
    if fpoly.gcd(fpoly.derivative()).degree != 0:
        raise ValueError("singular reduction: f has a repeated root mod p")
    _, alpha, beta = hasse_window(coeffs[::-1], p, (p + 1) // 2)
    return CartierInvariants(p, alpha, beta)


def alphabeta_quartic(p: int) -> CartierInvariants:
    """Invariants of the fixed quartic curve y^2 = Q(x):
    alpha' = [x^(p-1)] Q^((p-1)/2), beta' = [x^(p-1)] (x^2+x) Q^((p-1)/2).

    With a_k the coefficients of Q^((p-1)/2), [x^k] (x^2+x) Q^((p-1)/2) =
    a_(k-2) + a_(k-1), so both come off the Hasse window of Q at p - 1.  The
    coefficient of x^(2p-1) in (x^2+x) Q^((p-1)/2) must vanish (it is the
    regularity of C(eta) at infinity) and is asserted; it is
    a_(2p-3) + a_(2p-2) = m q_3 q_4^(m-1) + q_4^m, m = (p-1)/2, read from
    Q_COEFFS in closed form, so the check trips if Q's shape changes.
    """
    require_good_prime(p)
    a = hasse_window(Q_COEFFS, p, p - 1)  # a_(p-4), ..., a_(p-1)
    m, q3, q4 = (p - 1) // 2, Q_COEFFS[3], Q_COEFFS[4]
    sanity = (m * q3 * pow(q4, m - 1, p) + pow(q4, m, p)) % p
    if sanity != 0:
        raise AssertionError(f"[x^(2p-1)] (x^2+x) Q^((p-1)/2) = {sanity} != 0 at p = {p}")
    return CartierInvariants(p, a[3], (a[1] + a[2]) % p)


# -- Legendre-form Hasse identities ------------------------------------------------


@dataclass(frozen=True)
class LegendreHasseData:
    """H_m and H_(m-1) at lambda_0 (residues in [0, p)) and the two identities."""

    p: int
    lam0: int
    m: int
    h_m: int
    h_m1: int
    derivative_identity: bool
    ode_identity: bool


def _h_polynomials(p: int) -> list[Polynomial]:
    """H_i(lambda) from (x-1)^m (x-lambda)^m = sum_i H_i(lambda) x^i.

    (x-lambda)^m puts C(m, e) (-lambda)^e at x^(m-e), so the lambda^e
    coefficient of H_i is a_(i-m+e) C(m, e) (-1)^e, a_k that of x^k in (x-1)^m.
    """
    m = (p - 1) // 2
    a = [math.comb(m, k) * (-1) ** (m - k) % p for k in range(m + 1)]
    c = [math.comb(m, e) * (-1) ** e % p for e in range(m + 1)]
    return [
        Polynomial([a[i - m + e] * c[e] if 0 <= i - m + e <= m else 0 for e in range(m + 1)], p)
        for i in range(2 * m + 1)
    ]


def legendre_hasse(lam0: int, p: int) -> LegendreHasseData:
    """H_m, H_{m-1} at lambda_0 plus the two exact polynomial identities:
    K_i' = -(m+1) H_i and the hypergeometric equation for
    F(z) = sum_k C(m,k) C(m+1,k) z^k."""
    require_prime(p)
    if p < 5:
        raise ValueError("p >= 5 required")
    lam0 %= p
    if lam0 in (0, 1):
        raise ValueError("lambda_0 must avoid 0 and 1")
    m = (p - 1) // 2
    h = _h_polynomials(p)
    lam = Polynomial([0, 1], p)

    deriv_ok = True
    for i in range(2 * m + 1):
        h_prev = h[i - 1] if i >= 1 else Polynomial([], p)
        k_i = h_prev - lam * h[i]
        if k_i.derivative() != h[i] * (-(m + 1) % p):
            deriv_ok = False
            break

    f_poly = Polynomial([math.comb(m, k) * math.comb(m + 1, k) % p for k in range(m + 1)], p)
    z = Polynomial([0, 1], p)
    ode = (
        z * (1 - z) * f_poly.derivative().derivative()
        + (1 + 2 * m * z) * f_poly.derivative()
        - m * (m + 1) * f_poly
    )
    ode_ok = ode.is_zero()

    h_m, h_m1 = h[m](lam0), h[m - 1](lam0)
    if not h_m and not h_m1:
        raise AssertionError(f"H_m and H_(m-1) both vanish at lambda_0 = {lam0}, p = {p}")
    return LegendreHasseData(p, lam0, m, h_m, h_m1, deriv_ok, ode_ok)


# -- residues and pole bounds ------------------------------------------------------


def half_pole_place(p: int, sign: int) -> Place:
    """A place above x = -1/2 on the reduced curve (where t = 1 + 2x vanishes);
    defined over F_p(sqrt(65)), which may be F_p or the quadratic extension."""
    require_good_prime(p)
    # y0 = sign sqrt(65)/4; it has b = 0 when 65 is a square mod p
    inv4 = _domain_inverse(4, p)
    root65 = sqrt_mod(65 % p, p)
    if root65 is not None:
        y0 = QuadExt(sign * root65 * inv4, 0, p, 65)
    else:
        y0 = QuadExt(0, sign * inv4, p, 65)
    return Place(f"t=0({'+' if sign > 0 else '-'})", Polynomial([Fraction(-1, 2), 1], p), Polynomial([1], p), y0)


def residue_check(form: CurveForm, p: int) -> dict[str, object]:
    """Residues of the reduced form at the places above x = -1/2 and at both
    points at infinity."""
    require_good_prime(p)
    out = {}
    for place in (half_pole_place(p, +1), half_pole_place(p, -1), infinity_place(+1, p), infinity_place(-1, p)):
        [w] = expand_to_bound([form], place, 0)
        out[place.name] = w.residue()
    return out


@dataclass(frozen=True)
class PoleBoundRow:
    place: str
    v_form: int | None
    v_image: int | None
    bound: int | None
    ok: bool


def pole_bound_check(form: CurveForm, p: int) -> list[PoleBoundRow]:
    """v(C(form)) >= ceil((v(form)+1)/p) - 1 at the inspected places, plus the
    degree comparison sum_{v<0} v(C(form)) >= sum_{v<0} v(form) over them.

    Inspected places: (0, +-2), inf+-, and the two places above x = -1/2;
    fixtures are chosen with all their poles among these.  C(form)/omega has
    at most B + 4 poles (exactness_scan_bound), so each image is expanded
    through that exponent: ``v_image`` is None exactly when the image
    vanishes there, and then the image is zero.
    """
    require_good_prime(p)
    budget = exactness_scan_bound(form)
    rows = []
    places = [make(sign, p) for make in (origin_place, infinity_place) for sign in (+1, -1)]
    for place in places + [half_pole_place(p, +1), half_pole_place(p, -1)]:
        [w] = expand_to_bound([form], place, p * (budget + 1))
        v = w.valuation()
        vc = cartier_laurent(w, p).valuation()
        if v is None:
            rows.append(PoleBoundRow(place.name, None, vc, None, vc is None or vc >= 0))
            continue
        bound = -((-(v + 1)) // p) - 1  # ceil((v+1)/p) - 1
        ok = vc is None or vc >= bound
        rows.append(PoleBoundRow(place.name, v, vc, bound, ok))
    neg_form = sum(r.v_form for r in rows if r.v_form is not None and r.v_form < 0)
    neg_image = sum(r.v_image for r in rows if r.v_image is not None and r.v_image < 0)
    degree_ok = neg_image >= neg_form
    rows.append(PoleBoundRow("degree-sum", neg_form, neg_image, neg_form, degree_ok))
    return rows


def reduce_form(form: CurveForm, p: int) -> CurveForm:
    """Reduction of a rational form mod p."""
    return CurveForm(
        CurveFunction(form.g.u.reduce_mod(p), form.g.v.reduce_mod(p))
    )


def x_shift_form(i: int, p: int) -> CurveForm:
    """2 x^(-i) t omega, whose Cartier image has coefficients c_{pn+i}."""
    t = Polynomial([2, 4], p)
    den = Polynomial([0] * i + [1], p)
    return CurveForm(CurveFunction.rational(RationalFunction(t, den), p))
