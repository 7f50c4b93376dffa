"""Exact algebra on the genus-1 function field of y^2 = Q(x), Q = 4 + (x+x^2)^2.

Functions are represented as u + v*y with rational-function components, so
the identities behind the main theorems are checked exactly, not to finite
precision.  Series enter only through expansions at places of the curve:
the rational points above x = 0, the two points at infinity, and the two
places above the zero of 1 + 2x.  Each chart x = a(w)/b(w) serves both
places above x(0), y = +-y0 + ..., and an expansion there is a pair (E, F)
over the chart's domain, E + y0 F at the one place and E - y0 F at the
other; the one series a pair needs is Q(x(w))^(-1/2) up to the scalar y0.
So y0 need not lie in the domain: above x = -1/2, y0^2 = 65/16, and the
pair is all there is where 65 is no square mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import padic_valuation, prime_factors, reduce_fraction_mod
from .polyring import Polynomial, RationalFunction, _to_ratfunc, resultant
from .recurrence import (
    A_COEFFS,
    B_COEFFS,
    CONSTANT_BLOCK,
    Q_COEFFS,
    R_TILDE_ROWS,
    T2_BLOCK,
    T_COEFFS,
    InitialData,
    MAIN_INITIAL_DATA,
    MAIN_RECURRENCE,
    extend_integral,
    extend_rational,
    form_value,
    main_sequence,
)
from .series import LaurentSeries, TruncatedSeries, _domain_inverse

BAD_PRIMES = (2, 5, 13)
WEIERSTRASS_A = Fraction(-49, 3)
WEIERSTRASS_B = Fraction(146, 27)
J_INVARIANT = Fraction(7**6, 65)


def q_polynomial(modulus: int | None = None) -> Polynomial:
    return Polynomial(Q_COEFFS, modulus)


def t_polynomial(modulus: int | None = None) -> Polynomial:
    return Polynomial(T_COEFFS, modulus)


class PoleAtPlaceError(ValueError):
    def __init__(self, place: str, order: int):
        super().__init__(f"pole of order {order} at {place}")
        self.place = place
        self.order = order


class CurveFunction:
    """u(x) + v(x)*y on the curve, with y^2 reduced to Q(x)."""

    __slots__ = ("u", "v")

    def __init__(self, u: RationalFunction, v: RationalFunction):
        if u.modulus != v.modulus:
            raise ValueError("mixed scalar domains")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, *args):
        raise AttributeError("CurveFunction is immutable")

    @property
    def modulus(self):
        return self.u.modulus

    @classmethod
    def rational(cls, u, modulus: int | None = None) -> "CurveFunction":
        u = _to_ratfunc(u, modulus)
        zero = RationalFunction(Polynomial([], u.modulus))
        return cls(u, zero)

    @classmethod
    def y_multiple(cls, v, modulus: int | None = None) -> "CurveFunction":
        v = _to_ratfunc(v, modulus)
        zero = RationalFunction(Polynomial([], v.modulus))
        return cls(zero, v)

    def __bool__(self):
        return not (self.u.is_zero() and self.v.is_zero())

    def __eq__(self, other):
        if isinstance(other, CurveFunction):
            return self.u == other.u and self.v == other.v
        other = _to_ratfunc(other, self.modulus)
        if other is None:
            return NotImplemented
        return self.v.is_zero() and self.u == other

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"({self.u!r}) + ({self.v!r})*y"

    def __neg__(self):
        return CurveFunction(-self.u, -self.v)

    def _coerce(self, other):
        if isinstance(other, CurveFunction):
            return other
        r = _to_ratfunc(other, self.modulus)
        return None if r is None else CurveFunction.rational(r, self.modulus)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CurveFunction(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q = RationalFunction(q_polynomial(self.modulus))
        u = self.u * other.u + self.v * other.v * q
        v = self.u * other.v + self.v * other.u
        return CurveFunction(u, v)

    __rmul__ = __mul__

    def derivative(self) -> "CurveFunction":
        """d/dx with y' = Q'(x)/(2y) rewritten as Q'(x) y / (2Q)."""
        q = RationalFunction(q_polynomial(self.modulus))
        qd = RationalFunction(q_polynomial(self.modulus).derivative())
        two_inv = _domain_inverse(2, self.modulus)
        return CurveFunction(self.u.derivative(), self.v.derivative() + self.v * qd * two_inv / q)



# -- named functions of the field ------------------------------------------------


def fn_y(modulus: int | None = None) -> CurveFunction:
    return CurveFunction.y_multiple(Polynomial([1], modulus), modulus)


def fn_t(modulus: int | None = None) -> CurveFunction:
    return CurveFunction.rational(t_polynomial(modulus), modulus)


def fn_s(modulus: int | None = None) -> CurveFunction:
    """s = 2x(2x+1)/y, the generating function of the main sequence."""
    num = Polynomial([0, 2, 4], modulus)
    return CurveFunction.y_multiple(RationalFunction(num, q_polynomial(modulus)), modulus)


def fn_z(modulus: int | None = None) -> CurveFunction:
    """z = x^2 + x + y, with divisor 2(inf-) - 2(inf+)."""
    return CurveFunction.rational(Polynomial([0, 1, 1], modulus), modulus) + fn_y(modulus)


# -- differential forms -----------------------------------------------------------


class CurveForm:
    """g * omega where omega = dx/y is the invariant differential."""

    __slots__ = ("g",)

    def __init__(self, g: CurveFunction):
        object.__setattr__(self, "g", g)

    def __setattr__(self, *args):
        raise AttributeError("CurveForm is immutable")

    @property
    def modulus(self):
        return self.g.modulus

    def __eq__(self, other):
        if not isinstance(other, CurveForm):
            return NotImplemented
        return self.g == other.g

    def __hash__(self):
        return hash(self.g)

    def __repr__(self):
        return f"({self.g!r}) * omega"


def omega(modulus: int | None = None) -> CurveForm:
    return CurveForm(CurveFunction.rational(Polynomial([1], modulus), modulus))


def eta(modulus: int | None = None) -> CurveForm:
    """(x^2 + x) omega: second kind, double poles at infinity, zero residues."""
    return CurveForm(CurveFunction.rational(Polynomial([0, 1, 1], modulus), modulus))


def xi_s(modulus: int | None = None) -> CurveForm:
    """xi = s dx/x = 2(2x+1) omega, the logarithmic form 2 dz/z."""
    return CurveForm(CurveFunction.rational(Polynomial([2, 4], modulus), modulus))


def differential_of(f: CurveFunction) -> CurveForm:
    """d(f) = f' dx = (f' y) omega."""
    return CurveForm(f.derivative() * fn_y(f.modulus))


# -- places and expansions ---------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place as its exact chart: x = a(w)/b(w) in the local parameter w,
    with a and b over the domain of the functions expanded there, and y the
    square root of Q(x) for which b^2 y starts with y0, a square root, in
    that domain, of the lead of H = b^4 Q(a/b).  H must have even order (x
    regular with Q(x(0)) != 0, or a simple pole of x), as y is no series in
    w otherwise."""

    name: str
    a: Polynomial
    b: Polynomial
    y0: object

    def __post_init__(self):
        h = _homogenized(q_polynomial(self.a.modulus), self.a, self.b)
        if _order(h) % 2:
            raise ValueError(f"Q(x) has odd order {_order(h)} at {self.name}")
        TruncatedSeries([h.coeffs[_order(h)]], 1, h.modulus).inverse_sqrt(self.y0)  # y0^2 is H's lead


def origin_place(sign: int, modulus: int | None = None) -> Place:
    """The rational point (0, +-2); local parameter x itself."""
    return Place(f"(0,{2*sign})", Polynomial([0, 1], modulus), Polynomial([1], modulus), 2 * sign)


def infinity_place(sign: int, modulus: int | None = None) -> Place:
    """inf_+ or inf_-; local parameter u = 1/x, y = sign * u^-2 (1 + O(u))."""
    return Place(f"inf{'+' if sign > 0 else '-'}", Polynomial([1], modulus), Polynomial([0, 1], modulus), sign)


def _homogenized(f: Polynomial, a: Polynomial, b: Polynomial) -> Polynomial:
    """b^deg(f) f(a/b), by Horner on the homogenized form."""
    if f.is_zero():
        return f
    acc, bpow = Polynomial([f.leading()], f.modulus), Polynomial([1], f.modulus)
    for c in reversed(f.coeffs[:-1]):
        bpow = bpow * b
        acc = acc * a + bpow * c
    return acc


def _order(f: Polynomial) -> int:
    """The exponent of the lowest term of a nonzero polynomial."""
    return next(i for i, c in enumerate(f.coeffs) if c)


def _at_chart(
    f: RationalFunction, a: Polynomial, b: Polynomial, factor: Polynomial, e: int
) -> tuple[Polynomial, Polynomial]:
    """f(a/b) * factor * b^e as a numerator and a denominator polynomial in
    w, with no gcd taken."""
    num, den = _homogenized(f.num, a, b) * factor, _homogenized(f.den, a, b)
    e += f.den.degree - f.num.degree
    return (num * b**e, den) if e >= 0 else (num, den * b ** (-e))


def _expand(part: tuple[Polynomial, Polynomial], bound: int, shift=0, root=None) -> LaurentSeries:
    """num/den (times w^shift root) below the exponent ``bound``, from the
    offset read off the two polynomials."""
    num, den = part
    m = num.modulus
    n = 0 if num.is_zero() else bound - (_order(num) - _order(den) + shift)
    if n <= 0:
        return LaurentSeries(bound, TruncatedSeries([], 0, m))
    num, den = (TruncatedSeries(f.coeffs[_order(f) :][:n], n, m) for f in (num, den))
    w = num / den
    return LaurentSeries(bound - n, w if root is None else w * root.truncate(n))


def expand_pairs(
    items: Sequence[CurveForm | CurveFunction], a: Polynomial, b: Polynomial, bound: int
) -> list[tuple[LaurentSeries, LaurentSeries]]:
    """The expansions of ``items`` (functions, and forms as their
    coefficient of dw) at the places of the chart x = a(w)/b(w), as pairs
    (E, F) over the chart's domain, each known exactly below the exponent
    ``bound``: the expansion at the place where b^2 y starts with y0 w^k is
    E + y0 F, so E - y0 F at the other.  y0^2 = h0, the lead of
    H = b^4 Q(a/b) = h0 w^2k + ..., and y0 itself is never needed.

    With s = H^(-1/2) = 1/(b^2 y), every expansion is E + R s with E and R
    exact ratios of polynomials in w: u + v y is u(x) + v(x) H b^-2 s, and
    (u + v y) omega = (u + v y) x' dw/y is v(x) D b^-2 + u(x) D s,
    D = a'b - ab' (y s = b^-2).  And s = y0 w^-k r/h0, r the root with
    constant term 1 of (H/(h0 w^2k))^(-1/2), so F = R w^-k r/h0.  Offsets
    are read off exact valuations, and r's one Newton series runs at the
    precision the tightest item needs.
    """
    m = a.modulus
    if any(item.modulus != m for item in items):
        raise ValueError(f"items must live over the scalar domain of the chart (modulus {m})")
    h, d, one = _homogenized(q_polynomial(m), a, b), a.derivative() * b - a * b.derivative(), Polynomial([1], m)
    parts = [
        (_at_chart(item.g.v, a, b, d, -2), _at_chart(item.g.u, a, b, d, 0))
        if isinstance(item, CurveForm)
        else (_at_chart(item.u, a, b, one, 0), _at_chart(item.v, a, b, h, -2))
        for item in items
    ]
    k = _order(h) // 2
    need = [bound - _order(num) + _order(den) + k for _, (num, den) in parts if not num.is_zero()]
    n, h0_inv = max(need + [0]), _domain_inverse(h.coeffs[2 * k], m)
    root = TruncatedSeries(h.coeffs[2 * k :][:n], n, m).scale(h0_inv).inverse_sqrt(1).scale(h0_inv)
    return [(_expand(e, bound), _expand(r, bound, -k, root)) for e, r in parts]


def expand_to_bound(items: Sequence[CurveForm | CurveFunction], place: Place, bound: int) -> list[LaurentSeries]:
    """The expansions at ``place`` of ``items`` over its domain, each known
    exactly below the exponent ``bound``: E + y0 F for the pairs of
    ``expand_pairs`` on the place's chart."""
    return [e + f * place.y0 for e, f in expand_pairs(items, place.a, place.b, bound)]


def expand_at_origin(f: CurveFunction, n: int) -> TruncatedSeries:
    """Taylor expansion at the point (0, 2) through x^(n-1); a pole there is
    an error."""
    place = origin_place(+1, f.modulus)
    [ls] = expand_to_bound([f], place, n)
    v = ls.valuation()
    if v is not None and v < 0:
        raise PoleAtPlaceError(place.name, -v)
    return TruncatedSeries([ls.coefficient(k) for k in range(n)], n, f.modulus)


def s_series(n: int, modulus: int | None = None) -> TruncatedSeries:
    """The main generating function as a series (via the recurrence)."""
    if modulus is None:
        return TruncatedSeries(main_sequence(n), n)
    pairs = zip(*extend_integral(MAIN_RECURRENCE, MAIN_INITIAL_DATA, n))
    return TruncatedSeries([reduce_fraction_mod(q, modulus) for q in pairs], n, modulus)


# -- exact identity suite -----------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    detail: str = ""


def verify_algebraic_identities() -> list[IdentityCheck]:
    """The identity suite behind the generating-function arguments; every check
    is exact function-field algebra over Q."""
    checks = []
    y = fn_y()
    s = fn_s()
    z = fn_z()

    lhs = s * s
    rhs = CurveFunction.rational(
        RationalFunction(Polynomial([0, 0, 4, 16, 16]), q_polynomial())
    )
    checks.append(IdentityCheck("s^2 * Q = 4x^2(2x+1)^2", lhs == rhs, f"{lhs!r}"))

    pf = (
        RationalFunction(Polynomial([1]), Polynomial([0, 1]))
        + RationalFunction(Polynomial([1]), Polynomial([Fraction(1, 2), 1]))
        - RationalFunction(Polynomial([0, 1, 3, 2]), q_polynomial())
    )
    b_over_a = RationalFunction(Polynomial(B_COEFFS), Polynomial(A_COEFFS))
    checks.append(IdentityCheck("partial fractions of B/A", pf == b_over_a, f"{pf!r}"))

    w = CurveFunction.rational(Polynomial([0, 1, 1]))  # x^2 + x
    pell = w * w - CurveFunction.rational(q_polynomial())
    checks.append(
        IdentityCheck(
            "(x^2+x)^2 - Q = -4",
            pell == CurveFunction.rational(Polynomial([-4])),
            f"{pell!r}",
        )
    )
    prod = z * (w - y)
    checks.append(
        IdentityCheck(
            "z * (x^2+x-y) = -4",
            prod == CurveFunction.rational(Polynomial([-4])),
            f"{prod!r}",
        )
    )

    # xi = s dx/x = 2 dz/z, equivalently 2 dz = z * xi
    two_dz = CurveForm(differential_of(z).g * 2)
    z_xi = CurveForm(z * xi_s().g)
    checks.append(IdentityCheck("2 dz = z * (s dx/x)", two_dz == z_xi))
    xqd = Polynomial([0, 1]) * q_polynomial().derivative()
    prod_poly = Polynomial([0, 0, 2, 6, 4])  # 2x(2x+1)(x^2+x)
    checks.append(IdentityCheck("x Q' = 2x(2x+1)(x^2+x)", xqd == prod_poly))

    # d(y/t) = eta/2 + omega/8 - 65 omega / (8 t^2)
    y_over_t = CurveFunction(
        RationalFunction(Polynomial([], None)),
        RationalFunction(Polynomial([1]), t_polynomial()),
    )
    lhs_form = differential_of(y_over_t)
    t2 = RationalFunction(Polynomial([1]), t_polynomial() * t_polynomial())
    rhs_g = CurveFunction.rational(
        RationalFunction(Polynomial([0, Fraction(1, 2), Fraction(1, 2)]))
        + Fraction(1, 8)
        - Fraction(65, 8) * t2
    )
    checks.append(IdentityCheck("d(y/t) = eta/2 + omega/8 - 65 omega/(8t^2)", lhs_form == CurveForm(rhs_g)))

    # d(y/x^3 + 3y/x^2) = -2 (x^3+x^2+6) x^-4 t omega
    v = RationalFunction(Polynomial([1]), Polynomial([0, 0, 0, 1])) + RationalFunction(
        Polynomial([3]), Polynomial([0, 0, 1])
    )
    lhs_form = differential_of(CurveFunction(RationalFunction(Polynomial([], None)), v))
    g = RationalFunction(
        Polynomial([-2]) * Polynomial([6, 0, 1, 1]) * t_polynomial(),
        Polynomial([0, 0, 0, 0, 1]),
    )
    checks.append(
        IdentityCheck(
            "d(y/x^3 + 3y/x^2) = -2(x^3+x^2+6) x^-4 t omega",
            lhs_form == CurveForm(CurveFunction.rational(g)),
        )
    )
    return checks


def curve_model_checks() -> list[IdentityCheck]:
    """The fixed model: Q, the Weierstrass form, j-invariant, bad primes."""
    out = []
    z = fn_z()
    t = fn_t()
    two_z = z * 2
    lhs = (t * z * 2) * (t * z * 2)
    rhs = two_z * two_z * two_z + two_z * two_z - 16 * two_z
    out.append(IdentityCheck("(2tz)^2 = (2z)^3 + (2z)^2 - 16(2z)", lhs == rhs))

    u_fn = two_z + Fraction(1, 3)
    v_fn = t * z * 2
    lhs = v_fn * v_fn
    rhs = u_fn * u_fn * u_fn + WEIERSTRASS_A * u_fn + WEIERSTRASS_B
    out.append(IdentityCheck("V^2 = U^3 - 49/3 U + 146/27", lhs == rhs))

    a, b = WEIERSTRASS_A, WEIERSTRASS_B
    j = 1728 * 4 * a**3 / (4 * a**3 + 27 * b**2)
    out.append(IdentityCheck("j = 7^6/65", j == J_INVARIANT, f"j = {j}"))

    q = q_polynomial()
    disc = resultant(q, q.derivative())
    support = set(prime_factors(abs(int(disc))))
    out.append(
        IdentityCheck(
            "bad primes = {2, 5, 13}",
            support == set(BAD_PRIMES),
            f"res(Q, Q') = {disc}",
        )
    )
    out.append(IdentityCheck("Q squarefree (gcd(Q,Q') = 1)", q.gcd(q.derivative()).degree == 0))
    return out


# -- closed forms and 2-adic facts ---------------------------------------------------


@dataclass(frozen=True)
class ClosedFormRow:
    n: int
    b: int
    l: int


def b_coefficient(n: int) -> int:
    """b_n = sum_{r = n mod 2} (-1)^((n-r)/2) 4^r C(n-r, (n-r)/2) C(n-r, r)."""
    total = 0
    for r in range(n % 2, n + 1, 2):
        m = (n - r) // 2
        c = math.comb(n - r, m) * math.comb(n - r, r)
        if c:
            total += (-1) ** m * 4**r * c
    return total


def closed_forms(n_max: int) -> list[ClosedFormRow]:
    """Rows (n, b_n, l_n) with l_n = b_{n-1} + 8 b_{n-2} for n >= 2,
    cross-checked against l_n = 2^(2n-2) c_n from the recurrence.

    b_1 = 0 (the double sum, l_2 = b_1 + 8 b_0 = 8 and 4 c_2 = 8 all agree).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    b = [b_coefficient(n) for n in range(n_max + 1)]
    c = extend_rational(MAIN_RECURRENCE, MAIN_INITIAL_DATA, n_max + 1)
    rows = []
    for n in range(n_max + 1):
        if n == 0:
            l_n = 0
        elif n == 1:
            l_n = 1
        else:
            l_n = b[n - 1] + 8 * b[n - 2]
        via_c = c[n] * Fraction(4) ** (n - 1)
        if via_c.denominator != 1 or via_c.numerator != l_n:
            raise AssertionError(f"l_{n}: table {l_n} != 4^(n-1) c_n = {via_c}")
        rows.append(ClosedFormRow(n, b[n], l_n))
    return rows


@dataclass(frozen=True)
class TwoAdicReport:
    m_max: int
    even_multiple_of_4: bool
    mod8_matches: bool
    valuation_matches: bool


def two_adic_facts(m_max: int) -> TwoAdicReport:
    """l_{2m} = 0 mod 4; l_{2m+1} = (-1)^m C(2m, m) mod 8;
    v_2(l_{2m+1}) = binary digit sum of m."""
    rows = closed_forms(2 * m_max + 2)
    l = [row.l for row in rows]
    ok4 = all(l[2 * m] % 4 == 0 for m in range(1, m_max + 1))
    ok8 = all(
        (l[2 * m + 1] - (-1) ** m * math.comb(2 * m, m)) % 8 == 0 for m in range(m_max + 1)
    )
    okv = all(
        padic_valuation(Fraction(l[2 * m + 1]), 2) == bin(m).count("1")
        for m in range(1, m_max + 1)
    ) and padic_valuation(Fraction(l[1]), 2) == 0
    return TwoAdicReport(m_max, ok4, ok8, okv)


# -- quadrature -------------------------------------------------------------------


def xi_form(c4: Sequence, modulus: int | None = None) -> CurveForm:
    """The form R~(x)/(2(1+2x)^2) * omega attached to data (C_1..C_4), over Q
    or, for p-integral data, over F_p (modulus = p)."""
    num = Polynomial([form_value(row, c4) for row in R_TILDE_ROWS], modulus)
    den = Polynomial([2], modulus) * t_polynomial(modulus) * t_polynomial(modulus)
    return CurveForm(CurveFunction.rational(RationalFunction(num, den), modulus))


def k_constants(init: InitialData) -> tuple[Fraction, Fraction]:
    """K_1 = T2_BLOCK(C)/4 and K_2 = CONSTANT_BLOCK(C)/4, C = (C_1..C_4).

    On the hyperplane (InitialData.hyperplane_value = 0) the attached form
    decomposes exactly as (K_2/2 + (K_1/2)/t^2) omega -- K_2 carries the
    constant block, K_1 the t^-2 block; xi_quadrature verifies the identity.
    """
    c4 = init.values[1:]
    return Fraction(form_value(T2_BLOCK, c4), 4), Fraction(form_value(CONSTANT_BLOCK, c4), 4)


@dataclass
class XiQuadrature:
    f_series: TruncatedSeries
    form: CurveForm
    k1: Fraction
    k2: Fraction
    hyperplane_zero: bool
    derivative_matches: bool
    decomposition_exact: bool | None


def xi_quadrature(init: InitialData, n: int) -> XiQuadrature:
    """Solve the inhomogeneous ODE by quadratures: with f = S/s,
    d f = R~/(2(1+2x)^2) * omega, checked on series expansions.

    C_0 is normalized to 0 (it never affects later terms).
    """
    init = init.normalized()
    c_seq = extend_rational(MAIN_RECURRENCE, init, n)
    s_vals = s_series(n)
    big_s = TruncatedSeries(c_seq, n)
    f = (big_s.divide_by_x(1)) * (s_vals.divide_by_x(1).inverse())
    form = xi_form(init.values[1:])
    k1, k2 = k_constants(init)
    hyper_zero = init.hyperplane_value == 0

    df = f.derivative()
    [w] = expand_to_bound([form], origin_place(+1), df.precision)
    matches = all(df[k] == w.coefficient(k) for k in range(df.precision))

    decomposition = None
    if hyper_zero:
        t2 = t_polynomial() * t_polynomial()
        lhs = form.g.u
        rhs = RationalFunction(Polynomial([k2 / 2])) + RationalFunction(
            Polynomial([k1 / 2]), t2
        )
        decomposition = lhs == rhs and form.g.v.is_zero()
    return XiQuadrature(f, form, k1, k2, hyper_zero, matches, decomposition)
