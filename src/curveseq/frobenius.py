"""Point counts, traces, and the origin expansion of Weierstrass curves.

The expansion parameter is t = -x/y at the origin of y^2 = x^3 + Ax + B, the
form omega = dx/2y = sum c_n t^(n-1) dt (so c_1 = 1).  The coefficients obey
the Atkin-Swinnerton-Dyer congruences

    c_{n p^r} - f_p c_{n p^(r-1)} + p c_{n p^(r-2)} = 0  (mod p^r)

with f_p the trace of Frobenius; when f_p = 0 the sequence first loses
p-integrality upon integration at the t^(p^2) term.

The curve equation involves t only through t^(2g), g = gcd of the
t^2-exponents of its nonzero terms (g = 3 for A = 0, 2 for B = 0, else 1), so
c_n = 0 unless n = 1 mod 2g.  The expansion is computed in r = t^(2g), at
1/(2g) of the length, by Newton's iteration: each doubling step appends only
the new half of the series, from the curve equation's defect there.  Honda's
formula

    c_n = [x^(n-1)] (x^3 + Ax + B)^((n-1)/2)

is a second, independent route (``omega_coefficient``);
``supersingular_scan`` reads v_p(c_(p^2)) = 1 off it and cross-checks the
residue against the expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cartier import CartierInvariants, alphabeta_weierstrass
from .exactnum import is_prime, require_prime
from .series import LaurentSeries, TruncatedSeries, _convolve, _lift_inverse, _to_domain, _wrapped


def singular_mod(a: int, b: int, p: int) -> bool:
    """Whether y^2 = x^3 + ax + b is singular mod the prime p >= 5, i.e. p
    divides 4a^3 + 27b^2."""
    return (4 * a**3 + 27 * b**2) % p == 0


@dataclass(frozen=True)
class TraceData:
    p: int
    a: int
    b: int
    count: int
    trace: int


def point_count(a: int, b: int, p: int) -> TraceData:
    """#E(F_p) = 1 + sum_x (1 + chi(x^3 + ax + b)) by the quadratic character."""
    require_prime(p)
    if p < 5:
        raise ValueError("p >= 5 required")
    if singular_mod(a, b, p):
        raise ValueError(f"singular curve mod {p}")
    chi = [-1] * p
    chi[0] = 0
    for v in range(1, (p + 1) // 2):
        chi[v * v % p] = 1
    count = 1 + sum(1 + chi[(x * x * x + a * x + b) % p] for x in range(p))
    trace = p + 1 - count
    if trace * trace > 4 * p:
        raise AssertionError(f"Hasse bound violated at p = {p}: trace {trace}")
    return TraceData(p, a % p, b % p, count, trace)


@dataclass(frozen=True)
class OriginExpansion:
    """x(t), y(t) and the omega-coefficients at the origin, t = -x/y.

    ``omega`` holds c_1, c_2, ... at indices 0, 1, ... (omega = sum c_n t^(n-1) dt,
    normalization dx/2y).  With ``modulus`` set, coefficients are ints mod m.
    """

    a: int | Fraction
    b: int | Fraction
    modulus: int | None
    x: LaurentSeries
    y: LaurentSeries
    omega: TruncatedSeries

    def c(self, n: int):
        if n < 1:
            raise IndexError("coefficients start at c_1")
        return self.omega[n - 1]


def origin_expansion(a, b, n_terms: int, modulus: int | None = None) -> OriginExpansion:
    """Solve x = t^-2 u(t) with u(0) = 1 from y^2 = x^3 + ax + b, y = -x/t.

    u satisfies u^3 - u^2 + a u t^4 + b t^6 = 0, which involves t only
    through r = t^(2g), g = gcd of the t^2-exponents 2 (if a != 0) and
    3 (if b != 0), so u(t) = v(r) with F(v) = v^3 - v^2 + a r^ea v + b r^eb
    = 0.  Newton's iteration finds v at 1/(2g) of the length.  Once v is
    known below r^k0, F(v) = O(r^k0), so the step to r^k (k <= 2 k0) appends
    -F(v)/F'(v) on [k0, k): it forms v^2 and v^3 once, F(v) on [k0, k) and
    F'(v) below r^(k - k0) alone, and lifts 1/F'(v) from the step before.
    Then omega/dt = 1 - t u'/(2u) = 1 - g r v'(r)/v(r): c_n = 0 unless
    n = 1 mod 2g.  No coefficient leaves the scalar domain, and x, y and
    omega are laid out in t once.  All coefficients lie in Z[a, b].
    """
    if n_terms < 4:
        raise ValueError("need at least 4 terms")
    if modulus is not None and modulus % 2 == 0:
        raise ValueError("modulus must be odd")
    # at a = b = 0, u = 1 and every stride holds; gcd(0, 0) = 0 is none
    g = math.gcd(2 if a else 0, 3 if b else 0) or 1
    stride = 2 * g
    # a t^4 = a r^(4/stride), b t^6 = b r^(6/stride); the floor division
    # is exact whenever the term is nonzero
    ea, eb = 4 // stride, 6 // stride
    length = -(-n_terms // stride)
    m = modulus
    a_m, b_m, zero, one = (_to_domain(c, m) for c in (a, b, 0, 1))

    def reduced(cs: list) -> list:
        return cs if m is None else [c % m for c in cs]

    # F'(v) = 1 at r = 0 (ea = 0 only where a = 0).  A step changes v, and so
    # F'(v), only from r^k0 on, past where the step before formed 1/F'(v):
    # that inverse still holds, and is lifted
    v, inv_df = [one], [one]
    while len(v) < length:
        known, k = len(v), min(2 * len(v), length)
        vv = _convolve(v, v, k, m)
        vvv = _convolve(vv, v, k, m)
        av = [zero] * ea + v + [zero] * (k - known)  # r^ea v below r^k
        f = reduced([vvv[i] - vv[i] + a_m * av[i] + (b_m if i == eb else zero) for i in range(known, k)])
        df = reduced([3 * vv[i] - 2 * v[i] + (a_m if i == ea else zero) for i in range(k - known)])
        inv_df = _lift_inverse(df, inv_df, k - known, m)
        v += reduced([-c for c in _convolve(f, inv_df, k - known, m)])
    w_length = -(-(n_terms - 1) // stride)
    # (r v'/v)_i = (v'/v)_(i-1)
    dv = reduced([i * c for i, c in enumerate(v[1:w_length], start=1)])
    log_dv = _convolve(dv, _lift_inverse(v, [one], w_length - 1, m), w_length - 1, m)
    w = [one] + reduced([-g * c for c in log_dv])
    x = LaurentSeries(-2, _in_t(v, n_terms, stride, m))
    y = LaurentSeries(-3, _in_t(reduced([-c for c in v]), n_terms, stride, m))
    exp = OriginExpansion(a, b, modulus, x, y, _in_t(w, n_terms - 1, stride, m))
    if exp.c(1) != 1:
        raise AssertionError("c_1 != 1")
    return exp


def _in_t(f: list, precision: int, stride: int, modulus: int | None) -> TruncatedSeries:
    """f(t^stride) to the given precision, from f known to ceil(precision / stride)."""
    coeffs = [_to_domain(0, modulus)] * precision
    coeffs[::stride] = f[: -(-precision // stride)]
    return _wrapped(coeffs, modulus)


def omega_coefficient(a: int, b: int, n: int, p: int, r: int) -> int:
    """c_n mod p^r by Honda's formula c_n = [x^(n-1)] (x^3 + ax + b)^((n-1)/2),
    a route independent of the origin expansion (0 for even n).

    With k = (n-1)/2, l = 2k - 3j and m = 2j - k, c_n is the sum over j of
    k!/(j! l! m!) a^l b^m.  The multinomial is streamed in j, multiplied by
    l(l-1)(l-2)/((j+1)(m+1)(m+2)) at each step and carried as p^v times a
    unit mod p^r; terms with v >= r vanish mod p^r.
    """
    if n < 1:
        raise ValueError("coefficients start at c_1")
    require_prime(p)
    if r < 1:
        raise ValueError("r >= 1 required")
    mod = p**r
    k = (n - 1) // 2
    j = (k + 1) // 2  # the least j with m >= 0
    l, m = 2 * k - 3 * j, 2 * j - k
    if n % 2 == 0 or l < 0:
        return 0
    # k!/(j! l! m!) with m in {0, 1}
    v, unit = _padic_ratio(range(j + 1, k + 1), range(2, l + 1), p, mod)
    total = 0
    while True:
        if v < r:
            total += unit * p**v * pow(a, l, mod) * pow(b, m, mod)
        if l < 3:
            return total % mod
        dv, du = _padic_ratio((l, l - 1, l - 2), (j + 1, m + 1, m + 2), p, mod)
        v, unit = v + dv, unit * du % mod
        j, l, m = j + 1, l - 3, m + 2


def _padic_ratio(nums, dens, p: int, mod: int) -> tuple[int, int]:
    """prod(nums)/prod(dens) of positive integers as (v, u): p^v times the
    unit u mod ``mod``, a power of p."""
    v_top, top = _padic_product(nums, p, mod)
    v_bottom, bottom = _padic_product(dens, p, mod)
    return v_top - v_bottom, top * pow(bottom, -1, mod) % mod


def _padic_product(factors, p: int, mod: int) -> tuple[int, int]:
    """prod(factors) of positive integers as (v, u): p^v times the unit u mod ``mod``."""
    v, unit = 0, 1
    for q in factors:
        while q % p == 0:
            q //= p
            v += 1
        unit = unit * q % mod
    return v, unit


@dataclass
class AsdReport:
    p: int
    trace: int
    r_max: int
    ok: bool
    failures: tuple[tuple[int, int], ...] = ()


def asd_check(a: int, b: int, p: int, r_max: int, n_max: int) -> AsdReport:
    """Verify c_{np^r} - f_p c_{np^(r-1)} + p c_{np^(r-2)} = 0 mod p^r for
    n <= n_max, r in 1..r_max (terms with non-positive index drop out)."""
    trace = point_count(a, b, p).trace
    exp = origin_expansion(a, b, n_max * p**r_max + 2, modulus=p**r_max)
    failures = []
    for r in range(1, r_max + 1):
        mod = p**r
        for n in range(1, n_max + 1):
            val = exp.c(n * p**r) - trace * exp.c(n * p ** (r - 1))
            if r >= 2:
                val += p * exp.c(n * p ** (r - 2))
            if val % mod != 0:
                failures.append((n, r))
    return AsdReport(p, trace, r_max, not failures, tuple(failures))


@dataclass
class SupersingularRow:
    p: int
    beta_nonzero: bool
    #: c_(p^2) mod p^2 by Honda's formula (``omega_coefficient``)
    c_p2: int
    #: the same residue read off the origin expansion; None where
    #: ``vp_limit`` left the cross-check out
    c_p2_expansion: int | None

    @property
    def vp_c_p2_is_1(self) -> bool:
        """v_p(c_(p^2)) = 1 by the formula, and the expansion, where it ran,
        gave the same residue."""
        return self.formula_vp_is_1 and self.expansion_agrees is not False

    @property
    def formula_vp_is_1(self) -> bool:
        """The formula's verdict on v_p(c_(p^2)) = 1, alone."""
        return self.c_p2 % self.p == 0 and self.c_p2 % (self.p * self.p) != 0

    @property
    def expansion_agrees(self) -> bool | None:
        """Whether the expansion gave the formula's residue; None if not run."""
        return None if self.c_p2_expansion is None else self.c_p2_expansion == self.c_p2


@dataclass
class SupersingularReport:
    a: int
    b: int
    supersingular: list[SupersingularRow]
    cm_pattern_ok: bool | None  # for (0, 1): alpha_p = 0 iff p = 2 mod 3
    #: (alpha, beta) at every good prime 5 <= p <= p_max, in increasing p
    invariants: dict[int, CartierInvariants]


def supersingular_scan(a: int, b: int, p_max: int, vp_limit: int | None = None) -> SupersingularReport:
    """Primes p <= p_max with vanishing Hasse invariant; each has beta != 0 and
    v_p(c_{p^2}) = 1 exactly (checked mod p^2), so the integrated series first
    loses p-integrality at t^(p^2).

    c_(p^2) mod p^2 comes from Honda's formula at every supersingular prime,
    and from the origin expansion, as an independent cross-check, at those
    p <= ``vp_limit``; None means all of them.
    """
    rows = []
    invariants = {}
    pattern_ok: bool | None = (a, b) == (0, 1) or None
    for p in range(5, p_max + 1):
        if not is_prime(p) or singular_mod(a, b, p):
            continue
        inv = invariants[p] = alphabeta_weierstrass([b % p, a % p, 0, 1], p)
        if (a, b) == (0, 1):
            want = p % 3 == 2
            if (inv.alpha == 0) != want:
                pattern_ok = False
        if inv.alpha != 0:
            continue
        expanded = None
        if vp_limit is None or p <= vp_limit:
            expanded = origin_expansion(a, b, p * p + 2, modulus=p * p).c(p * p)
        rows.append(SupersingularRow(p, bool(inv.beta), omega_coefficient(a, b, p * p, p, 2), expanded))
    return SupersingularReport(a, b, rows, pattern_ok, invariants)
