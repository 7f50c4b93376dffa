"""Point counts, traces, and the origin expansion of Weierstrass curves.

The expansion parameter is t = -x/y at the origin of y^2 = x^3 + Ax + B, the
form omega = dx/2y = sum c_n t^(n-1) dt (so c_1 = 1).  The coefficients obey
the Atkin-Swinnerton-Dyer congruences

    c_{n p^r} - f_p c_{n p^(r-1)} + p c_{n p^(r-2)} = 0  (mod p^r)

with f_p the trace of Frobenius; when f_p = 0 the sequence first loses
p-integrality upon integration at the t^(p^2) term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartier import CartierInvariants, alphabeta_weierstrass
from .exactnum import is_prime, require_prime
from .series import LaurentSeries, TruncatedSeries, from_polynomial


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

    @property
    def precision(self) -> int:
        return self.omega.precision


def origin_expansion(a, b, n_terms: int, modulus: int | None = None) -> OriginExpansion:
    """Solve x = t^-2 u(t) with u(0) = 1 from y^2 = x^3 + ax + b, y = -x/t.

    u satisfies u^3 - u^2 + a u t^4 + b t^6 = 0 and is computed by Newton
    iteration; all coefficients lie in Z[a, b].
    """
    if n_terms < 4:
        raise ValueError("need at least 4 terms")
    if modulus is not None and modulus % 2 == 0:
        raise ValueError("modulus must be odd")
    a_s = from_polynomial([a], n_terms, modulus)
    b_s = from_polynomial([b], n_terms, modulus)
    t4 = from_polynomial([0, 0, 0, 0, 1], n_terms, modulus)
    t6 = from_polynomial([0] * 6 + [1], n_terms, modulus)
    u = from_polynomial([1], 1, modulus)
    while u.precision < n_terms:
        k = min(2 * u.precision, n_terms)
        u = TruncatedSeries(u.coeffs, k, modulus)
        f = u * u * u - u * u + (a_s.truncate(k) * u * t4.truncate(k)) + b_s.truncate(k) * t6.truncate(k)
        fp = 3 * u * u - 2 * u + a_s.truncate(k) * t4.truncate(k)
        u = u - f * fp.inverse()
    x = LaurentSeries(-2, u)
    y = LaurentSeries(-3, -u)
    # omega/dt = dx/dt / (2y) = 1 - t u'/(2u)
    ratio = u.derivative().shift(1) * u.inverse().truncate(n_terms - 1)
    omega = from_polynomial([1], n_terms - 1, modulus) - ratio / 2
    exp = OriginExpansion(a, b, modulus, x, y, omega)
    if exp.c(1) != 1:
        raise AssertionError("c_1 != 1")
    return exp


@dataclass
class AsdReport:
    p: int
    trace: int
    r_max: int
    n_max: int
    ok: bool
    failures: tuple[tuple[int, int], ...] = ()


def asd_check(a: int, b: int, p: int, r_max: int, n_max: int) -> AsdReport:
    """Verify c_{np^r} - f_p c_{np^(r-1)} + p c_{np^(r-2)} = 0 mod p^r for
    n <= n_max, r in 1..r_max (terms with non-positive index drop out)."""
    trace = point_count(a, b, p).trace
    need = n_max * p**r_max + 1
    exp = origin_expansion(a, b, need + 1, modulus=p**r_max)
    failures = []
    for r in range(1, r_max + 1):
        mod = p**r
        for n in range(1, n_max + 1):
            val = exp.c(n * p**r) - trace * exp.c(n * p ** (r - 1))
            if r >= 2:
                val += p * exp.c(n * p ** (r - 2))
            if val % mod != 0:
                failures.append((n, r))
    return AsdReport(p, trace, r_max, n_max, not failures, tuple(failures))


@dataclass
class SupersingularRow:
    p: int
    beta_nonzero: bool
    vp_c_p2_is_1: bool | None


@dataclass
class SupersingularReport:
    a: int
    b: int
    p_max: int
    supersingular: list[SupersingularRow]
    cm_pattern_ok: bool | None  # for (0, 1): alpha_p = 0 iff p = 2 mod 3
    #: (alpha, beta) at every good prime 5 <= p <= p_max, in increasing p
    invariants: dict[int, CartierInvariants]


def supersingular_scan(a: int, b: int, p_max: int, vp_limit: int | None = None) -> SupersingularReport:
    """Primes p <= p_max with vanishing Hasse invariant; each has beta != 0 and
    v_p(c_{p^2}) = 1 exactly (checked mod p^2), so the integrated series first
    loses p-integrality at t^(p^2).

    ``vp_limit`` bounds the primes for which the (expensive) expansion check
    runs; None means all of them.
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
            if (inv.alpha.value == 0) != want:
                pattern_ok = False
        if inv.alpha.value != 0:
            continue
        vp_ok = None
        if vp_limit is None or p <= vp_limit:
            exp = origin_expansion(a, b, p * p + 2, modulus=p * p)
            v = exp.c(p * p)
            vp_ok = v % p == 0 and (v // p) % p != 0
        rows.append(SupersingularRow(p, bool(inv.beta), vp_ok))
    return SupersingularReport(a, b, p_max, rows, pattern_ok, invariants)
