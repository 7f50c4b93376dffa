"""Exact scalar arithmetic: rationals, valuations, binomials, F_p(sqrt d).

Rationals are ``fractions.Fraction`` (always reduced, positive denominator),
so equality is structural and values hash/compare as expected.  An element
of F_p is a plain int in [0, p); ``reduce_fraction_mod`` takes a rational
there.  All values in this module are immutable and safe to share between
workers.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_k, the least strong pseudoprime to the first k prime bases (OEIS
#: A014233; Jaeschke 1993, Sorenson and Webster 2015): Miller-Rabin on the
#: first k primes decides every n < psi_k
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first k primes, k the least with
    n < psi_k; raises ValueError for n >= psi_13 (about 3.3e24), beyond the
    table."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    k = next((k for k, psi in enumerate(_PSI, 1) if n < psi), None)
    if k is None:
        raise ValueError(f"{n} is too large: the primality test decides n < {_PSI[-1]} only")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def padic_valuation(q: int | Fraction, p: int) -> int | float:
    """v_p(q): the exponent of p in q, +inf for q = 0.

    q is p-integral iff the result is >= 0.
    """
    require_prime(p)
    q = Fraction(q)
    if q == 0:
        return INF
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_p_integral(q: int | Fraction, p: int) -> bool:
    return padic_valuation(q, p) >= 0


def generalized_binomial(a: int | Fraction, k: int) -> Fraction:
    """binom(a, k) = a(a-1)...(a-k+1)/k! for rational a and k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a = Fraction(a)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / math.factorial(k)


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    require_prime(p)
    if p == 2:
        raise ValueError("p must be odd")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None if a is a non-residue.

    Desk scale: simple search (p stays small in every scan we run).
    """
    a %= p
    if a == 0:
        return 0
    if legendre_symbol(a, p) != 1:
        return None
    for r in range(1, p):
        if r * r % p == a:
            return r
    raise AssertionError("unreachable for prime p")


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def reduce_fraction_mod(q: Fraction | tuple[int, int], m: int) -> int:
    """q mod m as an integer in [0, m).

    q is a Fraction or a (numerator, denominator) pair, not necessarily in
    lowest terms: common factors of m are cancelled before inverting.  Raises
    ValueError when q is not m-integral (its reduced denominator shares a
    factor with m).
    """
    num, den = q if isinstance(q, tuple) else (q.numerator, q.denominator)
    shared = math.gcd(den, m)
    while shared > 1:
        g = math.gcd(num, shared)
        if g == 1:
            raise ValueError(f"{num}/{den} is not {m}-integral")
        num, den = num // g, den // g
        shared = math.gcd(den, m)
    return num % m * pow(den % m, -1, m) % m


class QuadExt:
    """Element a + b*sqrt(d) of F_p(sqrt(d)).

    Used for the places of the curve above the zeros of 1 + 2x, which live
    over F_p(sqrt(65)).  When d is a non-residue mod p this is the quadratic
    extension field.  When d is a square mod p, every element has b = 0 and
    each operation keeps b = 0 (the norm is a^2), so the arithmetic is that
    of F_p.
    """

    __slots__ = ("a", "b", "p", "d")

    def __init__(self, a: int, b: int, p: int, d: int):
        object.__setattr__(self, "a", a % p)
        object.__setattr__(self, "b", b % p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d % p)

    def __setattr__(self, *args):
        raise AttributeError("QuadExt is immutable")

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if (other.p, other.d) != (self.p, self.d):
                raise ValueError("mixed extensions")
            return other
        if isinstance(other, int):
            return QuadExt(other, 0, self.p, self.d)
        if isinstance(other, Fraction):
            return QuadExt(reduce_fraction_mod(other, self.p), 0, self.p, self.d)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b, self.p, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.p, self.d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a = self.a * other.a + self.d * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return QuadExt(a, b, self.p, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = (self.a * self.a - self.d * self.b * self.b) % self.p
        if norm == 0:
            raise ZeroDivisionError("non-unit in quadratic extension")
        ninv = pow(norm, -1, self.p)
        return QuadExt(self.a * ninv, -self.b * ninv, self.p, self.d)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.p, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d})) (mod {self.p})"
