"""Truncated formal power series and Laurent series over exact scalars.

A :class:`TruncatedSeries` is known modulo x^N where N is its ``precision``.
Coefficients are either plain ints in [0, m) with a ``modulus`` tag
(arithmetic mod m, the fast path) or exact scalar objects (``Fraction``,
:class:`~curveseq.exactnum.QuadExt`) with ``modulus=None``.  ``_to_domain``
is the one rule by which a scalar enters a domain, and ``_domain_inverse``
the one scalar inverse; :mod:`curveseq.polyring` and the curve code use
both.  A public constructor coerces its coefficients once; ring operations
keep their results in the domain and wrap them without coercing again.
Every operation records the tightest precision that is actually valid;
mixing precisions takes the minimum.  Series are immutable values, safe to
fan out across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import QuadExt, divisors, is_p_integral, mobius, padic_valuation, reduce_fraction_mod

#: mod m, np.convolve beats the Python loop once both operands have this
#: many coefficients (measured on square products mod 7 and mod 10007^2:
#: the loop wins up to 4 coefficients, the two tie at 5)
_NUMPY_CUTOFF = 6


def _convolve(a: list, b: list, n_out: int, modulus: int | None) -> list:
    """The first ``n_out`` coefficients of the product of two coefficient
    lists: reduced mod ``modulus``, or exact scalars when it is None.

    Trailing zeros (a series pads to its precision) and entries at or past
    ``n_out`` cannot reach the result, so both operands drop them first."""
    zero = _zero_like(a, modulus)  # before trimming: a QuadExt zero carries p and d
    a, b = _trim(a, n_out), _trim(b, n_out)
    if modulus is not None and len(a) >= _NUMPY_CUTOFF and len(b) >= _NUMPY_CUTOFF:
        # exact in int64: coefficients < m, sums bounded by len * m^2
        if min(len(a), len(b)) * modulus * modulus < 2**62:
            c = (np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))[:n_out] % modulus).tolist()
            return c + [0] * (n_out - len(c))
    out = [zero] * n_out
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b[: n_out - i]):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out if modulus is None else [c % modulus for c in out]


def _trim(c: list, n: int) -> list:
    """c below index n, less its trailing zeros."""
    k = max(0, min(len(c), n))
    while k and not c[k - 1]:
        k -= 1
    return c[:k]


class TruncatedSeries:
    """A power series truncated at order ``precision`` (exclusive)."""

    __slots__ = ("coeffs", "precision", "modulus")

    def __init__(self, coeffs, precision: int | None = None, modulus: int | None = None):
        coeffs = list(coeffs)
        if precision is None:
            precision = len(coeffs)
        if precision < 0:
            raise ValueError("negative precision")
        if len(coeffs) < precision:
            coeffs = coeffs + [_zero_like(coeffs, modulus)] * (precision - len(coeffs))
        _init(self, _to_domain_list(coeffs[:precision], modulus), precision, modulus)

    def __setattr__(self, *args):
        raise AttributeError("TruncatedSeries is immutable")

    # -- helpers -----------------------------------------------------------

    def _zero(self):
        return _zero_like(self.coeffs, self.modulus)

    def _wrap(self, coeffs: list, precision: int) -> "TruncatedSeries":
        """A series of this domain on ``precision`` coefficients that are
        already in it: no copy, no coercion."""
        out = object.__new__(TruncatedSeries)
        _init(out, coeffs, precision, self.modulus)
        return out

    def _exact_domain(self) -> str | None:
        """With ``modulus`` None, the exact domain read off a nonzero
        coefficient: QQ or F_p(sqrt d).  None for a zero series (such as the
        padding of an empty one), which fits every exact domain."""
        unit = next((c for c in self.coeffs if c), None)
        if unit is None:
            return None
        return f"F_{unit.p}(sqrt {unit.d})" if isinstance(unit, QuadExt) else "QQ"

    def _same_domain(self, other: "TruncatedSeries") -> bool:
        if self.modulus != other.modulus:
            return False
        if self.modulus is not None:
            return True
        mine, theirs = self._exact_domain(), other._exact_domain()
        return mine is None or theirs is None or mine == theirs

    def _check_domain(self, other: "TruncatedSeries"):
        if not self._same_domain(other):
            raise ValueError("mixed scalar domains")

    def __getitem__(self, n: int):
        if n < 0:
            raise IndexError("negative index")
        if n >= self.precision:
            raise IndexError(f"coefficient x^{n} beyond precision {self.precision}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # a zero fits every exact domain, so equality and hashing read the
        # nonzero coefficients alone
        mine, theirs = (tuple((i, c) for i, c in enumerate(s.coeffs) if c) for s in (self, other))
        return self.precision == other.precision and self._same_domain(other) and mine == theirs

    def __hash__(self):
        return hash((tuple((i, c) for i, c in enumerate(self.coeffs) if c), self.precision, self.modulus))

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:6])
        if self.precision > 6:
            shown += ", ..."
        dom = f"Z/{self.modulus}" if self.modulus is not None else self._exact_domain() or "QQ"
        return f"TruncatedSeries([{shown}] + O(x^{self.precision}), {dom})"

    def agrees_with(self, other: "TruncatedSeries", upto: int) -> bool:
        """Coefficientwise equality for indices below ``upto``."""
        if upto > min(self.precision, other.precision):
            raise ValueError("agreement window exceeds precision")
        return self.coeffs[:upto] == other.coeffs[:upto]

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > self.precision:
            raise ValueError("cannot raise precision by truncation")
        return self._wrap(self.coeffs[:precision], precision)

    def valuation(self) -> int | None:
        """Index of the first nonzero known coefficient, None if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        m = self.modulus
        neg = [-c for c in self.coeffs] if m is None else [-c % m for c in self.coeffs]
        return self._wrap(neg, self.precision)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_domain(other)
        n, m = min(self.precision, other.precision), self.modulus
        pairs = zip(self.coeffs[:n], other.coeffs[:n])
        return self._wrap([a + b for a, b in pairs] if m is None else [(a + b) % m for a, b in pairs], n)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_domain(other)
            n = min(self.precision, other.precision)
            return self._wrap(_convolve(self.coeffs, other.coeffs, n, self.modulus), n)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, scalar):
        m = self.modulus
        scalar = _to_domain(scalar, m)
        out = [c * scalar for c in self.coeffs] if m is None else [c * scalar % m for c in self.coeffs]
        return self._wrap(out, self.precision)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k (k >= 0); precision increases by k."""
        if k < 0:
            raise ValueError("use divide_by_x for negative shifts")
        return self._wrap([self._zero()] * k + self.coeffs, self.precision + k)

    def divide_by_x(self, k: int = 1) -> "TruncatedSeries":
        """Divide by x^k; the k leading coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise ValueError("series not divisible by x^k")
        return self._wrap(self.coeffs[k:], self.precision - k)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a unit constant term."""
        if self.precision == 0:
            return self
        f0 = self.coeffs[0]
        if not f0:
            raise ZeroDivisionError("zero constant term")
        n, m = self.precision, self.modulus
        g = [_domain_inverse(f0, m)]
        # Newton iteration g <- g*(2 - f*g), doubling the known order; over Z/m
        # fg is reduced and starts with 1, so |t_i| < m keeps _convolve's
        # int64 guard valid
        while len(g) < n:
            k = min(2 * len(g), n)
            fg = _convolve(self.coeffs[:k], g, k, m)
            t = [-v for v in fg]
            t[0] += 2
            g = _convolve(g, t, k, m)
        return self._wrap(g, n)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        return self.scale(_domain_inverse(other, self.modulus))

    def inverse_sqrt(self, root0) -> "TruncatedSeries":
        """1/y for the root y of f with y(0) = root0 (f/y is y); needs root0^2 = f(0), 2 root0 a unit."""
        if self.precision == 0:
            return self
        m = self.modulus
        if m == 2:
            raise ValueError("no square roots in characteristic 2")
        root0 = _to_domain(root0, m)
        if _to_domain(root0 * root0, m) != self.coeffs[0]:
            raise ValueError("root0^2 does not match the constant term")
        if not root0:
            raise ValueError("root0 must be a unit")
        _domain_inverse(root0 + root0, m)  # 2 root0 must be a unit
        r, half = [_domain_inverse(root0, m)], _domain_inverse(2, m)
        # Newton iteration r <- r*(3 - f*r^2)/2, doubling the known order; as
        # in inverse, f r^2 is reduced and starts with 1, so |t_i| < m
        while len(r) < self.precision:
            k = min(2 * len(r), self.precision)
            t = [-v for v in _convolve(_convolve(self.coeffs[:k], r, k, m), r, k, m)]
            t[0] += 3
            r = _to_domain_list([v * half for v in _convolve(r, t, k, m)], m)
        return self._wrap(r, self.precision)

    def derivative(self) -> "TruncatedSeries":
        n, m = self.precision, self.modulus
        if n == 0:
            return self
        terms = enumerate(self.coeffs[1:], start=1)
        return self._wrap([c * i for i, c in terms] if m is None else [c * i % m for i, c in terms], n - 1)

    def log_derivative(self) -> "TruncatedSeries":
        """f'/f to precision N-1; additive on products.  1/f is formed at
        precision N-1 (at N = 1 still at 1, so a zero constant term raises)."""
        n = self.precision
        return self.derivative() * self.truncate(n - 1 if n > 1 else n).inverse()

    def x_log_derivative(self) -> "TruncatedSeries":
        """x f'/f to precision N (coefficient n depends on f only up to x^n)."""
        return self.log_derivative().shift(1)


def _init(series: TruncatedSeries, coeffs: list, precision: int, modulus: int | None):
    object.__setattr__(series, "coeffs", coeffs)
    object.__setattr__(series, "precision", precision)
    object.__setattr__(series, "modulus", modulus)


# -- the scalar domains --------------------------------------------------------------


def _to_domain(c, modulus: int | None):
    """The scalar c in the domain of ``modulus``: over Z/m an int in [0, m)
    (a Fraction must be m-integral); over Q
    the exact scalar itself, an int made a Fraction."""
    if modulus is None:
        return Fraction(c) if isinstance(c, int) else c
    if isinstance(c, int):
        return c % modulus
    if isinstance(c, Fraction):
        return reduce_fraction_mod(c, modulus)
    raise TypeError(f"cannot reduce {c!r} mod {modulus}")


def _to_domain_list(coeffs: list, modulus: int | None) -> list:
    """``_to_domain`` on every coefficient; the int path stays inline."""
    if modulus is None:
        return [Fraction(c) if isinstance(c, int) else c for c in coeffs]
    return [c % modulus if isinstance(c, int) else _to_domain(c, modulus) for c in coeffs]


def _domain_inverse(c, modulus: int | None):
    """1/c in the domain of ``modulus`` (an exact object's own inverse over Q)."""
    if modulus is not None:
        return pow(_to_domain(c, modulus), -1, modulus)
    if isinstance(c, (int, Fraction)):
        return 1 / Fraction(c)
    return c.inverse()


def _zero_like(coeffs, modulus: int | None):
    """Zero of the domain; over Q that of the coefficients' exact type."""
    if modulus is not None:
        return 0
    for c in coeffs:
        return c * 0
    return Fraction(0)


# -- Dieudonne exponents ----------------------------------------------------


@dataclass(frozen=True)
class DieudonneExponents:
    """The unique a_1..a_M with f = prod_m (1 - x^m)^{a_m} + O(x^{M+1})."""

    exponents: tuple[Fraction, ...]
    precision: int

    def __getitem__(self, m: int) -> Fraction:
        if not 1 <= m <= self.precision:
            raise IndexError(f"exponent a_{m} not computed")
        return self.exponents[m - 1]

    def reconstruct(self) -> TruncatedSeries:
        """prod_{m<=M} (1 - x^m)^{a_m} to precision M+1."""
        nums, den = _exponent_product(self.exponents, self.precision + 1)
        return TruncatedSeries([Fraction(v, den) for v in nums], len(nums))


def _exponent_product(exponents, n: int) -> tuple[list[int], int]:
    """prod_m (1 - x^m)^{a_m} mod x^n for a_1, a_2, ... = ``exponents``, as
    integer numerators over their least common denominator.

    For m > (n-1)/2, (1 - x^m)^a = 1 - a x^m mod x^n, and the product of
    two such factors differs from 1 - a x^m - b x^k only in degree m + k >= n.
    So the factors with m <= (n-1)/2 multiply in one at a time, and the
    rest as the one polynomial 1 - sum_{m > (n-1)/2} a_m x^m.
    """
    head = (n - 1) // 2
    nums, den = [1] + [0] * (n - 1), 1
    for m, a in enumerate(exponents[:head], start=1):
        if a:
            nums, den = _mul_one_minus_xm_power(nums, den, m, a, n)
    tail = exponents[head : n - 1]
    if any(tail):
        tail_den = math.lcm(*(a.denominator for a in tail))
        linear = [tail_den] + [0] * head + [-a.numerator * (tail_den // a.denominator) for a in tail]
        nums, den = _lowest_terms(_convolve(linear, nums, n, None), den * tail_den)
    return nums, den


def _mul_one_minus_xm_power(nums: list[int], den: int, m: int, a: Fraction, n: int) -> tuple[list[int], int]:
    """(nums/den) * (1 - x^m)^a truncated at order n, on integer numerators
    over one shared denominator; the factor is sparse in x^m.

    For a = u/v the factor's k-th coefficient is (-1)^k binom(a, k) =
    prod_{i<k} (i v - u) / (v^k k!); its K = (n-1)//m + 1 terms go over
    v^(K-1) (K-1)! in lowest terms.  The returned den is the least common
    denominator.
    """
    u, v = a.numerator, a.denominator
    n_terms = (n - 1) // m + 1
    tops = [1]
    for i in range(n_terms - 1):
        tops.append(tops[-1] * (i * v - u))
    factor = [0] * n_terms
    scale = 1  # v^(K-1-k) (K-1)!/k!
    for k in range(n_terms - 1, -1, -1):
        factor[k] = tops[k] * scale
        scale *= v * k
    factor, factor_den = _lowest_terms(factor, v ** (n_terms - 1) * math.factorial(n_terms - 1))
    spread = [0] * n  # the factor on x^(mk); first, so _convolve skips its zeros
    spread[::m] = factor
    return _lowest_terms(_convolve(spread, nums, n, None), den * factor_den)


def _lowest_terms(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums/den (den > 0) divided by g = gcd(den, *nums).

    g = 2^s gcd(d, *nums), where 2^s is the lowest set bit of den | nums_0 |
    ... and d the odd part of den; when den is a power of two (as for every
    witness of the main data, whose c_n lie in Z[1/2]) d = 1 and the
    division is a shift."""
    bits = den
    for c in nums:
        bits |= c
    s = (bits & -bits).bit_length() - 1
    d = den // (den & -den)
    g = 1 if d == 1 else math.gcd(d, *nums)
    if g == 1:
        return [c >> s for c in nums], den >> s
    g <<= s
    return [c // g for c in nums], den // g


def _mobius_exponents(c, m_max: int) -> list[Fraction]:
    """a_n = -(sum_{d|n} mu(d) c_{n/d})/n for n = 1..m_max: the exponents of
    prod (1 - x^n)^(a_n) whose x f'/f has coefficients c."""
    exps = []
    for n in range(1, m_max + 1):
        acc = Fraction(0)
        for d in divisors(n):
            mu = mobius(d)
            if mu:
                acc += mu * c[n // d]
        exps.append(-acc / n)
    return exps


def dieudonne_exponents(f: TruncatedSeries, m_max: int) -> DieudonneExponents:
    """Exponents via the Moebius formula a_n = -(sum_{m|n} mu(m) c_{n/m})/n,
    where c = coefficients of x f'/f."""
    if f.modulus is not None:
        raise ValueError("exponents are computed over the rationals")
    if f.coeffs[0] != 1:
        raise ValueError("f(0) must be 1")
    if m_max >= f.precision:
        raise ValueError("need precision > m_max")
    exps = _mobius_exponents(f.x_log_derivative(), m_max)
    return DieudonneExponents(tuple(exps), m_max)


def dieudonne_exponents_peeling(f: TruncatedSeries, m_max: int) -> DieudonneExponents:
    """Independent route: strip factors (1 - x^n)^{a_n} inductively."""
    if f.coeffs[0] != 1:
        raise ValueError("f(0) must be 1")
    if m_max >= f.precision:
        raise ValueError("need precision > m_max")
    n = m_max + 1
    nums, den = [1] + [0] * (n - 1), 1
    exps = []
    for m in range(1, m_max + 1):
        a = Fraction(nums[m], den) - f[m]
        exps.append(a)
        if a:
            nums, den = _mul_one_minus_xm_power(nums, den, m, a, n)
    return DieudonneExponents(tuple(exps), m_max)


# -- congruence scanner -------------------------------------------------------

WITNESS_TERMS = 200


@dataclass
class CongruenceReport:
    p: int
    r_max: int
    ok: bool
    non_integral_index: int | None = None
    failures: tuple[tuple[int, int], ...] = ()
    witness_exponents: DieudonneExponents | None = None
    witness_integral: bool | None = None
    witness_rederives: bool | None = None

    def first_failure(self) -> tuple[int, int] | None:
        return self.failures[0] if self.failures else None


def congruence_scan(c: list[Fraction], p: int, r_max: int, n_max: int) -> CongruenceReport:
    """Check c_{k p^{r+1}} = c_{k p^r} mod p^{r+1} for k >= 1, r <= r_max,
    k p^{r+1} <= n_max.

    Every scanned coefficient must be p-integral (a non-p-integral one is an
    explicit failure with its index).  On success, the witness exponents
    a_1..a_M, M = min(WITNESS_TERMS, n_max), of the converse direction are
    computed and their p-integrality checked: the scanned congruences hold
    iff the series with these exponents has p-integral coefficients.
    """
    n_max = min(n_max, len(c) - 1)
    # level r examines a pair iff p^(r+1) <= n_max: the report names the
    # levels it scanned
    while r_max > 0 and p ** (r_max + 1) > n_max:
        r_max -= 1
    for n in range(min(len(c), n_max + 1)):
        if not is_p_integral(c[n], p):
            return CongruenceReport(p, r_max, False, non_integral_index=n)
    failures = []
    for r in range(r_max + 1):
        step = p ** (r + 1)
        k = 1
        while k * step <= n_max:
            a, b = c[k * step], c[k * p**r]
            if padic_valuation(a - b, p) <= r:
                failures.append((k, r))
            k += 1
    report = CongruenceReport(p, r_max, not failures, failures=tuple(failures))
    if report.ok:
        m = min(WITNESS_TERMS, n_max)
        exps = _mobius_exponents(c, m)
        report.witness_exponents = DieudonneExponents(tuple(exps), m)
        report.witness_integral = all(is_p_integral(a_n, p) for a_n in exps)
        # the witness is prod (1-x^n)^(a_n); x f'/f must re-derive the input
        nums, _ = _exponent_product(exps, m + 1)
        report.witness_rederives = _rederives(nums, c[: m + 1])
    return report


def _rederives(nums: list[int], c) -> bool:
    """Whether f = N/D with N = ``nums`` and f(0) = 1 has
    x f'/f = c_1 x + ... + c_M x^M mod x^(M+1), M = len(c) - 1.

    As f(0) = 1 that is the product identity x f' = c f with c_0 taken as 0,
    checked on integers: with c = C/E, E the lcm of the denominators of c,
    n E N_n = sum_j C_j N_(n-j) for n <= M.
    """
    e = math.lcm(*(v.denominator for v in c[1:]))
    scaled = [0] + [v.numerator * (e // v.denominator) for v in c[1:]]
    return _convolve(nums, scaled, len(c), None) == [k * e * v for k, v in enumerate(nums)]


# -- Laurent series -----------------------------------------------------------


class LaurentSeries:
    """x^offset * (power series); known modulo x^(offset + precision)."""

    __slots__ = ("offset", "series")

    def __init__(self, offset: int, series: TruncatedSeries):
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "series", series)

    def __setattr__(self, *args):
        raise AttributeError("LaurentSeries is immutable")

    @property
    def bound(self) -> int:
        """Exponent below which coefficients are known."""
        return self.offset + self.series.precision

    @property
    def modulus(self):
        return self.series.modulus

    def coefficient(self, e: int):
        if e >= self.bound:
            raise IndexError(f"coefficient x^{e} beyond precision bound {self.bound}")
        if e < self.offset:
            return self.series._zero()
        return self.series.coeffs[e - self.offset]

    def residue(self):
        return self.coefficient(-1)

    def valuation(self) -> int | None:
        v = self.series.valuation()
        return None if v is None else self.offset + v

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def normalized(self) -> "LaurentSeries":
        """Strip leading known-zero coefficients into the offset."""
        v = self.series.valuation()
        if v is None or v == 0:
            return self
        return LaurentSeries(self.offset + v, self.series.divide_by_x(v))

    def __neg__(self):
        return LaurentSeries(self.offset, -self.series)

    def _align(self, other: "LaurentSeries"):
        off = min(self.offset, other.offset)
        bound = min(self.bound, other.bound)
        n = bound - off
        a = self.series.shift(self.offset - off).truncate(n)
        b = other.series.shift(other.offset - off).truncate(n)
        return off, a, b

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        off, a, b = self._align(other)
        return LaurentSeries(off, a + b)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return LaurentSeries(self.offset + other.offset, self.series * other.series)
        return LaurentSeries(self.offset, self.series.scale(other))

    __rmul__ = __mul__

    def derivative(self) -> "LaurentSeries":
        s, m = self.series, self.modulus
        out = [c * e for e, c in enumerate(s.coeffs, start=self.offset)]
        return LaurentSeries(self.offset - 1, s._wrap(out if m is None else [c % m for c in out], s.precision))

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        if a.is_zero() or b.is_zero():
            # every zero of a domain is equal, whatever its offset and precision
            return a.is_zero() and b.is_zero() and a.series._same_domain(b.series)
        return a.offset == b.offset and a.series == b.series

    def __hash__(self):
        n = self.normalized()
        return hash(self.modulus) if n.is_zero() else hash((n.offset, n.series))

    def __repr__(self):
        return f"x^{self.offset} * {self.series!r}"
