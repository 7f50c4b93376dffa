"""Dense univariate polynomials and reduced rational functions.

Scalars enter by the one rule of :mod:`curveseq.series` (``_to_domain``):
ints in [0, m) with a ``modulus`` tag for Z/m work, exact ``Fraction``
objects otherwise (an int becomes a Fraction, as in a series).  The public
constructor coerces once; ring operations wrap results already in the
domain.  ``_to_ratfunc`` is the one lift of a scalar or a polynomial into
the rational functions.  Rational functions are kept reduced (monic
denominator, gcd cancelled), so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction

from .series import _convolve, _domain_inverse, _to_domain, _to_domain_list


class Polynomial:
    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: int | None = None):
        _init(self, _to_domain_list(coeffs, modulus), modulus)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- basics --------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _zero(self):
        return _to_domain(0, self.modulus)

    def __getitem__(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self._zero()

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _wrap(self, coeffs: list) -> "Polynomial":
        """A polynomial of this domain on a fresh list of coefficients that
        are already in it: no coercion."""
        out = object.__new__(Polynomial)
        _init(out, coeffs, self.modulus)
        return out

    def _check(self, other: "Polynomial"):
        if self.modulus != other.modulus:
            raise ValueError("mixed scalar domains")

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.modulus == other.modulus and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other], self.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((tuple(self.coeffs), self.modulus))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + (f" mod {self.modulus})" if self.modulus else ")")

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self):
        m = self.modulus
        return self._wrap([-c for c in self.coeffs] if m is None else [-c % m for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other], self.modulus)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        m, (short, long) = self.modulus, sorted((self.coeffs, other.coeffs), key=len)
        sums = [a + b for a, b in zip(short, long)] + long[len(short) :]
        return self._wrap(sums if m is None else [c % m for c in sums])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other], self.modulus)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        m = self.modulus
        if isinstance(other, (int, Fraction)):
            c = _to_domain(other, m)
            return self._wrap([c * a for a in self.coeffs] if m is None else [c * a % m for a in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        n = len(self.coeffs) + len(other.coeffs) - 1
        return self._wrap(_convolve(self.coeffs, other.coeffs, n, m))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        # square the raw coefficient lists and wrap once; the last squaring
        # would be unused, so it is skipped
        m = self.modulus
        result, base = [_to_domain(1, m)], self.coeffs
        while e:
            if e & 1:
                result = _convolve(result, base, len(result) + len(base) - 1, m)
            e >>= 1
            if e:
                base = _convolve(base, base, 2 * len(base) - 1, m)
        return self._wrap(result)

    def divmod(self, other: "Polynomial"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m = self.modulus
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return self._wrap([]), self
        quo = [0] * (dq + 1)
        inv_lead = _domain_inverse(other.leading(), m)
        # over Z/m each rem[i] takes at most deg(other) + 1 products below
        # m^2, so it is reduced once, by the constructor of the remainder
        for k in range(dq, -1, -1):
            c = quo[k] = _to_domain(rem[k + other.degree] * inv_lead, m)
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return self._wrap(quo), Polynomial(rem[: other.degree], m)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self * _domain_inverse(self.leading(), self.modulus)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Polynomial":
        m = self.modulus
        terms = enumerate(self.coeffs[1:], start=1)
        return self._wrap([c * i for i, c in terms] if m is None else [c * i % m for i, c in terms])

    def __call__(self, x):
        """Evaluate at a scalar, taken into the domain, by Horner."""
        m, x = self.modulus, _to_domain(x, self.modulus)
        acc = self._zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c if m is None else (acc * x + c) % m
        return acc

    def reduce_mod(self, p: int) -> "Polynomial":
        if self.modulus is not None:
            raise ValueError("already modular")
        return Polynomial(self.coeffs, p)


def _init(poly: Polynomial, coeffs: list, modulus: int | None):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    object.__setattr__(poly, "coeffs", coeffs)
    object.__setattr__(poly, "modulus", modulus)


def resultant(f: Polynomial, g: Polynomial):
    """Resultant via the Euclidean remainder sequence (exact scalars)."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        return f._zero()
    one = _to_domain(1, f.modulus)
    acc = one
    a, b = f, g
    while True:
        if b.degree == 0:
            return acc * b.leading() ** a.degree
        r = a % b
        if r.is_zero():
            return f._zero()
        sign = -one if (a.degree * b.degree) % 2 else one
        acc = acc * sign * b.leading() ** (a.degree - r.degree)
        a, b = b, r


class RationalFunction:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial([1], num.modulus)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num, den = num // g, den // g
        lead_inv = _domain_inverse(den.leading(), den.modulus)
        num, den = num * lead_inv, den * lead_inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RationalFunction is immutable")

    @property
    def modulus(self):
        return self.num.modulus

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _to_ratfunc(other, self.modulus)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.degree == 0:
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = _to_ratfunc(other, self.modulus)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _to_ratfunc(other, self.modulus)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _to_ratfunc(other, self.modulus)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _to_ratfunc(other, self.modulus)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunction":
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def reduce_mod(self, p: int) -> "RationalFunction":
        return RationalFunction(self.num.reduce_mod(p), self.den.reduce_mod(p))


def _to_ratfunc(x, modulus: int | None) -> RationalFunction | None:
    """x as a rational function: a polynomial over its own domain, a scalar
    (int or Fraction) over that of ``modulus``; None for anything else."""
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Polynomial([x], modulus))
    return None

