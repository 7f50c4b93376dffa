"""Dense univariate polynomials and reduced rational functions.

Same scalar convention as :mod:`curveseq.series`: plain ints with a
``modulus`` tag for F_p work, exact ``Fraction`` objects otherwise.
Rational functions are kept reduced (monic denominator, gcd cancelled),
so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction

from .series import LaurentSeries, TruncatedSeries, _convolve, _to_int_mod


class Polynomial:
    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: int | None = None):
        coeffs = list(coeffs)
        if modulus is not None:
            coeffs = [c % modulus if isinstance(c, int) else _to_int_mod(c, modulus) for c in coeffs]
        else:
            coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "modulus", modulus)

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
        return 0 if self.modulus is not None else Fraction(0)

    def _one(self):
        return 1 if self.modulus is not None else Fraction(1)

    def __getitem__(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self._zero()

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _wrap(self, coeffs):
        return Polynomial(coeffs, self.modulus)

    def _check(self, other: "Polynomial"):
        if self.modulus != other.modulus:
            raise ValueError("mixed scalar domains")

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.modulus == other.modulus and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self._wrap([other])
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
        return self._wrap([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._wrap([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return self._wrap([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._wrap([other])
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.modulus is not None and not isinstance(other, int):
                other = _to_int_mod(other, self.modulus)
            return self._wrap([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        n = len(self.coeffs) + len(other.coeffs) - 1
        return self._wrap(_convolve(self.coeffs, other.coeffs, n, self.modulus))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        # square the raw coefficient lists and wrap once; the last squaring
        # would be unused, so it is skipped
        m = self.modulus
        result, base = [self._one()], self.coeffs
        while e:
            if e & 1:
                result = _convolve(result, base, len(result) + len(base) - 1, m)
            e >>= 1
            if e:
                base = _convolve(base, base, 2 * len(base) - 1, m)
        return self._wrap(result)

    def _scalar_inv(self, c):
        if self.modulus is not None:
            return pow(c, -1, self.modulus)
        return 1 / c if isinstance(c, Fraction) else Fraction(1, c)

    def divmod(self, other: "Polynomial"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m = self.modulus
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return self._wrap([]), self
        quo = [self._zero()] * (dq + 1)
        inv_lead = self._scalar_inv(other.leading())
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            if m is not None:
                c %= m
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = (rem[k + j] - c * b) % m if m is not None else rem[k + j] - c * b
        return self._wrap(quo), self._wrap(rem[: other.degree if other.degree > 0 else 0])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self * self._scalar_inv(self.leading())

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Polynomial":
        return self._wrap([c * i for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate at a scalar by Horner (reduced mod the modulus, if any)."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
            if self.modulus is not None and isinstance(acc, int):
                acc %= self.modulus
        if acc is None:
            return self._zero() if not hasattr(x, "__mul__") else x * 0
        return acc

    def eval_laurent(self, x: LaurentSeries, precision_bound: int) -> LaurentSeries:
        """Evaluate at a Laurent series, truncating to the given bound."""
        zero = LaurentSeries(0, TruncatedSeries([], precision_bound, x.modulus))
        acc = zero
        for c in reversed(self.coeffs):
            acc = acc * x
            if acc.bound > precision_bound:
                acc = acc.truncate_bound(precision_bound)
            acc = acc + c
        return acc

    def as_series(self, precision: int) -> TruncatedSeries:
        return TruncatedSeries(list(self.coeffs), precision, self.modulus)

    def reduce_mod(self, p: int) -> "Polynomial":
        if self.modulus is not None:
            raise ValueError("already modular")
        return Polynomial([_to_int_mod(c, p) for c in self.coeffs], p)


def resultant(f: Polynomial, g: Polynomial):
    """Resultant via the Euclidean remainder sequence (exact scalars)."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        return f._zero()
    one = f._one()
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
        lead_inv = den._scalar_inv(den.leading())
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
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction(other if isinstance(other, Polynomial) else Polynomial([other], self.modulus))
        if not isinstance(other, RationalFunction):
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

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(Polynomial([other], self.modulus))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def derivative(self) -> "RationalFunction":
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def eval_laurent(self, x: LaurentSeries, precision_bound: int) -> LaurentSeries:
        num = self.num.eval_laurent(x, precision_bound)
        den = self.den.eval_laurent(x, precision_bound)
        return num / den

    def reduce_mod(self, p: int) -> "RationalFunction":
        return RationalFunction(self.num.reduce_mod(p), self.den.reduce_mod(p))


def poly_x(modulus: int | None = None) -> Polynomial:
    return Polynomial([0, 1], modulus)
