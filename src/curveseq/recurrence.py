"""Linear recurrences with polynomial coefficients, over Q and over F_p, and
single windows of a rational solution mod p read over Z/p^k.

The central object is the order-5 recurrence

    4(n+4) g_{n+5} + 8(n+2) g_{n+4} + (n+3) g_{n+3}
        + (4n+7) g_{n+2} + (5n+4) g_{n+1} + 2n g_n = 0,   n >= 0,

whose solution with initial data (0, 1, 2, -1/8, -1/2) is the main sequence
studied throughout this package.  Over F_p the leading coefficient vanishes
at every step producing an index m = 1 mod p, which leaves that value free
but imposes a linear consistency constraint on the five values before it.

The recurrence is derived, not entered: ``operator_recurrence`` reads it off
the operator A d/dx - B that the generating function solves, and A, B and
the linear forms in the initial data are derived from Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactnum import padic_valuation, prime_factors, reduce_fraction_mod, require_prime
from .linalg import rank_fraction
from .polyring import Polynomial


def poly_eval(poly: Sequence[int], n: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class Recurrence:
    """sum_j P_j(n) * g_{n+j} = 0; shifts pairs each offset j >= 0 with the
    coefficients of P_j, sorted by offset (so the last pair is the lead)."""

    shifts: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        shifts = tuple(sorted(self.shifts, key=lambda s: s[0]))
        offsets = [j for j, _ in shifts]
        if not offsets or offsets[0] < 0 or offsets[-1] < 1 or len(set(offsets)) < len(offsets):
            raise ValueError(f"need distinct nonnegative offsets, the largest >= 1, got {offsets}")
        object.__setattr__(self, "shifts", shifts)
        if not any(c for c in self.leading_poly):
            raise ValueError("leading coefficient polynomial must be nonzero")

    @property
    def order(self) -> int:
        return self.shifts[-1][0]

    @property
    def leading_poly(self) -> tuple[int, ...]:
        return self.shifts[-1][1]

    def window_value(self, values: Sequence, n: int):
        """sum_j P_j(n) * values[n+j], values below index 0 read as zero: zero
        exactly when the window satisfies the recurrence at index n >= 0.  For
        the recurrence of an operator, the value at n < 0 is a coefficient of
        the operator applied to the solution's series (R, for the main one)."""
        return sum(values[n + j] * poly_eval(poly, n) for j, poly in self.shifts if n + j >= 0)

    def satisfies(self, values: Sequence, modulus: int | None = None) -> bool:
        windows = (self.window_value(values, n) for n in range(len(values) - self.order))
        return all((w % modulus if modulus is not None else w) == 0 for w in windows)


def operator_recurrence(a1: Sequence[int], a0: Sequence[int], start: int = 0) -> Recurrence:
    """The recurrence (n >= 0) of g_m = [x^(m+start)] G for G in x^start Q[[x]]
    with a1 G' + a0 G = 0; a1, a0 are integer coefficients, lowest degree first.
    With T = max(deg a1, deg a0 + 1), the coefficient of x^(n+T+start-1) is
    sum_t P_(T-t)(n) g_(n+T-t), P_(T-t)(n) = a1_t (n+T-t+start) + a0_(t-1);
    a vanishing P_(T-t) is left out, so a1(0) = 0 lowers the order."""
    top = max(len(a1) - 1, len(a0))
    shifts = []
    for t in range(top + 1):
        lin = a1[t] if t < len(a1) else 0
        const = lin * (top - t + start) + (a0[t - 1] if 0 < t <= len(a0) else 0)
        if lin or const:
            shifts.append((top - t, (const, lin) if lin else (const,)))
    return Recurrence(tuple(shifts))


def _integral(values) -> tuple[int, ...]:
    values = tuple(values)
    if not all(Fraction(v).denominator == 1 for v in values):
        raise AssertionError(f"{values} is not integral")
    return tuple(map(int, values))


# -- the operator of the main sequence and its linear forms, all from Q ----------

#: y^2 = Q(x) = 4 + (x + x^2)^2 and T(x) = 1 + 2x: the only hand-entered
#: tables; every recurrence, the operator and the linear forms derive from them
Q_COEFFS = (4, 0, 1, 2, 1)
T_COEFFS = (1, 2)
_Q, _T, _X = Polynomial(Q_COEFFS), Polynomial(T_COEFFS), Polynomial((0, 1))
#: A = x T Q and B = A s'/s for s = 2x T/y: the generating function solves
#: A S' - B S = R, with R determined by the initial data
A_COEFFS = _integral((_X * _T * _Q).coeffs)
B_COEFFS = _integral(((_T + 2 * _X) * _Q - _X * _T * _Q.derivative() * Fraction(1, 2)).coeffs)
#: the main order-5 recurrence, of the operator A d/dx - B
MAIN_RECURRENCE = operator_recurrence(A_COEFFS, tuple(-b for b in B_COEFFS))
#: contrast fixture (n+2)c_{n+2} - (2n+3)c_{n+1} + n c_n = 0, of (1-x)^2 G' = G:
#: generating function exp(x/(1-x)), factorial denominator growth
FOOTNOTE_RECURRENCE = operator_recurrence((1, -2, 1), (-1,))

# The linear forms in the initial data, as integer rows in (C_1..C_4).  They
# serve Q (rational data) and F_p (reduce the value mod p) alike.

#: R~ = R/x^2 at C_0 = 0, rows x^0..x^2; R_(5+n) is the window value at n < 0
_UNITS = [[int(i == k) for i in range(4)] for k in range(4)]
R_TILDE_ROWS = tuple(tuple(MAIN_RECURRENCE.window_value((0, *e), n) for e in _UNITS) for n in (-3, -2, -1))
_R_TILDE = [Polynomial(column) for column in zip(*R_TILDE_ROWS)]  # R~ on each unit vector
#: the residue hyperplane -R~'(-1/2)/2 = C_1 + C_2 + 6 C_4; it vanishes on
#: special data
HYPERPLANE_FORM = _integral(-r.derivative()(Fraction(-1, 2)) / 2 for r in _R_TILDE)
#: on the hyperplane the form xi = R~/(2(1+2x)^2) omega decomposes as
#: (K_2 + K_1/(1+2x)^2) omega / 2; 4 K_2 = [x^2] R~ is the constant block,
#: 4 K_1 = 4 R~(-1/2) the (1+2x)^-2 block.  Mod p, C(xi) = 0 pairs the
#: constant block with 65 alpha' and the other block with alpha' + 4 beta'.
CONSTANT_BLOCK = R_TILDE_ROWS[2]
T2_BLOCK = _integral(4 * r(Fraction(-1, 2)) for r in _R_TILDE)


def form_value(row: Sequence[int], c4: Sequence):
    """The linear form ``row`` at (C_1..C_4): a Fraction for rational data, an
    int (still to be reduced mod p) for integer data."""
    return sum(a * c for a, c in zip(row, c4, strict=True))


@dataclass(frozen=True)
class InitialData:
    """Initial values C_0..C_4; C_0 never influences later terms."""

    values: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    @classmethod
    def of(cls, *vals) -> "InitialData":
        if len(vals) == 1 and isinstance(vals[0], (list, tuple)):
            vals = tuple(vals[0])
        if len(vals) != 5:
            raise ValueError("need exactly C_0..C_4")
        return cls(tuple(Fraction(v) for v in vals))

    @property
    def is_special(self) -> bool:
        """(C_1..C_4) a multiple of the main data's (1, 2, -1/8, -1/2)."""
        c = self.values[1:]
        return all(ci == c[0] * di for ci, di in zip(c, MAIN_INITIAL_DATA.values[1:]))

    @property
    def hyperplane_value(self) -> Fraction:
        return form_value(HYPERPLANE_FORM, self.values[1:])

    def normalized(self) -> "InitialData":
        """Same data with C_0 = 0 (the convention used by the quadrature path)."""
        return InitialData((Fraction(0),) + self.values[1:])

    def reduce_mod(self, p: int) -> tuple[int, int, int, int, int]:
        return tuple(reduce_fraction_mod(v, p) for v in self.values)


MAIN_INITIAL_DATA = InitialData.of(0, 1, 2, Fraction(-1, 8), Fraction(-1, 2))


def extend_integral(
    spec: Recurrence, init: InitialData | Sequence, n_terms: int
) -> tuple[list[int], list[int]]:
    """The unique rational solution to index n_terms-1, as (numerators,
    denominators) with c_n = numerators[n] / denominators[n], denominators > 0.

    The d-term window is held as integer numerators over one shared
    denominator D.  A step forms acc = sum_{j<d} P_j(n) w_j, so that
    c_{n+d} = -acc / (P_d(n) D); it cancels only g = gcd(acc, P_d(n)) and
    scales the other numerators and D by P_d(n)/g.  The pairs need not be in
    lowest terms (exactnum.reduce_fraction_mod accepts them as they are).
    """
    values = [Fraction(v) for v in (init.values if isinstance(init, InitialData) else init)]
    d = spec.order
    if len(values) != d:
        raise ValueError(f"need exactly {d} initial values")
    den = math.lcm(*(v.denominator for v in values))
    window = [v.numerator * (den // v.denominator) for v in values]
    head = max(0, min(d, n_terms))
    nums, dens = window[:head], [den] * head
    lead = spec.leading_poly
    lower = [(j, poly) for j, poly in spec.shifts if j < d]
    for n in range(0, n_terms - d):
        scale = poly_eval(lead, n)
        if scale == 0:
            raise ZeroDivisionError(f"leading coefficient vanishes at n = {n}")
        acc = 0
        for j, poly in lower:
            c = poly_eval(poly, n)
            if c:
                acc += c * window[j]
        g = math.gcd(acc, scale)
        scale, new = scale // g, -acc // g
        if scale < 0:
            scale, new = -scale, -new
        del window[0]
        if scale != 1:
            window = [w * scale for w in window]
            den *= scale
        window.append(new)
        nums.append(new)
        dens.append(den)
    return nums, dens


def extend_rational(spec: Recurrence, init: InitialData | Sequence, n_terms: int) -> list[Fraction]:
    """The unique rational solution with the given initial data, to index n_terms-1."""
    return [Fraction(a, b) for a, b in zip(*extend_integral(spec, init, n_terms))]


def main_sequence(n_terms: int) -> list[Fraction]:
    """c_0, c_1, ..., c_{n_terms-1} of the main sequence."""
    return extend_rational(MAIN_RECURRENCE, MAIN_INITIAL_DATA, n_terms)


# -- windows mod p off products of step matrices ------------------------------------


_INT64_MAX = int(np.iinfo(np.int64).max)
_OBJECT = np.dtype(object)


def _window_dtype(spec: Recurrence, q: int) -> np.dtype:
    """int64 while every value window_mod forms mod q fits it, else object.

    Entries are residues in [0, q): a row times a column sums d products, at
    most d(q-1)^2; the closed-form first level of _forced_steps sums two
    products, r'_j L + r'_(d-1) r_(j+1), at most 2(q-1)^2 <= d(q-1)^2 (one
    product when d = 1); and a Horner step of the coefficient table forms
    acc * m + c with acc, m in [0, q), at most (q-1)^2 + max|c|.
    """
    cmax = max(abs(c) for _, poly in spec.shifts for c in poly)
    top = max(spec.order * (q - 1) ** 2, (q - 1) ** 2 + cmax)
    return np.dtype(np.int64) if top <= _INT64_MAX else _OBJECT


def _horner(polys: Sequence[Sequence[int]], ms: np.ndarray, q: int) -> np.ndarray:
    """Each polynomial of ``polys`` at every m of ``ms`` mod q, one row each:
    one Horner pass over all rows at once, from the top coefficients down,
    in place and reduced mod q at every step."""
    coeffs = np.zeros((len(polys), max(map(len, polys))), ms.dtype)
    for row, poly in zip(coeffs, polys):
        row[: len(poly)] = poly
    table = np.empty((len(polys), len(ms)), ms.dtype)
    table[:] = coeffs[:, -1:] % q
    for c in coeffs.T[-2::-1]:
        table *= ms
        table += c[:, None]
        table %= q
    return table


def _coefficient_table(spec: Recurrence, start: int, stop: int, q: int, dtype: np.dtype) -> np.ndarray:
    """P_j(m) mod q for start <= m < stop: row j for j = 0..d."""
    polys = dict(spec.shifts)
    return _horner([polys.get(j, ()) for j in range(spec.order + 1)], np.arange(start, stop, dtype=dtype) % q, q)


def _forced_steps(spec: Recurrence, window: list[int], start: int, stop: int, q: int, dtype: np.dtype) -> list[int]:
    """The window at ``start`` carried to ``stop`` mod q, where p | P_d(m) at
    no step m in [start, stop).

    Step m multiplies the window by the division-free companion matrix C(m)
    (shift rows scaled by the lead L = P_d(m), last row r = -P_0(m)..-P_{d-1}(m))
    and divides it by L; the product of the leads, a unit mod q, is divided
    out once at the end.  An odd first step is applied to the window.  The
    other steps pair up, and the first level of the product tree is read off
    the coefficient table in closed form: C(m+1) C(m) has rows L'L e_(i+2) for
    i < d - 2, row d - 2 equal to L' r, and last row
    (r'_(d-1) r_0, r'_j L + r'_(d-1) r_(j+1) for j < d - 1); the minus signs
    of r' and r go onto q - L' and q - L, or cancel.  Every later level
    multiplies its matrices (and leads) pairwise; at a level with an odd
    count the earliest matrix is set aside, applied to the window at once.
    """
    if start == stop:
        return window
    d = spec.order
    table = _coefficient_table(spec, start, stop, q, dtype)
    w = np.array(window, dtype)
    scale = 1
    odd = (stop - start) % 2
    if odd:
        w = np.append(table[d, 0] * w[1:], -table[:d, 0].dot(w)) % q
        scale = int(table[d, 0])
    P, P1 = table[:, odd::2], table[:, odd + 1 :: 2]  # steps m and m + 1
    leads = P1[d] * P[d] % q
    mats = np.zeros((d, d, len(leads)), dtype)  # batch last: every row written is contiguous
    for i in range(d - 2):
        mats[i, i + 2] = leads
    mats[d - 2] = (q - P1[d]) * P[:d] % q  # for d = 1 the last row, written over next
    mats[d - 1, 0] = P1[d - 1] * P[0] % q
    mats[d - 1, 1:] = (P1[: d - 1] * (q - P[d]) + P1[d - 1] * P[1:d]) % q
    mats = mats.transpose(2, 0, 1)
    while len(mats):
        if len(mats) % 2:
            w = mats[0].dot(w) % q
            scale = scale * int(leads[0]) % q
            mats, leads = mats[1:], leads[1:]
        mats = np.matmul(mats[1::2], mats[::2]) % q
        leads = leads[1::2] * leads[::2] % q
    inv = pow(scale, -1, q)
    return [int(v) * inv % q for v in w]


def window_mod(spec: Recurrence, init: InitialData | Sequence, p: int, n: int) -> tuple[int, ...]:
    """The window (c_n, ..., c_{n+d-1}) mod p of the rational solution with
    the given initial data, as a tuple.

    Works over Z/p^(1+e), where e is the sum of v_p(P_d(m)) over the steps
    m < n crossed.  Between steps with p | P_d(m) the window moves by step
    matrix products mod p^k (_forced_steps).  Such a step runs in scalar
    form: its accumulator must be divisible by p^v exactly, v = v_p(P_d(m));
    it is divided by p^v, and the modulus drops by p^v, so one digit is left
    at the end, where the window is read.  The steps with p | P_d(m) are
    found from P_d mod p alone.
    Raises ValueError when p is not prime (before any array is built) or when
    some c_k, k < n + d, is not p-integral (the message names p), and
    ZeroDivisionError when P_d vanishes at a step (as extend_integral does).
    Every call computes from scratch.
    """
    require_prime(p)
    if n < 0:
        raise ValueError(f"negative window index {n}")
    values = [Fraction(v) for v in (init.values if isinstance(init, InitialData) else init)]
    d = spec.order
    if len(values) != d:
        raise ValueError(f"need exactly {d} initial values")
    lead = spec.leading_poly
    lead_modp = _horner([lead], np.arange(n, dtype=_window_dtype(spec, p)) % p, p)[0]
    free = {}  # step m -> v_p(P_d(m)) > 0
    for m in np.flatnonzero(lead_modp == 0).tolist():
        exact = poly_eval(lead, m)
        if exact == 0:
            raise ZeroDivisionError(f"leading coefficient vanishes at n = {m}")
        free[m] = padic_valuation(exact, p)
    q = p ** (1 + sum(free.values()))
    dtype = _window_dtype(spec, q)
    for v in values:
        if v.denominator % p == 0:
            raise ValueError(f"initial value {v} is not {p}-integral")
    window = [reduce_fraction_mod(v, q) for v in values]
    pos = 0
    for t in sorted(free):
        window = _forced_steps(spec, window, pos, t, q, dtype)
        acc = sum(poly_eval(poly, t) * window[j] for j, poly in spec.shifts if j < d)
        pv = p ** free[t]
        if acc % pv:
            raise ValueError(f"c_{t + d} of the solution is not {p}-integral")
        q //= pv
        new = -(acc // pv) * pow(poly_eval(lead, t) // pv, -1, q) % q
        window, pos = [w % q for w in window[1:]] + [new], t + 1
    return tuple(_forced_steps(spec, window, pos, n, q, dtype))


# -- mod-p extension -----------------------------------------------------------


@dataclass
class ModPSolution:
    """A solution over F_p with the consistency residual of each free index.

    ``residuals`` holds (m, r) for every free index m (P_d(m-d) = 0 mod p;
    m = 1 mod p on the main recurrence) in order: r = sum_{j<d} P_j(m-d)
    values[m-d+j] mod p, the constraint on the window below m, which holds
    when r = 0.  ``violated_at`` is the first m whose constraint fails.
    """

    p: int
    values: list[int]
    residuals: list[tuple[int, int]] = field(default_factory=list)

    @property
    def violated_at(self) -> int | None:
        return next((m for m, r in self.residuals if r), None)

    @property
    def ok(self) -> bool:
        return self.violated_at is None

    @property
    def free_choices(self) -> list[tuple[int, int]]:
        return [(m, self.values[m]) for m, _ in self.residuals]


def extend_modp_exhaustive(
    spec: Recurrence, init: Sequence[int], p: int, n_terms: int
) -> ModPSolution | None:
    """Search every combination of free choices (small p only); returns a
    successful extension or None when no choice sequence reaches n_terms.

    Depth first, choices in the order 0..p-1: a forced index is stepped in
    place, and ``free`` is the stack of branch points, so a dead end (a
    violated constraint) backtracks to the deepest free index with a choice
    left."""
    if p < 3:
        raise ValueError("p >= 3 required")
    require_prime(p)
    d = spec.order
    if len(init) != d:
        raise ValueError(f"need exactly {d} initial values")
    lead = spec.leading_poly
    lower = [(j, poly) for j, poly in spec.shifts if j < d]
    values, free = [v % p for v in init], []
    while len(values) < n_terms:
        m = len(values)
        n = m - d
        denom = poly_eval(lead, n) % p
        acc = 0
        for j, poly in lower:
            acc = (acc + poly_eval(poly, n) * values[n + j]) % p
        if denom:
            values.append(-acc * pow(denom, -1, p) % p)
        elif acc == 0:
            free.append(m)
            values.append(0)
        else:
            while free and values[free[-1]] == p - 1:
                free.pop()
            if not free:
                return None
            del values[free[-1] + 1 :]
            values[-1] += 1
    return ModPSolution(p, values[: max(n_terms, 0)], [(f, 0) for f in free])


def extend_modp(
    spec: Recurrence, init: Sequence[int], p: int, n_terms: int, free_values: Sequence[int] = ()
) -> ModPSolution:
    """The first n_terms values over F_p of the solution with the given
    initial data, with the consistency residual of each free index.

    The value at the k-th free index is ``free_values[k]``, or 0 once that
    list runs out.  A violated constraint is recorded, not an error, and the
    run goes on past it.  Every step is linear, so the values and the
    residuals are a linear map of (init, free_values).  P_j(n) mod p is read
    off _coefficient_table.
    """
    if p < 3:
        raise ValueError("extend_modp requires p >= 3")
    require_prime(p)
    d = spec.order
    if len(init) != d:
        raise ValueError(f"need exactly {d} initial values")
    values = [v % p for v in init[: max(n_terms, 0)]]
    residuals: list[tuple[int, int]] = []
    table = _coefficient_table(spec, 0, max(n_terms - d, 0), p, _window_dtype(spec, p))
    for n, (*coefs, lead) in enumerate(table.T.tolist()):
        acc = sum(c * w for c, w in zip(coefs, values[n : n + d])) % p
        if lead:
            values.append(-acc * pow(lead, -1, p) % p)
        else:
            k = len(residuals)
            residuals.append((n + d, acc))
            values.append(free_values[k] % p if k < len(free_values) else 0)
    return ModPSolution(p, values, residuals)


# -- the right-hand side R(x) ---------------------------------------------------


@dataclass(frozen=True)
class RhsForms:
    """R(x) and its normalized variant for given initial data.

    R's five coefficients are linear forms in C_0..C_4 spanning a space of
    dimension 4; R is a constant multiple of B(x) exactly for special data.
    """

    r_coeffs: tuple[Fraction, ...]
    r_tilde_coeffs: tuple[Fraction, Fraction, Fraction]

    def r_is_multiple_of_b(self) -> bool:
        return rank_fraction([list(self.r_coeffs), [Fraction(c) for c in B_COEFFS]]) <= 1


def rhs_forms(init: InitialData) -> RhsForms:
    r = tuple(MAIN_RECURRENCE.window_value(init.values, n) for n in range(-5, 0))
    return RhsForms(r, tuple(form_value(row, init.values[1:]) for row in R_TILDE_ROWS))


# -- denominator profile ---------------------------------------------------------


@dataclass
class DenominatorProfile:
    d: int
    ok: bool
    witness: tuple[int, int] | None  # (index m, prime p) violating the bound
    prime_support: list[int]


def denominator_profile(seq: Sequence[Fraction], d: int) -> DenominatorProfile:
    """Check den(d * 16^m * C_m) | lcm(1..n-1) for all m <= n < len(seq).

    Since lcm(1..n-1) grows with n, the binding case is n = m; a violation
    reports the first (m, p) with p^k exceeding the allowed power.
    """
    if d == 0:
        raise ValueError("d must be nonzero")
    support: set[int] = set()
    witness = None
    lcm_val = 1  # lcm(1..m-1), maintained incrementally
    for m, c in enumerate(seq):
        if m >= 2:
            lcm_val = math.lcm(lcm_val, m - 1)
        den = (Fraction(d) * Fraction(16) ** m * c).denominator
        support.update(prime_factors(den))
        if witness is None and lcm_val % den != 0:
            bad = next(
                p for p in prime_factors(den) if padic_valuation(lcm_val, p) < padic_valuation(den, p)
            )
            witness = (m, bad)
    return DenominatorProfile(d, witness is None, witness, sorted(support))


def common_denominator(init: InitialData) -> int:
    """A natural d for the denominator bound: lcm of the R-coefficient denominators."""
    return math.lcm(*(c.denominator for c in rhs_forms(init).r_coeffs))

