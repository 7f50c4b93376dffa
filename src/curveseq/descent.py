"""Descent of series solutions of first-order operators to rational ones.

Over K = F_p(x) one has K = K^p + K^p x + ... + K^p x^(p-1); writing the
unknown as phi = b_0^p + b_1^p x + ... + b_{p-1}^p x^(p-1) turns a first-order
equation a_1 phi' + a_0 phi = u into a p x p linear system over K in the b_i.
A power-series solution therefore forces a rational (here: polynomial)
solution, recovered by exact linear algebra on the coefficients.

Since (b_i^p)' = 0,

    Gamma(sum_i b_i^p x^i) = sum_i b_i^p (i a_1 x^(i-1) + a_0 x^i),

and over F_p the map b -> b^p only moves the coefficient of x^q to x^(qp).
So the degree-k equation of the r-th component of that system is the
x^(kp+r) coefficient of Gamma(phi) = u in the unknowns phi_0, phi_1, ...:
the p x p system is the operator's own coefficient matrix with its rows
regrouped by residue mod p, and it is solved in that form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartier import require_good_prime
from .exactnum import require_prime
from .linalg import kernel_mod, solve_affine_mod
from .polyring import Polynomial
from .recurrence import A_COEFFS, B_COEFFS
from .series import TruncatedSeries


class DescentError(ValueError):
    pass


@dataclass(frozen=True)
class FirstOrderOperator:
    """Gamma(phi) = a1 * phi' + a0 * phi with polynomial coefficients."""

    a1: Polynomial
    a0: Polynomial

    @property
    def modulus(self):
        return self.a1.modulus

    def apply_poly(self, phi: Polynomial) -> Polynomial:
        return self.a1 * phi.derivative() + self.a0 * phi

    def apply_series(self, f: TruncatedSeries) -> TruncatedSeries:
        n = f.precision
        a1 = TruncatedSeries(self.a1.coeffs, n - 1, self.a1.modulus)
        a0 = TruncatedSeries(self.a0.coeffs, n - 1, self.a0.modulus)
        return a1 * f.derivative() + a0 * f.truncate(n - 1)


def main_operator(p: int | None = None) -> FirstOrderOperator:
    """A(x) d/dx - B(x), the operator annihilating the main generating function."""
    return FirstOrderOperator(Polynomial(A_COEFFS, p), -1 * Polynomial(B_COEFFS, p))


def polynomial_solution_search(p: int, degree_bound: int) -> Polynomial | None:
    """Minimal-degree nonzero polynomial solution of the main equation mod p,
    normalized monic, or None below the bound.

    In the RREF of the operator matrix the kernel vector of a free column f
    is supported on columns <= f, so the vector of the lowest free column has
    the least degree of any solution."""
    require_good_prime(p)
    basis = _nullspace(main_operator(p), degree_bound, p)
    return Polynomial(basis[0], p).monic() if basis else None


def solution_space_dimension(p: int, degree_bound: int) -> int:
    """Dimension of {phi : Gamma(phi) = 0, deg phi <= degree_bound} over F_p."""
    op = main_operator(p)
    return len(_nullspace(op, degree_bound, p))


def _image_degree(op: FirstOrderOperator, degree_bound: int) -> int:
    """A bound for deg Gamma(phi) when deg phi <= degree_bound."""
    return degree_bound + max(op.a1.degree - 1, op.a0.degree, 0)


def _operator_rows(op: FirstOrderOperator, degree_bound: int, n_rows: int, p: int) -> list[list[int]]:
    """The first n_rows coefficient rows of phi -> Gamma(phi) on deg phi <=
    degree_bound: column k holds the coefficients of Gamma(x^k)."""
    rows = [[0] * (degree_bound + 1) for _ in range(n_rows)]
    for k in range(degree_bound + 1):
        for d, c in enumerate(op.apply_poly(Polynomial([0] * k + [1], p)).coeffs):
            rows[d][k] = c
    return rows


def _nullspace(op: FirstOrderOperator, degree_bound: int, p: int) -> list[list[int]]:
    rows = _operator_rows(op, degree_bound, _image_degree(op, degree_bound) + 1, p)
    return kernel_mod(rows, p)


@dataclass
class DescentResult:
    phi: Polynomial
    agreement: int  # series coefficients matched by phi


def descend_series_solution(
    op: FirstOrderOperator,
    rhs: Polynomial,
    series: TruncatedSeries,
    p: int,
    degree_bound: int,
) -> DescentResult:
    """Recover a polynomial solution of Gamma(phi) = rhs from a series solution.

    The p x p system over F_p(x) in the components b_i (sought as
    polynomials, deg phi <= degree_bound) is the coefficient system of
    Gamma(phi) = rhs regrouped by residue class, so it is solved on phi's
    coefficients directly; the first min(p, precision) series coefficients
    pin the solution.  Raises DescentError when inconsistent.
    """
    require_prime(p)
    if series.modulus != p or op.modulus != p or rhs.modulus != p:
        raise ValueError("operator, rhs and series must live over F_p")
    n_rows = max(_image_degree(op, degree_bound), rhs.degree) + 1
    rows = _operator_rows(op, degree_bound, n_rows, p)
    values = [rhs[d] for d in range(n_rows)]
    # pins phi_n = s_n; beyond the degree bound a pin is the row 0 = s_n
    for n in range(min(p, series.precision)):
        rows.append([int(k == n) for k in range(degree_bound + 1)])
        values.append(series.coeffs[n])

    sol = solve_affine_mod(rows, values, p)
    if sol is None:
        raise DescentError("p-basis system inconsistent under the degree bound")
    phi = Polynomial(sol, p)
    if op.apply_poly(phi) != rhs:
        raise DescentError("reconstructed polynomial does not solve the equation")

    agreement = 0
    for n in range(series.precision):
        if phi[n] == series.coeffs[n]:
            agreement += 1
        else:
            break
    return DescentResult(phi, agreement)
