"""The space of mod-p solutions of the main recurrence and its projection V_p.

W_p (all F_p-solutions) is infinite dimensional; its projection to
(C_1, ..., C_4) is, for good p distinct from 3, the 2-dimensional kernel of
two explicit linear forms: the residue hyperplane and a Cartier form built
from the invariants (alpha', beta') of the reduced curve (their integer rows
live in ``recurrence``).  The independent oracle for the closed form decides
for every vector of F_p^4 whether some choice of free values extends it,
from the linear map that takes data and free values to the recurrence's
consistency residuals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .cartier import (
    alphabeta_quartic,
    cartier_laurent,
    exactness_scan_bound,
    first_disagreement,
    hasse_window,
    require_good_prime,
)
from .curve import Q_COEFFS, expand_to_bound, origin_place, s_series, xi_form
from .linalg import kernel_mod, rank_mod
from .recurrence import (
    CONSTANT_BLOCK,
    HYPERPLANE_FORM,
    MAIN_INITIAL_DATA,
    MAIN_RECURRENCE,
    T2_BLOCK,
    extend_modp,
    form_value,
    poly_eval,
    window_mod,
)

EXCLUDED_PRIMES = (2, 3, 5, 13)
#: the largest p at which V_p is checked against all of F_p^4 (the brute-force
#: oracle) and the union theorem over all of V_p, unless a sample is asked for
EXHAUSTIVE_PMAX = 31


def require_vp_prime(p: int) -> int:
    require_good_prime(p)
    if p in EXCLUDED_PRIMES:
        raise ValueError(f"p = {p} is excluded from the V_p theory")
    return p


def cartier_form(p: int) -> list[int]:
    """65 alpha' CONSTANT_BLOCK + (alpha' + 4 beta') T2_BLOCK mod p."""
    require_vp_prime(p)
    inv = alphabeta_quartic(p)
    a, b = inv.alpha, inv.beta
    return [(65 * a * x + (a + 4 * b) * y) % p for x, y in zip(CONSTANT_BLOCK, T2_BLOCK)]


def special_vector_mod(p: int) -> tuple[int, int, int, int]:
    return MAIN_INITIAL_DATA.reduce_mod(p)[1:]


def tail_vector_mod(p: int) -> tuple[int, int, int, int]:
    """(c_{p+1}, ..., c_{p+4}) reduced mod p, read off the window at p by
    recurrence.window_mod (step-matrix products over Z/p^2)."""
    return window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, p, p)[1:]


# -- exhaustive extension ----------------------------------------------------------


def _unit(i: int, n: int) -> list[int]:
    return [int(j == i) for j in range(n)]


def extension_constraints(p: int, blocks: int) -> tuple[list[list[int]], list[list[int]]]:
    """The consistency residuals at the free indices below blocks*p+2 as a
    linear map of the data (C_1..C_4) and the free choices.

    Every step of the recurrence over F_p is linear, so the residual vector
    of data V with free choices f is A V + S f.  Returns (A, S): column i of
    A holds the residuals of recurrence.extend_modp on (0, e_i) with every
    free choice 0, column j of S those on zero data with free choice j equal
    to 1 and the others 0.  A has k rows, one per free index, and 4 columns;
    S has k rows and ``blocks`` columns.
    """
    # for odd p the free indices m = 1 mod p below blocks*p+2 are at most
    # ``blocks``; at p = 2 every index is free
    if p < 3:
        raise ValueError("extension_constraints requires p >= 3")
    if blocks < 1:
        raise ValueError(f"blocks = {blocks}: the search needs at least one block")
    n_terms = blocks * p + 2

    def residuals(init: list[int], free: list[int]) -> list[int]:
        return [r for _, r in extend_modp(MAIN_RECURRENCE, init, p, n_terms, free).residuals]

    a_cols = [residuals([0, *_unit(i, 4)], []) for i in range(4)]
    s_cols = [residuals([0] * 5, _unit(j, blocks)) for j in range(blocks)]
    return [list(row) for row in zip(*a_cols)], [list(row) for row in zip(*s_cols)]


def vp_bruteforce_mask(p: int, blocks: int = 2) -> np.ndarray:
    """Boolean mask over F_p^4 (C-order index (C1,C2,C3,C4)) of data that
    extend to index blocks*p+1 for some exhaustive combination of free choices.

    V survives iff A V + S f = 0 for some free choices f (extension_constraints),
    i.e. iff A V lies in the column space of S; equivalently N A V = 0, where
    the rows of N span the left null space of S.  The mask is the span of
    ker(N A), written by _membership_mask.
    """
    require_good_prime(p)
    a_matrix, s_matrix = extension_constraints(p, blocks)
    left_null = kernel_mod(list(zip(*s_matrix)), p)
    forms = [[sum(n * a for n, a in zip(nu, col)) % p for col in zip(*a_matrix)] for nu in left_null]
    return _membership_mask(p, forms)


def vp_bruteforce_literal(p: int, blocks: int = 2) -> np.ndarray:
    """The mask of vp_bruteforce_mask (same C order) by plain enumeration over
    (V, first free choice) without the linear-algebra shortcut; feasible for
    p <= 11.  Used to cross-check the linear-algebra oracle.

    The coefficients P_j(n) mod p of every step are tabulated once per call,
    the lead as -1/P_5(n) (0 at a free index)."""
    require_good_prime(p)
    if blocks < 1:
        raise ValueError(f"blocks = {blocks}: the search needs at least one block")
    n_terms = blocks * p + 2
    steps = []
    for n in range(n_terms - 5):
        lower = [(off, poly_eval(poly, n) % p) for off, poly in MAIN_RECURRENCE.shifts[:-1]]
        lead = poly_eval(MAIN_RECURRENCE.leading_poly, n) % p
        steps.append((n, lower, -pow(lead, -1, p) % p if lead else 0))
    mask = np.zeros(p**4, dtype=bool)
    for flat, v in enumerate(product(range(p), repeat=4)):
        for f1 in range(p):
            vals = [0, *v]
            ok = True
            for n, lower, neg_inv in steps:
                acc = sum(c * vals[n + off] for off, c in lower) % p
                if neg_inv:
                    vals.append(acc * neg_inv % p)
                elif acc:
                    ok = False
                    break
                else:
                    vals.append(f1 if n + 5 == p + 1 else 0)
            if ok:
                mask[flat] = True
                break
    return mask


# -- V_p ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VpSpace:
    p: int
    hyperplane: tuple[int, int, int, int]
    cartier: tuple[int, int, int, int]
    basis: tuple[tuple[int, ...], tuple[int, ...]]
    dim: int

    def contains(self, v: Sequence[int]) -> bool:
        return all(form_value(row, v) % self.p == 0 for row in (self.hyperplane, self.cartier))

    def elements(self):
        """All p^2 members (spanned by the two basis vectors)."""
        p = self.p
        b1, b2 = self.basis
        for a in range(p):
            for b in range(p):
                yield tuple((a * x + b * y) % p for x, y in zip(b1, b2))


def compute_vp(p: int, brute_validate: bool | None = None) -> VpSpace:
    """V_p as the kernel of the hyperplane and Cartier forms; dimension 2,
    containing the reductions of (1, 2, -1/8, -1/2) and (c_{p+1..p+4}).

    For p <= EXHAUSTIVE_PMAX (default) the kernel is cross-validated on all
    of F_p^4 against the survivors of the extension oracle
    (vp_bruteforce_mask), which reads them off the recurrence's residual map
    and none of the closed-form rows.
    """
    require_vp_prime(p)
    hyper = [v % p for v in HYPERPLANE_FORM]
    cart = cartier_form(p)
    kern = kernel_mod([hyper, cart], p)
    dim = len(kern)
    if dim != 2:
        raise AssertionError(f"dim V_{p} = {dim} != 2")
    special = special_vector_mod(p)
    tail = tail_vector_mod(p)
    space = VpSpace(p, tuple(hyper), tuple(cart), (special, tail), dim)
    for v in (special, tail):
        if not space.contains(v):
            raise AssertionError(f"basis vector {v} escapes the closed form at p = {p}")
    if rank_mod([list(special), list(tail)], p) != 2:
        raise AssertionError(f"the two basis vectors are dependent at p = {p}")
    if brute_validate is None:
        brute_validate = p <= EXHAUSTIVE_PMAX
    if brute_validate:
        mask = vp_bruteforce_mask(p)
        member = _membership_mask(p, [hyper, cart])
        if not np.array_equal(mask, member):
            raise AssertionError(f"brute-force survivors differ from closed form at p = {p}")
        if int(mask.sum()) != p * p:
            raise AssertionError(f"survivor count {int(mask.sum())} != p^2 at p = {p}")
    return space


def _membership_mask(p: int, forms: list[list[int]]) -> np.ndarray:
    """Boolean mask over F_p^4 (C-order) of the vectors every form kills.

    The kernel has a basis b_1..b_r; its p^r members sum_j a_j b_j are formed
    coordinate by coordinate on an r-dimensional grid of (a_1..a_r) and set in
    the mask by their flat C-order index.
    """
    # the zero row fixes the width at 4 when there are no forms
    basis = kernel_mod([[0] * 4, *forms], p)
    r = len(basis)
    grid = [np.arange(p, dtype=np.int64).reshape([p if i == j else 1 for i in range(r)]) for j in range(r)]
    flat = np.zeros((), np.int64)
    for c in range(4):
        flat = flat * p + sum(b[c] * a for b, a in zip(basis, grid)) % p
    mask = np.zeros(p**4, dtype=bool)
    mask[flat] = True
    return mask


# -- sigma blocks -------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaBlocks:
    p: int
    blocks: tuple[tuple[int, ...], ...]
    tails_satisfy: bool
    first_two_independent: bool


def sigma_blocks(p: int, m_max: int) -> SigmaBlocks:
    """sigma_m = (c_{pm+1}, ..., c_{pm+p-1}) mod p; each tail (c_{mp+n})_n
    satisfies the recurrence, and sigma_0, sigma_1 are independent."""
    require_good_prime(p)
    cbar = s_series((m_max + 2) * p + 6, modulus=p).coeffs
    blocks = tuple(tuple(cbar[m * p + 1 : m * p + p]) for m in range(m_max + 1))
    tails_ok = all(MAIN_RECURRENCE.satisfies(cbar[m * p :], modulus=p) for m in range(m_max + 1))
    indep = rank_mod([list(blocks[0]), list(blocks[1])], p) == 2 if m_max >= 1 else False
    return SigmaBlocks(p, blocks, tails_ok, indep)


# -- extendability ------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendabilityResult:
    closed_form: bool
    series_route: bool
    witness_m: int | None

    @property
    def agree(self) -> bool:
        return self.closed_form == self.series_route

    @property
    def extendable(self) -> bool:
        return self.closed_form


def extendability_test(init4: Sequence[int], p: int) -> ExtendabilityResult:
    """Decide membership in V_p two ways: (a) the two closed linear forms,
    (b) exactness of the attached differential form, decided from expansion
    coefficients."""
    require_vp_prime(p)
    closed = all(form_value(row, init4) % p == 0 for row in (HYPERPLANE_FORM, cartier_form(p)))
    [first] = first_disagreement([(xi_form(init4, p), None, 1)], p)
    result = ExtendabilityResult(closed, first is None, None if first is None else first + 1)
    if not result.agree:
        raise AssertionError(f"extendability routes disagree at p = {p}, init = {tuple(init4)}")
    return result


def xi_obstruction_matrix(p: int) -> list[list[int]]:
    """Rows f = 0..B + 4 of the coefficients of C(xi(e_i)) for the basis
    forms xi(e_i), with B + 4 = exactness_scan_bound: the exponents through
    which first_disagreement proves exactness.  A vector extends iff this
    matrix kills it (bulk form of the series route)."""
    require_vp_prime(p)
    units = [xi_form([int(i == j) for j in range(4)], p) for i in range(4)]
    rows = max(exactness_scan_bound(u) for u in units) + 1
    images = [cartier_laurent(w, p) for w in expand_to_bound(units, origin_place(+1, p), rows * p)]
    return [[c.coefficient(f) for c in images] for f in range(rows)]


# -- Theorem on C_p = C_1 -------------------------------------------------------------


@dataclass
class UnionReport:
    p: int
    checked: int
    equivalence_holds: bool
    counterexample: tuple | None = None
    degenerate: bool | None = None


def union_functional_degenerate(p: int) -> bool:
    """Whether C_p - C_1 vanishes identically on V_p, i.e. c_{2p} = c_{p+1}
    mod p.  The map v -> C_p(v) - C_1(v) is linear on the 2-dimensional V_p
    and kills the special line; it kills the tail basis vector exactly when
    this congruence holds, and then EVERY member of V_p passes the C_p = C_1
    test.  Sporadic: the only instance below 1050 is p = 37; the second is
    p = 25171, and both are tested.

    Decided mod p.  With m = (p-1)/2 and a_k = [x^k] Q^m: s = 2x(1+2x)Q^(-1/2)
    and Q^(p/2) = Q(x^p)^(1/2) = 2 + O(x^(2p)) give c_n = a_(n-1) + 2 a_(n-2)
    for n <= 2p.  Q^m is monic of degree 2p - 2, so c_{2p} = 2, and
    c_{p+1} = a_p + 2 alpha' (alpha' = a_(p-1)): p is degenerate iff
    a_p + 2 alpha' = 2.  For the reversed quartic Q~ = x^4 Q(1/x),
    [x^j] Q~^m = a_(2p-2-j), so its Hasse window at p - 1 is
    (a_(p+2), a_(p+1), a_p, a_(p-1))."""
    require_vp_prime(p)
    _, _, a_p, alpha = hasse_window(Q_COEFFS[::-1], p, p - 1)
    return (a_p + 2 * alpha) % p == 2


def union_check(p: int, sample: int | None = None, seed: int = 0) -> UnionReport:
    """C_p = C_1 exactly on the scalar multiples of the special vector,
    over all of V_p, or over ``sample`` members drawn with ``seed``.

    No index up to p is free, so C_p is the linear form ell.V with
    ell_i = C_p of the extension of (0, e_i); both sides are decided for all
    members at once, and the first member (in elements() or sample order)
    on which they differ is the counterexample.  At a degenerate prime
    (c_{2p} = c_{p+1} mod p; see union_functional_degenerate) the
    equivalence genuinely fails and the report carries a counterexample with
    the diagnostic set."""
    require_vp_prime(p)
    if sample is not None and sample < 1:
        raise ValueError(f"sample = {sample}: the check needs at least one member")
    space = compute_vp(p, brute_validate=False)
    if sample is None:
        coords = np.divmod(np.arange(p * p), p)
    else:
        rng = random.Random(seed)
        coords = np.array([(rng.randrange(p), rng.randrange(p)) for _ in range(sample)]).T
    # int64 holds the sums of four products below p^2 while p < 2^30
    dtype = np.int64 if p < 2**30 else object
    a, b = (np.asarray(c, dtype=dtype)[:, None] for c in coords)
    b1, b2 = (np.array(v, dtype=dtype) for v in space.basis)
    members = (a * b1 + b * b2) % p
    ell = np.array([extend_modp(MAIN_RECURRENCE, (0, *_unit(i, 4)), p, p + 1).values[p] for i in range(4)], dtype)
    # proportional to the special vector s (s_1 = 1): C_i = C_1 s_i
    proportional = ((members[:, :1] * np.array(special_vector_mod(p), dtype) - members) % p == 0).all(axis=1)
    failing = np.flatnonzero((members @ ell % p == members[:, 0]) != proportional)
    if failing.size:
        i = int(failing[0])
        return UnionReport(p, i + 1, False, tuple(int(c) for c in members[i]), union_functional_degenerate(p))
    return UnionReport(p, len(members), True)


# -- W_p witnesses ---------------------------------------------------------------------


@dataclass(frozen=True)
class WpWitnesses:
    p: int
    sequences: tuple[list[int], ...]
    satisfy: bool
    independent: bool


def wp_witnesses(p: int, k: int) -> WpWitnesses:
    """k candidate members of W_p: the coefficient sequences of x^(jp) s(x)
    mod p (j = 0..k-1), each of length (k + 3) p + 10; for p = 2 the family
    x^(2j) (1 + x).  ``satisfy`` says whether each one satisfies the
    recurrence mod p, ``independent`` whether their valuations are distinct
    (so they are independent)."""
    length = (k + 3) * p + 10
    if p == 2:
        seqs = [([0] * (2 * j) + [1, 1] + [0] * length)[:length] for j in range(k)]
    else:
        cbar = s_series(length, modulus=p).coeffs
        seqs = [[0] * (j * p) + cbar[: length - j * p] for j in range(k)]
    satisfy = all(MAIN_RECURRENCE.satisfies(w, modulus=p) for w in seqs)
    vals = [next((i for i, c in enumerate(w) if c), None) for w in seqs]
    independent = None not in vals and len(set(vals)) == len(vals)
    return WpWitnesses(p, tuple(seqs), satisfy, independent)
