"""The space of mod-p solutions of the main recurrence and its projection V_p.

W_p (all F_p-solutions) is infinite dimensional; its projection to
(C_1, ..., C_4) is, for good p distinct from 3, the 2-dimensional kernel of
two explicit linear forms: the residue hyperplane and a Cartier form built
from the invariants (alpha', beta') of the reduced curve (their integer rows
live in ``recurrence``).  A fully enumerative extension search over F_p^4
(vectorized) serves as the independent oracle for the closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .cartier import alphabeta_quartic, exactness_test, require_good_prime
from .curve import expand_form, origin_place, s_series, xi_form
from .exactnum import reduce_fraction_mod
from .linalg import kernel_mod, rank_mod
from .recurrence import (
    CONSTANT_BLOCK,
    HYPERPLANE_FORM,
    MAIN_INITIAL_DATA,
    MAIN_RECURRENCE,
    SPECIAL_DIRECTION,
    T2_BLOCK,
    _step_modp,
    extend_integral,
    extend_modp,
    form_value,
    poly_eval,
)

EXCLUDED_PRIMES = (2, 3, 5, 13)


def require_vp_prime(p: int) -> int:
    require_good_prime(p)
    if p in EXCLUDED_PRIMES:
        raise ValueError(f"p = {p} is excluded from the V_p theory")
    return p


def cartier_form(p: int) -> list[int]:
    """65 alpha' CONSTANT_BLOCK + (alpha' + 4 beta') T2_BLOCK mod p."""
    require_vp_prime(p)
    inv = alphabeta_quartic(p)
    a, b = inv.alpha.value, inv.beta.value
    return [
        (65 * a * x + (a + 4 * b) * y) % p
        for x, y in zip(CONSTANT_BLOCK, T2_BLOCK)
    ]


def special_vector_mod(p: int) -> tuple[int, int, int, int]:
    return tuple(reduce_fraction_mod(v, p) for v in SPECIAL_DIRECTION)


def tail_vector_mod(p: int) -> tuple[int, int, int, int]:
    """(c_{p+1}, ..., c_{p+4}) reduced mod p."""
    nums, dens = extend_integral(MAIN_RECURRENCE, MAIN_INITIAL_DATA, p + 5)
    return tuple(reduce_fraction_mod((nums[p + i], dens[p + i]), p) for i in (1, 2, 3, 4))


# -- vectorized exhaustive extension ------------------------------------------------


def _enumerate_initials(p: int, lanes: int = 0) -> list[np.ndarray]:
    """The window (C_0, ..., C_4) = (0, V) for every V in F_p^4 (C-order),
    followed by ``lanes`` all-zero lanes."""
    total = p**4
    idx = np.arange(total + lanes, dtype=np.int64)
    window = [np.zeros(total + lanes, dtype=np.int64)]
    for k in range(4):
        col = idx // p ** (3 - k) % p
        col[total:] = 0
        window.append(col)
    return window


def extension_constraints(p: int, blocks: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Run the recurrence on every vector of F_p^4 at once (free choices 0)
    and on the unit free-choice sequences.

    Returns (constraint value arrays L_k over F_p^4, sensitivity matrix S with
    S[k][j] = effect of free choice j on constraint k).  The unit sequences
    ride along as ``blocks`` extra lanes (lane j is 1 at the j-th free index,
    0 elsewhere), and only the last five values are kept: memory is O(p^4).
    """
    # for odd p the free indices m = 1 mod p below blocks*p+2 are at most
    # ``blocks``; at p = 2 every index is free
    if p < 3:
        raise ValueError("extension_constraints requires p >= 3")
    total = p**4
    window = _enumerate_initials(p, lanes=blocks)
    constraints: list[np.ndarray] = []
    lane_rows: list[np.ndarray] = []
    for m in range(5, blocks * p + 2):
        value, residual = _step_modp(MAIN_RECURRENCE, window, m - 5, p)
        if value is None:
            value = np.zeros(total + blocks, dtype=np.int64)
            value[total + len(constraints)] = 1
            constraints.append(residual[:total])
            lane_rows.append(residual[total:])
        window = window[1:] + [value]
    k = len(constraints)
    s_matrix = np.array([row[:k] for row in lane_rows], dtype=np.int64)
    return constraints, s_matrix


def vp_bruteforce_mask(p: int, blocks: int = 2) -> np.ndarray:
    """Boolean mask over F_p^4 (C-order index (C1,C2,C3,C4)) of data that
    extend to index blocks*p+1 for some exhaustive combination of free choices.

    A vector survives iff the constraint vector L(V) lies in the column space
    of the (constant) sensitivity matrix; equivalently every left-null form of
    that matrix kills L(V).
    """
    require_good_prime(p)
    constraints, s_matrix = extension_constraints(p, blocks)
    if not constraints:
        return np.ones(p**4, dtype=bool)
    # with a constraint there is at least one lane, so s_matrix is not empty
    left_null = kernel_mod([list(col) for col in s_matrix.T], p)
    mask = np.ones(p**4, dtype=bool)
    for nu in left_null:
        acc = np.zeros(p**4, dtype=np.int64)
        for k, coef in enumerate(nu):
            if coef:
                acc = (acc + coef * constraints[k]) % p
        mask &= acc == 0
    return mask


def vp_bruteforce(p: int, blocks: int = 2) -> set[tuple[int, int, int, int]]:
    mask = vp_bruteforce_mask(p, blocks)
    out = set()
    for flat in np.nonzero(mask)[0]:
        flat = int(flat)
        v = (
            flat // p**3 % p,
            flat // p**2 % p,
            flat // p % p,
            flat % p,
        )
        out.add(v)
    return out


def vp_bruteforce_literal(p: int, blocks: int = 2) -> set[tuple[int, int, int, int]]:
    """Plain enumeration over (V, first free choice) without the linear-algebra
    shortcut; feasible for p <= 11.  Used to cross-check the vectorized oracle."""
    require_good_prime(p)
    n_terms = blocks * p + 2
    out = set()
    for v in product(range(p), repeat=4):
        good = False
        for f1 in range(p):
            vals = [0, *v]
            ok = True
            for m in range(5, n_terms):
                n = m - 5
                lead = poly_eval(MAIN_RECURRENCE.leading_poly, n) % p
                acc = 0
                for j, (off, poly) in enumerate(MAIN_RECURRENCE.shifts[:-1]):
                    acc = (acc + poly_eval(poly, n) * vals[n + off]) % p
                if lead == 0:
                    if acc:
                        ok = False
                        break
                    vals.append(f1 if m == p + 1 else 0)
                else:
                    vals.append(-acc * pow(lead, -1, p) % p)
            if ok:
                good = True
                break
        if good:
            out.add(v)
    return out


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

    For p <= 31 (default) the kernel is cross-validated against the
    exhaustive extension search over all of F_p^4.
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
        brute_validate = p <= 31
    if brute_validate:
        mask = vp_bruteforce_mask(p)
        member = _membership_mask(p, [hyper, cart])
        if not np.array_equal(mask, member):
            raise AssertionError(f"brute-force survivors differ from closed form at p = {p}")
        if int(mask.sum()) != p * p:
            raise AssertionError(f"survivor count {int(mask.sum())} != p^2 at p = {p}")
    return space


def _membership_mask(p: int, forms: list[list[int]]) -> np.ndarray:
    window = _enumerate_initials(p)[1:]
    mask = np.ones(p**4, dtype=bool)
    for form in forms:
        acc = np.zeros(p**4, dtype=np.int64)
        for coef, arr in zip(form, window):
            if coef % p:
                acc = (acc + coef * arr) % p
        mask &= acc == 0
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
    blocks = tuple(
        tuple(cbar[m * p + 1 : m * p + p]) for m in range(m_max + 1)
    )
    tails_ok = all(
        MAIN_RECURRENCE.satisfies(cbar[m * p :], modulus=p) for m in range(m_max + 1)
    )
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
    res = exactness_test(xi_form(init4, p), p)
    result = ExtendabilityResult(closed, res.exact, res.witness_m)
    if not result.agree:
        raise AssertionError(f"extendability routes disagree at p = {p}, init = {tuple(init4)}")
    return result


def xi_obstruction_matrix(p: int, blocks: int = 8) -> list[list[int]]:
    """Rows m = 1..blocks of the x^(mp-1) expansion coefficients of the basis
    forms xi(e_i); a vector extends iff this matrix kills it (bulk form of the
    series route)."""
    require_vp_prime(p)
    n = p * (blocks + 1) + 4
    place = origin_place(+1, n + 32, p)
    cols = []
    for i in range(4):
        e = [0, 0, 0, 0]
        e[i] = 1
        w = expand_form(xi_form(e, p), place, slack=16)
        cols.append([w.coefficient(m * p - 1) for m in range(1, blocks + 1)])
    return [[cols[i][m] for i in range(4)] for m in range(blocks)]


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
    test.  Sporadic: the only instance below 1050 is p = 37."""
    require_vp_prime(p)
    nums, dens = extend_integral(MAIN_RECURRENCE, MAIN_INITIAL_DATA, 2 * p + 1)
    c2p, cp1 = (reduce_fraction_mod((nums[i], dens[i]), p) for i in (2 * p, p + 1))
    return c2p == cp1


def _is_proportional_mod(v: Sequence[int], p: int) -> bool:
    s = special_vector_mod(p)
    # v = lam * s with s_1 = 1, so lam = v_1
    lam = v[0] % p
    return all((lam * si - vi) % p == 0 for si, vi in zip(s, v))


def union_check(p: int, sample: int | None = None, seed: int = 0) -> UnionReport:
    """C_p = C_1 exactly on the scalar multiples of the special vector,
    over all of V_p (exhaustive for p <= 31 unless a sample size is given).

    At a degenerate prime (c_{2p} = c_{p+1} mod p; see
    union_functional_degenerate) the equivalence genuinely fails and the
    report carries a counterexample with the diagnostic set."""
    require_vp_prime(p)
    space = compute_vp(p, brute_validate=False)
    if sample is None and p > 31:
        sample = 500
    if sample is None:
        candidates = list(space.elements())
    else:
        rng = random.Random(seed)
        b1, b2 = space.basis
        candidates = []
        for _ in range(sample):
            a, b = rng.randrange(p), rng.randrange(p)
            candidates.append(tuple((a * x + b * y) % p for x, y in zip(b1, b2)))
    checked = 0
    for v in candidates:
        sol = extend_modp(MAIN_RECURRENCE, (0, *v), p, p + 1)
        if not sol.ok:
            raise AssertionError(f"member of V_p fails to reach index p at p = {p}: {v}")
        agrees = sol.values[p] == v[0] % p
        proportional = _is_proportional_mod(v, p)
        if agrees != proportional:
            return UnionReport(p, checked + 1, False, v, union_functional_degenerate(p))
        checked += 1
    return UnionReport(p, checked, True)


# -- W_p witnesses ---------------------------------------------------------------------


@dataclass(frozen=True)
class WpWitnesses:
    p: int
    sequences: tuple[list[int], ...]
    satisfy: bool
    independent: bool


def wp_witnesses(p: int, k: int, length: int | None = None) -> WpWitnesses:
    """k candidate members of W_p: the coefficient sequences of x^(jp) s(x)
    mod p (j = 0..k-1); for p = 2 the family x^(2j) (1 + x).  ``satisfy``
    says whether each one satisfies the recurrence mod p, ``independent``
    whether their valuations are distinct (so they are independent)."""
    if length is None:
        length = (k + 3) * p + 10
    if p == 2:
        seqs = []
        for j in range(k):
            w = [0] * (2 * j) + [1, 1]
            w += [0] * (length - len(w))
            seqs.append([v % 2 for v in w[:length]])
    else:
        cbar = s_series(length, modulus=p).coeffs
        seqs = []
        for j in range(k):
            seqs.append([0] * (j * p) + cbar[: length - j * p])
    satisfy = all(MAIN_RECURRENCE.satisfies(w, modulus=p) for w in seqs)
    vals = [next((i for i, c in enumerate(w) if c), None) for w in seqs]
    independent = None not in vals and len(set(vals)) == len(vals)
    return WpWitnesses(p, tuple(seqs), satisfy, independent)
