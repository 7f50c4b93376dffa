import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curveseq.cartier import alphabeta_quartic, hasse_window, reduce_form
from curveseq.curve import Q_COEFFS, k_constants, xi_form
from curveseq.exactnum import is_prime, reduce_fraction_mod
from curveseq.linalg import rank_mod
from curveseq.modpspace import (
    EXCLUDED_PRIMES,
    _membership_mask,
    cartier_form,
    compute_vp,
    extension_constraints,
    extendability_test,
    sigma_blocks,
    special_vector_mod,
    tail_vector_mod,
    union_check,
    union_functional_degenerate,
    vp_bruteforce_literal,
    vp_bruteforce_mask,
    wp_witnesses,
    xi_obstruction_matrix,
)
from curveseq.recurrence import (
    CONSTANT_BLOCK,
    HYPERPLANE_FORM,
    MAIN_INITIAL_DATA,
    MAIN_RECURRENCE,
    T2_BLOCK,
    InitialData,
    extend_modp,
    form_value,
    window_mod,
)


def test_compute_vp_small_primes():
    for p in (7, 11):
        space = compute_vp(p)  # brute-validated by default
        assert space.dim == 2
        assert space.contains(space.basis[0]) and space.contains(space.basis[1])


def test_compute_vp_medium_primes_closed_form():
    for p in (17, 19, 23, 37, 101):
        space = compute_vp(p, brute_validate=(p <= 23))
        assert space.dim == 2


def test_literal_bruteforce_agrees():
    for p in (7, 11):
        assert np.array_equal(vp_bruteforce_literal(p), vp_bruteforce_mask(p))


def test_bruteforce_stable_at_deeper_blocks():
    # the survivor set is already exact at depth 2p+2; deeper searches with
    # more free choices must not change it
    for p in (7, 11):
        base = vp_bruteforce_mask(p, blocks=2)
        deeper = vp_bruteforce_mask(p, blocks=4)
        assert np.array_equal(base, deeper)


def test_bruteforce_oracle_memory_is_o_p4():
    # the oracle keeps no history: 4 + blocks scalar residual runs on a
    # five-term window, then the boolean mask, so peak memory stays within a
    # fixed number of p^4 int64 arrays, independent of p
    import tracemalloc

    p = 23
    tracemalloc.start()
    try:
        vp_bruteforce_mask(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * p**4 * 8


def test_bruteforce_oracle_memory_is_o_p3_plus_mask():
    # beside the boolean mask (p^4 bytes) the oracle holds the k x 4 and
    # k x blocks residual matrices and the p^2 flat indices of the survivors'
    # span; a single p^4 int16 temporary would add 2 p^4 = 46 p^3 at p = 23
    import tracemalloc

    p = 23
    tracemalloc.start()
    try:
        vp_bruteforce_mask(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * p**4 + 32 * p**3


def test_bruteforce_mask_agrees_with_literal_at_each_depth():
    for blocks in (1, 2, 3):
        assert np.array_equal(vp_bruteforce_mask(7, blocks), vp_bruteforce_literal(7, blocks))


def test_bruteforce_mask_is_the_closed_form_at_every_good_prime_to_31():
    for p in (7, 11, 17, 19, 23, 29, 31):
        mask = vp_bruteforce_mask(p)
        assert np.array_equal(mask, _membership_mask(p, [list(HYPERPLANE_FORM), cartier_form(p)]))
        assert int(mask.sum()) == p * p
    # the membership grid in C order, against a plain enumeration
    p = 7
    forms = [list(HYPERPLANE_FORM), cartier_form(p)]
    member = _membership_mask(p, forms)
    plain = [all(form_value(row, v) % p == 0 for row in forms) for v in product(range(p), repeat=4)]
    assert member.tolist() == plain


@pytest.mark.parametrize("blocks", [0, -1])
def test_oracle_without_blocks_is_a_usage_error(blocks):
    # no block means no free index and no constraint: every vector of F_p^4
    # would survive a search that examined nothing
    for oracle in (vp_bruteforce_mask, vp_bruteforce_literal, extension_constraints):
        with pytest.raises(ValueError, match="at least one block"):
            oracle(7, blocks)


@pytest.mark.parametrize("p", [3, 7, 11])
def test_residuals_are_the_linear_map_of_extension_constraints(p):
    # the oracle rests on this: a run on (0, V) with free choices f gives the
    # residuals A V + S f mod p, and its values are linear in (V, f) too
    rng = random.Random(p)
    for blocks in (1, 2, 3):
        n_terms = blocks * p + 2
        a_matrix, s_matrix = extension_constraints(p, blocks)
        assert len(a_matrix) == len(s_matrix) and all(len(row) == blocks for row in s_matrix)
        # the values of the run on each unit vector of (V, f)
        units = []
        for i in range(4 + blocks):
            e = [int(k == i) for k in range(4 + blocks)]
            units.append(extend_modp(MAIN_RECURRENCE, (0, *e[:4]), p, n_terms, e[4:]).values)
        for _ in range(20):
            v = [rng.randrange(p) for _ in range(4)]
            f = [rng.randrange(p) for _ in range(blocks)]
            sol = extend_modp(MAIN_RECURRENCE, (0, *v), p, n_terms, f)
            got = [r for _, r in sol.residuals]
            want = [(form_value(a, v) + form_value(s, f)) % p for a, s in zip(a_matrix, s_matrix)]
            assert got == want, (p, blocks, v, f)
            assert sol.values == [form_value(col, [*v, *f]) % p for col in zip(*units)], (p, blocks, v, f)


#: form sets of rank 0 to 4, with zero and dependent rows
SPAN_FORMS = (
    [],
    [[0, 0, 0, 0]],
    [[1, 2, 0, 3]],
    [[1, 2, 0, 3], [2, 4, 0, 6]],
    [[0, 0, 1, 0], [0, 0, 0, 0], [0, 1, 0, 2]],
    [[1, 1, 0, 6], [0, 1, 1, 1], [1, 2, 1, 7]],
    [[1, 1, 0, 6], [3, 2, 8, 12], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]],
)


@pytest.mark.parametrize("p", [3, 7])
def test_membership_mask_is_the_plain_enumeration(p):
    rng = random.Random(p)
    form_sets = list(SPAN_FORMS)
    form_sets += [[[rng.randrange(p) for _ in range(4)] for _ in range(n)] for n in (1, 2, 3, 4) for _ in range(3)]
    ranks = set()
    for forms in form_sets:
        plain = [all(form_value(row, v) % p == 0 for row in forms) for v in product(range(p), repeat=4)]
        assert _membership_mask(p, forms).tolist() == plain, forms
        ranks.add(rank_mod(forms, p))
    assert ranks == {0, 1, 2, 3, 4}


def test_excluded_primes_raise():
    for p in (2, 3, 5, 13):
        with pytest.raises(ValueError):
            compute_vp(p)


def test_p3_empirical_dimension_reported():
    # open question: at p = 3 the survivor space is 3-dimensional (the two
    # defining vectors collapse mod 3); computed, not asserted by the theory
    assert vp_bruteforce_mask(3, blocks=4).sum() == 27


def test_defining_forms_independent():
    for p in (7, 11, 17, 19, 23, 29, 31, 41, 97):
        rows = [list(HYPERPLANE_FORM), list(T2_BLOCK), list(CONSTANT_BLOCK)]
        assert rank_mod(rows, p) == 3
    # and they collapse mod 3 (the reason 3 is excluded)
    assert rank_mod([list(HYPERPLANE_FORM), list(T2_BLOCK), list(CONSTANT_BLOCK)], 3) < 3


# rationals whose denominators avoid 7, 11, 17, 19 and 23
p_integral = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 13, 16, 39])
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, 11, 17, 19, 23]), st.tuples(*[p_integral] * 4))
def test_q_and_fp_readings_of_the_initial_data_forms_agree(p, c4):
    # the F_p reading of each form is the reduction of its Q reading
    assert xi_form(c4, p) == reduce_form(xi_form(c4), p)
    init = InitialData.of(0, *c4)
    cbar = [reduce_fraction_mod(c, p) for c in c4]
    space = compute_vp(p, brute_validate=False)
    assert reduce_fraction_mod(init.hyperplane_value, p) == form_value(space.hyperplane, cbar) % p
    k1, k2 = (reduce_fraction_mod(4 * k, p) for k in k_constants(init))
    inv = alphabeta_quartic(p)
    a, b = inv.alpha, inv.beta
    assert (65 * a * k2 + (a + 4 * b) * k1) % p == form_value(space.cartier, cbar) % p
    assert list(space.cartier) == cartier_form(p)


def test_sigma_blocks_p7():
    blocks = sigma_blocks(7, 3)
    assert blocks.blocks[0] == (1, 2, 6, 3, 0, 0)
    assert blocks.tails_satisfy
    assert blocks.first_two_independent


def test_sigma_blocks_p11():
    assert sigma_blocks(11, 2).first_two_independent


def test_extendability_fixtures():
    r = extendability_test((1, 2, 6, 3), 7)
    assert r.extendable and r.agree
    r = extendability_test((0, 0, 0, 1), 7)
    assert not r.extendable and r.agree and r.witness_m is not None and r.witness_m <= 8
    r = extendability_test(tail_vector_mod(11), 11)
    assert r.extendable and r.agree
    # a vector of another length than (C_1, ..., C_4) is refused, not cut
    # short or padded with zeros
    space = compute_vp(7, brute_validate=False)
    for v in ((1, 2, 3), (1, 2, 6, 3, 5)):
        with pytest.raises(ValueError):
            extendability_test(v, 7)
        with pytest.raises(ValueError):
            space.contains(v)


def test_method_agreement_full_f7_f11():
    # routes (a) and (b) agree on all of F_p^4 for p = 7, 11: compare the
    # closed-form membership mask with the series obstruction mask
    for p in (7, 11):
        obstruction = xi_obstruction_matrix(p)
        forms = [list(HYPERPLANE_FORM), cartier_form(p)]
        closed = _membership_mask(p, forms)
        series = _membership_mask(p, obstruction)
        assert np.array_equal(closed, series)
        assert int(closed.sum()) == p * p


def test_method_agreement_random_vectors_larger_primes():
    # 500 random vectors spread over primes up to 101
    rng = random.Random(13)
    for p in (17, 29, 53, 101):
        obstruction = xi_obstruction_matrix(p)
        forms = [list(HYPERPLANE_FORM), cartier_form(p)]
        for _ in range(125):
            v = [rng.randrange(p) for _ in range(4)]
            closed = all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in forms)
            series = all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in obstruction)
            assert closed == series, (p, v)


def test_union_check():
    for p in (7, 11):
        rep = union_check(p)
        assert rep.equivalence_holds and rep.checked == p * p


@pytest.mark.parametrize("p, sample", [(7, 0), (41, -3)])
def test_union_check_without_members_is_a_usage_error(p, sample):
    # a sample that checks nothing must not report the equivalence as holding
    with pytest.raises(ValueError, match="at least one member"):
        union_check(p, sample=sample)


def test_union_check_sampled_large_prime():
    rep = union_check(41, sample=40, seed=5)
    assert rep.equivalence_holds and rep.checked == 40


def test_union_check_lanes_match_scalar_extension():
    # the first member (in order) where C_p = C_1 and proportionality differ,
    # found by extend_modp one member at a time: all of V_p at every good
    # p <= 41, and samples
    good = [p for p in range(7, 42) if is_prime(p) and p not in EXCLUDED_PRIMES]
    for p, sample in [*((p, None) for p in good), (37, 60), (41, 40)]:
        rep = union_check(p, sample=sample, seed=5)
        space = compute_vp(p, brute_validate=False)
        if sample is None:
            members = list(space.elements())
        else:
            rng = random.Random(5)
            b1, b2 = space.basis
            members = []
            for _ in range(sample):
                a, b = rng.randrange(p), rng.randrange(p)
                members.append(tuple((a * x + b * y) % p for x, y in zip(b1, b2)))
        s = special_vector_mod(p)
        failing = [
            i for i, v in enumerate(members)
            if (extend_modp(MAIN_RECURRENCE, (0, *v), p, p + 1).values[p] == v[0])
            != all((v[0] * si - vi) % p == 0 for si, vi in zip(s, v))
        ]
        if failing:
            assert (rep.equivalence_holds, rep.checked, rep.counterexample) == (
                False, failing[0] + 1, members[failing[0]])
        else:
            assert (rep.equivalence_holds, rep.checked, rep.counterexample) == (True, len(members), None)
        assert type(rep.checked) is int and all(type(c) is int for c in rep.counterexample or ())


def test_union_degenerates_at_37():
    """p = 37 is a sporadic prime where the C_p = C_1 test loses its force:
    c_38 = c_74 = 2 mod 37, so the linear functional C_p - C_1 kills all of
    V_37 and non-proportional members pass the test too.  (Only such prime
    below 1050.)"""
    from curveseq.exactnum import reduce_fraction_mod
    from curveseq.modpspace import union_functional_degenerate
    from curveseq.recurrence import main_sequence

    c = main_sequence(80)
    assert reduce_fraction_mod(c[38], 37) == reduce_fraction_mod(c[74], 37) == 2
    assert union_functional_degenerate(37)
    rep = union_check(37, sample=60, seed=5)
    assert not rep.equivalence_holds
    assert rep.degenerate is True
    v = rep.counterexample
    # the counterexample really is a member with C_37 = C_1, not proportional
    sol = extend_modp(MAIN_RECURRENCE, (0, *v), 37, 38)
    assert sol.ok and sol.values[37] == v[0]
    # and none of 7..31 nor 41..101 degenerate, so the required primes stand
    for p in (7, 11, 17, 19, 23, 29, 31, 41, 43, 101):
        assert not union_functional_degenerate(p), p


def test_37_is_the_only_degenerate_prime_below_1050():
    """The sporadic claim in full: among the good primes 7 <= p < 1050 the
    C_p = C_1 functional vanishes on V_p only at p = 37."""
    from curveseq.exactnum import is_prime
    from curveseq.modpspace import EXCLUDED_PRIMES, union_functional_degenerate

    good = [p for p in range(7, 1050) if is_prime(p) and p not in EXCLUDED_PRIMES]
    assert len(good) == 172  # the scan is not vacuous
    assert [p for p in good if union_functional_degenerate(p)] == [37]


def _degenerate_zp2(p: int) -> tuple[bool, int]:
    """The Z/p^2 reference: c_{p+1} and c_{2p} from the order-5 recurrence
    (the last entries of its windows at p - 3 and 2p - 4); returns whether
    they agree, and c_{2p}."""
    cp1, c2p = (window_mod(MAIN_RECURRENCE, MAIN_INITIAL_DATA, p, n)[-1] for n in (p - 3, 2 * p - 4))
    return c2p == cp1, c2p


GOOD_BELOW_1050 = [p for p in range(7, 1050) if is_prime(p) and p not in EXCLUDED_PRIMES]


def test_degeneracy_from_the_reversed_quartic_matches_the_recurrence():
    """The mod-p route (a_p + 2 alpha' = 2 off the Hasse window of
    x^4 Q(1/x)) agrees with c_{2p} = c_{p+1} read off the order-5
    recurrence over Z/p^2, at every good p < 1050 and at the second
    degenerate prime 25171; c_{2p} = 2 at each of them."""
    for p in [*GOOD_BELOW_1050, 25171]:
        reference, c2p = _degenerate_zp2(p)
        assert union_functional_degenerate(p) == reference, p
        assert c2p == 2, p
    assert union_functional_degenerate(25171)


def test_reversed_quartic_window_reads_alpha():
    """[x^j] Q~^m = a_(2p-2-j), so the last entry of the reversed quartic's
    window at p - 1 is a_(p-1) = alpha'."""
    for p in GOOD_BELOW_1050:
        assert hasse_window(Q_COEFFS[::-1], p, p - 1)[-1] == alphabeta_quartic(p).alpha, p


def test_degeneracy_reference_catches_a_shifted_coefficient():
    """A route that read a_(p+1) in place of a_p would be caught by the
    Z/p^2 reference below 1050."""

    def shifted(p):
        _, a_p1, _, alpha = hasse_window(Q_COEFFS[::-1], p, p - 1)
        return (a_p1 + 2 * alpha) % p == 2

    assert any(shifted(p) != _degenerate_zp2(p)[0] for p in GOOD_BELOW_1050)


def test_union_counterexample_at_37_from_first_principles():
    """Machinery-independent witness for the p = 37 degeneracy: the sequence
    u_n = 16 c_n + 22 c_{37+n} (mod 37) is a sum of two honest solutions
    (the reduced main sequence and its block-37 tail), satisfies every window,
    projects to the non-proportional vector (23, 13, 13, 31), and still has
    u_37 = u_1."""
    from curveseq.exactnum import reduce_fraction_mod
    from curveseq.modpspace import special_vector_mod
    from curveseq.recurrence import main_sequence

    p = 37
    c = main_sequence(6 * p)
    cbar = [reduce_fraction_mod(x, p) for x in c]
    u = [(16 * cbar[n] + 22 * cbar[p + n]) % p for n in range(5 * p)]
    assert MAIN_RECURRENCE.satisfies(u, modulus=p)
    v = tuple(u[1:5])
    assert v == (23, 13, 13, 31)
    s = special_vector_mod(p)
    lam = v[0]
    assert any((lam * si - vi) % p for si, vi in zip(s, v))  # not proportional
    assert u[p] == u[1]


def test_union_tail_vector_breaks_cp_equals_c1():
    # the second basis vector is not proportional, so C_p != C_1 on it
    p = 7
    tail = tail_vector_mod(p)
    sol = extend_modp(MAIN_RECURRENCE, (0, *tail), p, p + 1)
    assert sol.ok
    assert sol.values[p] != tail[0]


def test_union_scalar_multiples_of_special():
    p = 7
    special = special_vector_mod(p)
    for lam in range(p):
        v = tuple(lam * x % p for x in special)
        sol = extend_modp(MAIN_RECURRENCE, (0, *v), p, p + 1)
        assert sol.ok and sol.values[p] == v[0]


def test_wp_witnesses():
    wp = wp_witnesses(7, 3)
    assert wp.satisfy and wp.independent
    seqs = wp.sequences
    assert len(seqs) == 3
    assert seqs[0][1] == 1  # the reduced main sequence
    assert all(v == 0 for v in seqs[1][:7])
    wp2 = wp_witnesses(2, 4)
    assert wp2.satisfy and wp2.independent
    assert all(MAIN_RECURRENCE.satisfies(w, modulus=2) for w in wp2.sequences)


def test_corollary_finitely_many_integral_primes():
    # for data off the hyperplane, every good prime 7 <= p <= 31 sees a
    # non-p-integral term by index 8p
    from curveseq.exactnum import padic_valuation
    from curveseq.recurrence import InitialData, extend_rational

    init = InitialData.of(0, 0, 0, 0, 1)
    seq = extend_rational(MAIN_RECURRENCE, init, 8 * 31 + 1)
    for p in (7, 11, 17, 19, 23, 29, 31):
        witness = next(
            (n for n in range(len(seq)) if padic_valuation(seq[n], p) < 0), None
        )
        assert witness is not None and witness <= 8 * p, p
