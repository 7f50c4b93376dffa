"""Command-line front end: verification suites with machine-readable reports.

Every subcommand runs a battery of checks, prints a human table, and with
--json PATH writes the report as JSON.  Exit status: 0 all checks pass,
1 a claim refuted, 2 usage or domain error (a one-line message, no
traceback), 141 (128 + SIGPIPE) the reader closed stdout.  Rationals are
serialized as "num/den" strings; values mod p are plain ints in [0, p).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cartier import (
    alphabeta_quartic,
    exactness_scan_bound,
    first_disagreement,
    legendre_hasse,
    require_good_prime,
)
from .curve import (
    BAD_PRIMES,
    WEIERSTRASS_A,
    WEIERSTRASS_B,
    CurveForm,
    closed_forms,
    curve_model_checks,
    eta,
    omega,
    s_series,
    two_adic_facts,
    verify_algebraic_identities,
    xi_form,
    xi_s,
)
from .descent import main_operator
from .exactnum import is_prime, require_prime
from .frobenius import asd_check, point_count, singular_mod, supersingular_scan
from .modpspace import (
    EXCLUDED_PRIMES,
    EXHAUSTIVE_PMAX,
    compute_vp,
    extendability_test,
    require_vp_prime,
    sigma_blocks,
    union_check,
    wp_witnesses,
)
from .recurrence import (
    HYPERPLANE_FORM,
    InitialData,
    MAIN_RECURRENCE,
    MAIN_INITIAL_DATA,
    common_denominator,
    denominator_profile,
    extend_rational,
    form_value,
)
from .series import congruence_scan


def json_scalar(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [json_scalar(v) for v in x]
    if isinstance(x, dict):
        return {k: json_scalar(v) for k, v in x.items()}
    return x


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "skip"
    details: str = ""
    witness: dict | None = None

    @classmethod
    def of(cls, name: str, ok: bool, details: str = "", witness: dict | None = None):
        return cls(name, "pass" if ok else "fail", details, witness)


@dataclass
class Report:
    command: str
    params: dict
    checks: list[Check] = field(default_factory=list)
    version: str = __version__

    def add(self, name: str, ok: bool, details: str = "", witness: dict | None = None):
        if not ok and witness is None:
            witness = {}
        self.checks.append(Check.of(name, ok, details, witness))

    def skip(self, name: str, details: str = ""):
        self.checks.append(Check(name, "skip", details))

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": json_scalar(self.params),
            "version": self.version,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "details": c.details,
                    "witness": json_scalar(c.witness) if c.witness is not None else None,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def report_from_json(text: str) -> Report:
    data = json.loads(text)
    rep = Report(data["command"], data["params"], version=data["version"])
    for c in data["checks"]:
        rep.checks.append(Check(c["name"], c["status"], c["details"], c["witness"]))
    return rep


def _parse_init(text: str) -> InitialData:
    try:
        return InitialData.of(*(Fraction(v) for v in text.split(",")))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"need 5 rationals C_0,...,C_4, got {text!r}") from None


def _parse_curve(text: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need 2 integers A,B, got {text!r}") from None
    return a, b


def _int_arg(minimum: int, check=None):
    """An argparse type: an int of at least ``minimum`` that ``check`` (a
    domain check raising ValueError) accepts.  A domain error becomes a
    one-line usage error (exit 2) instead of a traceback."""

    def parse(text: str) -> int:
        try:
            n = int(text)
            if check is not None:
                check(n)
            if n < minimum:
                raise ValueError(f"{n} is below the minimum {minimum}")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return n

    return parse


def _print_report(rep: Report):
    for c in rep.checks:
        line = f"[{c.status.upper():4}] {c.name}"
        if c.details:
            line += f"  -- {c.details}"
        print(line)
    n_fail = sum(1 for c in rep.checks if c.status == "fail")
    print(f"{rep.command}: {len(rep.checks)} checks, {n_fail} failed")


# -- subcommands --------------------------------------------------------------------


def cmd_seq(args, rep: Report):
    init = args.init
    seq = extend_rational(MAIN_RECURRENCE, init, args.n)
    for n, c in enumerate(seq):
        print(f"c_{n} = {c}")
    # the printed terms must satisfy the recurrence at every stepped index,
    # read apart from the loop that extended them
    order = MAIN_RECURRENCE.order
    if args.n <= order:
        rep.skip("extend", f"--n {args.n} takes no step past the {order} initial values")
    elif MAIN_RECURRENCE.satisfies(seq):
        witness = {"last": seq[-1], "special": init.is_special, "hyperplane": init.hyperplane_value}
        rep.add("extend", True, f"{args.n} terms", witness)
    else:
        bad = next(n for n in range(args.n - order) if MAIN_RECURRENCE.window_value(seq, n))
        rep.add("extend", False, f"c_{bad + order} breaks the recurrence", {"first_violated_index": bad + order})
    if init.values == MAIN_INITIAL_DATA.values:
        if args.n >= 6:
            rep.add("golden-c5", seq[5] == Fraction(-77, 128), f"c_5 = {seq[5]}")
        else:
            rep.skip("golden-c5", f"--n {args.n} stops before c_5")


def cmd_congruence(args, rep: Report):
    init = args.init
    seq = extend_rational(MAIN_RECURRENCE, init, args.nmax + 1)
    scan = congruence_scan(seq, args.p, args.rmax, args.nmax)
    detail = f"p={args.p}, r<={scan.r_max}, n<={args.nmax}"
    witness = None
    if scan.non_integral_index is not None:
        witness = {"non_integral_index": scan.non_integral_index}
    elif scan.failures:
        witness = {"first_failure_kr": list(scan.first_failure())}
    rep.add("congruences", scan.ok, detail, witness)
    if scan.ok:
        rep.add(
            "witness-exponents-integral",
            scan.witness_integral,
            f"a_n p-integral up to n={scan.witness_exponents.precision}",
        )
        rep.add(
            "witness-rederives-sequence",
            bool(scan.witness_rederives),
            "x f'/f of the reconstructed product reproduces the input",
        )


def cmd_denom(args, rep: Report):
    init = args.init.normalized()
    seq = extend_rational(MAIN_RECURRENCE, init, args.n + 1)
    d = common_denominator(init)
    prof = denominator_profile(seq, d)
    rep.add(
        "denominator-bound",
        prof.ok,
        f"d={d}, n<={args.n}, support={prof.prime_support}",
        None if prof.ok else {"witness": list(prof.witness)},
    )
    if init.values == MAIN_INITIAL_DATA.values:
        ok2 = all((Fraction(2) ** (2 * n - 3) * seq[n]).denominator == 1 for n in range(2, len(seq)))
        rep.add("2^(2n-3) c_n integral", ok2)
    else:
        rep.skip("2^(2n-3) c_n integral", "the bound is stated for the main data")


def cmd_identities(args, rep: Report):
    for chk in verify_algebraic_identities():
        rep.add(chk.name, chk.holds, chk.detail if not chk.holds else "")
    for chk in curve_model_checks():
        rep.add(chk.name, chk.holds, chk.detail)
    res = main_operator().apply_series(s_series(80))
    rep.add("ODE residual for s", res.is_zero(), "precision 80")


def cmd_closed_forms(args, rep: Report):
    rows = closed_forms(args.n)
    print(f"{'n':>4} {'b_n':>16} {'l_n':>16}")
    for r in rows:
        print(f"{r.n:>4} {r.b:>16} {r.l:>16}")
    bvals = [r.b for r in rows[:5]]
    lvals = [r.l for r in rows[:5]]
    rep.add("b-table = (1, 0, -2, -16, -26)", bvals == [1, 0, -2, -16, -26], f"got {bvals} (source prints b_1 = 4; 0 is forced)")
    rep.add("l-table = (0, 1, 8, -2, -32)", lvals == [0, 1, 8, -2, -32], f"got {lvals}")
    if args.n >= 5:
        rep.add("l_5 = -154", rows[5].l == -154)
    else:
        rep.skip("l_5 = -154", f"--n {args.n} stops before l_5")
    two = two_adic_facts(min(args.n // 2, 60))
    rep.add("l_(2m) = 0 mod 4", two.even_multiple_of_4)
    rep.add("l_(2m+1) = (-1)^m C(2m,m) mod 8", two.mod8_matches)
    rep.add("v_2(l_(2m+1)) = digit sum of m", two.valuation_matches)


def cmd_modp_space(args, rep: Report):
    pmax = args.pmax
    if pmax is not None:
        # how V_p varies with p: tabulate the defining form and basis
        print(f"{'p':>5} {'cartier form':>22}  basis")
        count = 0
        for q in range(7, pmax + 1):
            if not is_prime(q) or q in EXCLUDED_PRIMES:
                continue
            space = compute_vp(q, brute_validate=False)
            print(f"{q:>5} {str(space.cartier):>22}  {space.basis[0]} , {space.basis[1]}")
            count += 1
        if not count:
            rep.skip(f"dim V_p = 2 for good primes <= {pmax}", "no good prime; the tabulation starts at p = 7")
        else:
            rep.add(f"dim V_p = 2 for {count} good primes <= {pmax}", True)
        return
    p = args.p
    space = compute_vp(p)
    print(f"dim V_{p} = {space.dim}")
    print(f"hyperplane: {space.hyperplane}  cartier: {space.cartier}")
    print(f"basis: {space.basis[0]} and {space.basis[1]}")
    rep.add(
        f"dim V_{p} = 2",
        space.dim == 2,
        f"basis {space.basis}",
        {"cartier_form": list(space.cartier)},
    )
    blocks = sigma_blocks(p, 2)
    rep.add("tails satisfy recurrence", blocks.tails_satisfy)
    rep.add("sigma_0, sigma_1 independent", blocks.first_two_independent)
    ext = extendability_test(space.basis[0], p)
    rep.add(
        "special vector extendable (both routes)",
        ext.extendable and ext.agree,
    )
    union_name = "C_p = C_1 iff proportional to special"
    sample = None if p <= EXHAUSTIVE_PMAX else 200
    if sample and args.seed is None:
        rep.skip(union_name, f"exhaustive only for p <= {EXHAUSTIVE_PMAX}; --seed tests {sample} sampled members")
    else:
        union = union_check(p, sample=sample, seed=args.seed or 0)
        detail = f"{union.checked} vectors"
        if union.degenerate:
            detail += " (degenerate prime: c_{2p} = c_{p+1} mod p, test has no force)"
        rep.add(
            union_name,
            union.equivalence_holds,
            detail,
            None if union.equivalence_holds else {"counterexample": list(union.counterexample)},
        )
    wp = wp_witnesses(p, 3)
    rep.add(
        "W_p witnesses x^(jp) s(x)",
        wp.satisfy and wp.independent,
        "j = 0, 1, 2 satisfy the recurrence",
        None if wp.satisfy and wp.independent else {"satisfy": wp.satisfy, "independent": wp.independent},
    )


def cmd_cartier(args, rep: Report):
    p = args.p
    inv = alphabeta_quartic(p)
    # the Cartier claims, decided on one expansion at (0, 2): the invariants
    # must also be the images C(omega) = alpha' omega and C(eta) = beta' omega
    # (refuted at the exponents in the witness), xi_s/2 is fixed, and the xi
    # form off the hyperplane is not killed
    w_omega, half_xi, off_hyperplane = omega(p), CurveForm(xi_s(p).g * Fraction(1, 2)), xi_form((0, 0, 0, 1), p)
    *firsts, log_first, exact_first = first_disagreement(
        [(w_omega, w_omega, inv.alpha), (eta(p), w_omega, inv.beta), (half_xi, half_xi, 1), (off_hyperplane, None, 1)],
        p,
    )
    refuted = {name: f for name, f in zip(("omega", "eta"), firsts) if f is not None}
    rep.add(
        f"(alpha', beta') != (0,0) at p={p}",
        not inv.both_zero and not refuted,
        f"alpha'={inv.alpha}, beta'={inv.beta}",
        refuted or None,
    )
    pmax = args.pmax
    bad, scanned = [], 0
    alpha_zero, beta_zero, combo_zero = [], [], []
    # the tabulated alpha' is also read off the trace of Frobenius of
    # y^2 = x^3 + ea x + eb, the integral model (x = 9U, y = 27V) of V^2 = U^3 + AU + B
    ea, eb = int(81 * WEIERSTRASS_A), int(729 * WEIERSTRASS_B)
    traced, off_trace = 0, []
    for q in range(3, pmax + 1):
        if not is_prime(q) or q in BAD_PRIMES:
            continue
        scanned += 1
        iv = alphabeta_quartic(q)
        if q >= 5 and not singular_mod(ea, eb, q):
            traced += 1
            if (point_count(ea, eb, q).trace - iv.alpha) % q:
                off_trace.append(q)
        if iv.both_zero:
            bad.append(q)
        if not iv.alpha:
            alpha_zero.append(q)
        if not iv.beta:
            beta_zero.append(q)
        if (iv.alpha + 4 * iv.beta) % q == 0:
            combo_zero.append(q)
    rep.add(
        f"(alpha', beta') != (0,0) for good p <= {pmax}",
        not bad,
        f"{scanned} good primes",
        witness=None if not bad else {"bad": bad},
    )
    tabulation = (
        f"alpha'=0 at {alpha_zero}; beta'=0 at {beta_zero}; alpha'+4beta'=0 at {combo_zero}; "
        f"alpha' = trace of Frobenius mod p at {traced} primes"
    )
    # the trace route reads no prime below 7: the tabulation then decides nothing
    if not traced:
        rep.skip("invariant pair tabulation", tabulation)
    else:
        rep.add(
            "invariant pair tabulation",
            not off_trace,
            tabulation,
            None if not off_trace else {"alpha_off_trace": off_trace},
        )
    rep.add("C(xi/2) = xi/2 (logarithmically exact)", log_first is None)
    witness_m, bound = None if exact_first is None else exact_first + 1, exactness_scan_bound(off_hyperplane)
    rep.add(
        "xi form off the hyperplane is not exact",
        witness_m is not None and witness_m <= bound,
        f"witness m = {witness_m} <= {bound}",
    )
    lh = legendre_hasse(random.Random(args.seed).randrange(2, p), p)
    rep.add("K' = -(m+1) H identity", lh.derivative_identity, f"lambda_0={lh.lam0}, H_m={lh.h_m}, H_(m-1)={lh.h_m1}")
    rep.add("hypergeometric ODE", lh.ode_identity)
    kmax = args.kmax
    c = s_series(kmax * p + p + 6, modulus=p).coeffs
    plus_ok = all(
        form_value(HYPERPLANE_FORM, c[k * p + 1 : k * p + 5]) % p == 0 for k in range(0, kmax)
    )
    rep.add("6 c_(kp+4) + c_(kp+2) + c_(kp+1) = 0 mod p", plus_ok, f"k < {kmax}, p={p}")
    minus_ok = all((c[k * p - 1] + c[k * p - 2]) % p == 0 for k in range(1, kmax))
    rep.add("c_(kp-1) + c_(kp-2) = 0 mod p (witness d(2y))", minus_ok, f"k < {kmax}, p={p}")


def cmd_frobenius(args, rep: Report):
    a, b = args.curve
    pmax = args.pmax
    scan = supersingular_scan(a, b, pmax, vp_limit=args.vp_limit)
    mismatches = []
    good = len(scan.invariants)
    for p, inv in scan.invariants.items():
        td = point_count(a, b, p)
        print(f"p={p:>4}  #E={td.count:>5}  trace={td.trace:>4}  alpha={inv.alpha}")
        if td.trace % p != inv.alpha:
            mismatches.append(p)
    # a check that examined no prime reports skip, never a vacuous pass
    if not good:
        rep.skip("alpha = trace of Frobenius mod p", f"no prime of good reduction in [5, {pmax}]")
    else:
        rep.add(
            "alpha = trace of Frobenius mod p",
            not mismatches,
            f"p <= {pmax}",
            None if not mismatches else {"mismatches": mismatches},
        )
    supers = [r.p for r in scan.supersingular]
    if not supers:
        rep.skip("supersingular beta nonzero", f"no supersingular prime in [5, {pmax}]")
    else:
        rep.add("supersingular beta nonzero", all(r.beta_nonzero for r in scan.supersingular), f"supers: {supers}")
    # Honda's formula decides v_p(c_(p^2)) at every supersingular prime; the
    # expansion, where it ran, must give the same residue mod p^2
    if not supers:
        rep.skip("v_p(c_(p^2)) = 1 at supersingular p", f"no supersingular prime in [5, {pmax}]")
    else:
        crossed = [r for r in scan.supersingular if r.expansion_agrees is not None]
        not_one = [r.p for r in scan.supersingular if not r.formula_vp_is_1]
        disagree = [
            {"p": r.p, "formula": r.c_p2, "expansion": r.c_p2_expansion} for r in crossed if not r.expansion_agrees
        ]
        ok = all(r.vp_c_p2_is_1 for r in scan.supersingular)
        rep.add(
            "v_p(c_(p^2)) = 1 at supersingular p",
            ok,
            f"{len(supers)} by Honda's formula, {len(crossed)} cross-checked by expansion",
            None if ok else {"vp_not_1": not_one, "routes_disagree": disagree},
        )
    skipped = [r.p for r in scan.supersingular if r.expansion_agrees is None]
    if skipped:
        rep.skip("v_p(c_(p^2)) above --vp-limit", f"expansion cross-check not run at p in {skipped}")
    if (a, b) == (0, 1):
        if not good:
            rep.skip("alpha_p = 0 iff p = 2 mod 3 (CM)", f"no prime of good reduction in [5, {pmax}]")
        else:
            rep.add("alpha_p = 0 iff p = 2 mod 3 (CM)", bool(scan.cm_pattern_ok))


def cmd_asd(args, rep: Report):
    a, b = args.curve
    p = args.p
    res = asd_check(a, b, p, args.rmax, args.nmax)
    rep.add(
        "ASD congruence",
        res.ok,
        f"trace={res.trace}, r<={args.rmax}, n<={args.nmax}",
        None if res.ok else {"failures": [list(f) for f in res.failures]},
    )


def cmd_all(args, rep: Report):
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    steps = [
        ["identities"],
        ["closed-forms", "--n", "60"],
        ["congruence", "--p", "3", "--rmax", "2", "--nmax", "500"],
        ["denom", "--n", "300"],
        ["modp-space", "--p", "7"],
        ["cartier", "--p", "7", "--pmax", "100", *seed],
        ["frobenius", "--pmax", "50"],
        ["asd", "--p", "5", "--rmax", "2", "--nmax", "5"],
    ]
    parser = build_parser()
    for argv in steps:
        step = _parse(parser, argv)
        try:
            step.handler(step, rep)
        except AssertionError as exc:
            # keep the checks made so far and run the other steps
            _add_refutation(rep, f"{' '.join(argv)}: {exc}", exc)


def _add_refutation(rep: Report, details: str, exc: AssertionError):
    """A kernel self-check refuted a claim: one failed check, the message its witness."""
    rep.add("kernel self-check", False, details, {"refutation": str(exc)})


# -- dispatcher ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveseq",
        description="exact desk-scale verification of the recurrence/curve congruence suite",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=fn)
        return p

    p = add("seq", cmd_seq, help="extend the recurrence over Q")
    p.add_argument("--init", type=_parse_init, default=MAIN_INITIAL_DATA, help="C_0..C_4 as comma-separated rationals")
    p.add_argument("--n", type=_int_arg(1), default=10)

    p = add("congruence", cmd_congruence, help="scan c_(kp^(r+1)) = c_(kp^r) mod p^(r+1)")
    p.add_argument("--init", type=_parse_init, default=MAIN_INITIAL_DATA)
    # c_n is not 2-integral (only 2^(2n-3) c_n is), so the theorem needs p odd
    p.add_argument("--p", type=_int_arg(3, require_prime), default=5)
    p.add_argument("--rmax", type=_int_arg(0), default=1)
    p.add_argument("--nmax", type=_int_arg(2), default=200)

    p = add("denom", cmd_denom, help="denominator growth bound")
    p.add_argument("--init", type=_parse_init, default=MAIN_INITIAL_DATA)
    p.add_argument("--n", type=_int_arg(2), default=200)

    add("identities", cmd_identities, help="exact curve/model identity suite")

    p = add("closed-forms", cmd_closed_forms, help="b_n / l_n tables and 2-adic facts")
    p.add_argument("--n", type=_int_arg(4), default=40)  # the b- and l-tables pin 5 rows

    p = add("modp-space", cmd_modp_space, help="V_p dimension, basis, union theorem")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--p", type=_int_arg(2, require_vp_prime))
    which.add_argument("--pmax", type=_int_arg(2), help="tabulate V_p across good primes instead")
    p.add_argument("--seed", type=_int_arg(0))

    p = add("cartier", cmd_cartier, help="Cartier invariants and exactness checks")
    p.add_argument("--p", type=_int_arg(5, require_good_prime), default=7)
    p.add_argument("--pmax", type=_int_arg(3), default=100)
    p.add_argument("--kmax", type=_int_arg(2), default=5, help="range of k in the congruence families")
    p.add_argument("--seed", type=_int_arg(0), default=0)

    p = add("frobenius", cmd_frobenius, help="point counts, traces, supersingular scan")
    p.add_argument("--curve", type=_parse_curve, default=(0, 1), metavar="A,B")
    p.add_argument("--pmax", type=_int_arg(2), default=50)
    p.add_argument(
        "--vp-limit",
        type=_int_arg(5),  # the scan starts at p = 5
        dest="vp_limit",
        help="run the expansion cross-check of v_p(c_(p^2)) = 1 only at p <= this; "
        "Honda's formula decides it at every supersingular prime",
    )

    p = add("asd", cmd_asd, help="Atkin-Swinnerton-Dyer congruences")
    p.add_argument("--curve", type=_parse_curve, default=(0, 1), metavar="A,B")
    p.add_argument("--p", type=_int_arg(5, require_prime), default=5)
    p.add_argument("--rmax", type=_int_arg(1), default=2)
    p.add_argument("--nmax", type=_int_arg(1), default=5)

    p = add("all", cmd_all, help="run the whole battery")
    p.add_argument("--seed", type=_int_arg(0))
    return parser


def _join_values(argv: list[str]) -> list[str]:
    """Pass ``--curve A,B`` on as ``--curve=A,B``, and ``--init`` likewise:
    argparse would read a value with a leading minus sign (``--curve -1,5``)
    as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--curve", "--init"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """The arguments of one command line, with the domain errors that
    involve more than one argument."""
    args = parser.parse_args(_join_values(argv))
    # a report that cannot be written is refused before any check runs
    if args.json is not None and (Path(args.json).is_dir() or not Path(args.json).parent.is_dir()):
        parser.error(f"--json {args.json}: not a file in an existing directory")
    if args.command == "modp-space" and args.seed is not None:
        if args.pmax is not None:
            parser.error("--seed has no effect with --pmax: the tabulation draws no random vectors")
        if args.p <= EXHAUSTIVE_PMAX:
            parser.error(f"--seed has no effect with --p {args.p} <= {EXHAUSTIVE_PMAX}: the union check is exhaustive")
    if args.command == "congruence" and args.nmax < args.p:
        parser.error(f"--nmax {args.nmax} is below --p {args.p}: no congruence would be checked")
    if args.command == "asd" and singular_mod(*args.curve, args.p):
        parser.error(f"the curve {args.curve} is singular mod p = {args.p}")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(build_parser(), argv)
    # the one report of this command line: its params are every option but
    # --json as parsed, and the handler only appends checks, so a self-check
    # that trips keeps the checks decided before it
    params = {
        k: list(v.values) if isinstance(v, InitialData) else v
        for k, v in vars(args).items()
        if k not in ("command", "handler", "json")
    }
    rep = Report(args.command, params)
    try:
        try:
            args.handler(args, rep)
        except AssertionError as exc:
            _add_refutation(rep, str(exc), exc)
        _print_report(rep)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly, 128 + SIGPIPE;
        # stdout goes to devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(rep.to_json())
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
