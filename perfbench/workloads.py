"""The three curveseq workloads: seeded inputs, one verified pass each, gates.

Every call goes through the public functions of curveseq, looked up on the
module at call time so that the tracer's wrappers are used when installed.
A gate whose computation raises counts as a failed check, not a crash; a
check that depends on a failed one fails with it.  Expectations are fields
of the workload so the tests can hand in a wrong one and watch the gate trip.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from curveseq import cartier, cli, curve, descent, exactnum, frobenius, modpspace, polyring

HERE = Path(__file__).resolve().parent
SUITE_CHECKS = json.loads((HERE / "suite_checks.json").read_text())
#: ROADMAP: no C_p = C_1 degeneracy other than p = 37 was found below 2*10^4
VERIFIED_RANGE = 20_000


class Checks:
    """Gate bookkeeping for one run: attempted, failed, first failures."""

    KEEP = 20  # failure messages kept for the result file

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name: str, gate) -> bool:
        """Evaluate ``gate()``; False or an exception is a failure."""
        self.attempted += 1
        try:
            ok = bool(gate())
            why = "" if ok else "gate returned False"
        except Exception:
            ok = False
            why = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(f"{name}: {why}")
        return ok


def next_good_prime(p: int) -> int:
    """The next prime after p where V_p is defined (2, 3, 5, 13 are excluded)."""
    p += 1
    while not exactnum.is_prime(p) or p in modpspace.EXCLUDED_PRIMES:
        p += 1
    return p


def good_primes(lo: int, hi: int) -> list[int]:
    out = [next_good_prime(lo - 1)]
    while (q := next_good_prime(out[-1])) <= hi:
        out.append(q)
    return out


# -- suite -----------------------------------------------------------------------------


@dataclass
class Suite:
    """``curveseq all --seed S --json PATH``, called in process."""

    seed: int
    out_dir: Path
    expected_checks: list = field(default_factory=lambda: [tuple(c) for c in SUITE_CHECKS])
    expected_exit: int = 0
    #: largest prime one pass covers (cartier scans good p <= 100); a class
    #: constant, not a field
    reach_p = 97

    def __post_init__(self):
        self.all_seed = random.Random(self.seed).randrange(10**6)
        self.inputs = {"all_seed": self.all_seed}

    def run_pass(self, checks: Checks):
        path = self.out_dir / "suite-all-report.json"
        state = {}

        def run_all():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["all", "--seed", str(self.all_seed), "--json", str(path)])
            state["text"] = path.read_text()
            return rc == self.expected_exit

        def round_trip():
            state["report"] = cli.report_from_json(state["text"])
            return state["report"].to_dict() == json.loads(state["text"])

        def pinned():
            got = Counter((c.name, c.status) for c in state["report"].checks)
            return got == Counter(self.expected_checks)

        checks.run(f"suite: all exits {self.expected_exit}", run_all)
        checks.run("suite: report round-trips through report_from_json", round_trip)
        checks.run("suite: check names and statuses as pinned", pinned)


# -- sporadic ----------------------------------------------------------------------------


@dataclass
class Sporadic:
    """The sporadic-prime claim: full verification of good primes in order.

    A reach scan verifies good primes upward from 7 until its budget is
    spent; it reports how far it got (reach) and when it had finished the
    ladder 7 <= p <= ``ladder_top``.  A pass is the ladder alone.
    """

    seed: int
    out_dir: Path
    ladder_top: int = 300
    expected_degenerate: frozenset = frozenset({37})

    def __post_init__(self):
        self.rng = random.Random(self.seed)
        self.members: dict[int, tuple[int, int]] = {}
        self.inputs = {"member_coefficients": self.members}
        self.degenerate: set[int] = set()
        self.ladder = good_primes(7, self.ladder_top)
        self.reach_p = self.ladder[-1]  # the largest prime one pass covers

    def member_coefficients(self, p: int) -> tuple[int, int]:
        """Seeded (a, b) != (0, 0): the member a*b1 + b*b2 of V_p to test."""
        if p not in self.members:
            a, b = 0, 0
            while a == 0 and b == 0:
                a, b = self.rng.randrange(p), self.rng.randrange(p)
            self.members[p] = (a, b)
        return self.members[p]

    def verify_prime(self, p: int, checks: Checks):
        a, b = self.member_coefficients(p)

        def invariants():
            return not cartier.alphabeta_quartic(p).both_zero

        def space():
            vp = modpspace.compute_vp(p, brute_validate=False)
            b1, b2 = vp.basis
            member = tuple((a * x + b * y) % p for x, y in zip(b1, b2))
            return vp.dim == 2 and vp.contains(b1) and vp.contains(b2) and vp.contains(member)

        def degeneracy():
            if modpspace.union_functional_degenerate(p):
                self.degenerate.add(p)
            return True

        checks.run(f"sporadic p={p}: (alpha', beta') != (0, 0)", invariants)
        checks.run(f"sporadic p={p}: dim V_p = 2, holds both basis vectors and the seeded member", space)
        checks.run(f"sporadic p={p}: C_p = C_1 degeneracy computed", degeneracy)

    def gate_degenerate(self, top: int, checks: Checks):
        """Degenerate primes in [7, top] are exactly the expected ones, within
        the range ROADMAP reports as verified; hits above it are recorded."""
        upto = min(top, VERIFIED_RANGE)
        checks.run(
            f"sporadic: degenerate primes in [7, {upto}] are {sorted(self.expected_degenerate)}",
            lambda: {q for q in self.degenerate if q <= upto}
            == {q for q in self.expected_degenerate if q <= upto},
        )

    def run_pass(self, checks: Checks):
        self.degenerate.clear()
        for p in self.ladder:
            self.verify_prime(p, checks)
        self.gate_degenerate(self.ladder_top, checks)

    def scan(self, seconds: float, checks: Checks) -> tuple[int, float]:
        """Verify good primes upward from 7 for ``seconds`` (and at least the
        ladder); return the largest prime whose verification finished within
        them, and the time at which the ladder was done."""
        self.degenerate.clear()
        start = time.perf_counter()
        reach, ladder_s, p = 0, 0.0, 5
        while time.perf_counter() - start < seconds or p < self.ladder[-1]:
            p = next_good_prime(p)
            self.verify_prime(p, checks)
            elapsed = time.perf_counter() - start
            if elapsed <= seconds:
                reach = p
            if p == self.ladder[-1]:
                ladder_s = elapsed
        self.gate_degenerate(reach, checks)
        return reach, ladder_s


# -- modp --------------------------------------------------------------------------------


@dataclass
class Modp:
    """The F_p / Z/p^k routes: brute-force V_p oracle, union theorem, ASD,
    supersingular scan, extendability and descent."""

    seed: int
    out_dir: Path
    vp_primes: tuple = (7, 11, 17, 19, 23, 29, 31)
    supersingular_pmax: int = 100
    asd_primes: tuple = (5, 7, 11, 13)
    extend_primes: tuple = (7, 11, 17, 23)
    descent_primes: tuple = (7, 11)
    #: |V_p| = p^members_exponent, both for the brute survivors and union_check
    members_exponent: int = 2
    #: supersingular primes of y^2 = x^3 + 1 are p = residue (mod 3)
    supersingular_residue: int = 2
    #: class constants, not fields: the ASD depth, and the largest prime one
    #: pass covers (the supersingular scan runs to 100)
    ASD_RMAX = 2
    ASD_NMAX = 5
    reach_p = 97

    def __post_init__(self):
        rng = random.Random(self.seed)
        curves = [(0, 1)]
        while len(curves) < 3:
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            if (a, b) not in curves and all((4 * a**3 + 27 * b * b) % p for p in self.asd_primes):
                curves.append((a, b))
        self.curves = curves
        self.vectors = {}
        for p in self.extend_primes:
            members = []
            while len(members) < 2:
                lam, mu = rng.randrange(p), rng.randrange(p)
                if (lam, mu) != (0, 0):
                    members.append((lam, mu))
            randoms = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(2)]
            self.vectors[p] = {"members": members, "random": randoms}
        self.inputs = {"asd_curves": self.curves, "extendability": self.vectors}
        self.supersingular_want = {p for p in range(5, self.supersingular_pmax + 1)
                                   if exactnum.is_prime(p) and p % 3 == self.supersingular_residue}

    def run_pass(self, checks: Checks):
        e = self.members_exponent
        for p in self.vp_primes:
            checks.run(f"modp p={p}: brute survivors = closed form, p^{e} of them",
                       lambda p=p: self.gate_vp(p))
            checks.run(f"modp p={p}: union_check exhaustive over p^{e} members",
                       lambda p=p: self.gate_union(p))
        checks.run(f"modp: supersingular p <= {self.supersingular_pmax} are p = "
                   f"{self.supersingular_residue} mod 3 with v_p(c_(p^2)) = 1", self.gate_supersingular)
        for a, b in self.curves:
            for p in self.asd_primes:
                checks.run(f"modp: ASD congruence on ({a}, {b}) at p={p}",
                           lambda a=a, b=b, p=p: frobenius.asd_check(a, b, p, self.ASD_RMAX, self.ASD_NMAX).ok)
        for p in self.extend_primes:
            checks.run(f"modp p={p}: extendability routes agree on seeded vectors",
                       lambda p=p: self.gate_extendability(p))
        for p in self.descent_primes:
            checks.run(f"modp p={p}: descent recovers x(2x+1) Q^((p-1)/2)",
                       lambda p=p: self.gate_descent(p))

    def gate_vp(self, p: int) -> bool:
        space = modpspace.compute_vp(p, brute_validate=False)
        survivors = modpspace.vp_bruteforce_mask(p)
        # closed-form membership over F_p^4 in the oracle's C order (C1..C4)
        grid = np.indices((p,) * 4).reshape(4, -1).astype(np.int64)
        member = np.ones(p**4, dtype=bool)
        for form in (space.hyperplane, space.cartier):
            member &= (np.asarray(form, dtype=np.int64) @ grid) % p == 0
        return (
            space.dim == 2
            and all(space.contains(v) for v in space.basis)
            and np.array_equal(survivors, member)
            and int(survivors.sum()) == p**self.members_exponent
        )

    def gate_union(self, p: int) -> bool:
        rep = modpspace.union_check(p)
        return rep.equivalence_holds and rep.checked == p**self.members_exponent

    def gate_supersingular(self) -> bool:
        rep = frobenius.supersingular_scan(0, 1, self.supersingular_pmax)
        rows = rep.supersingular
        return (
            {r.p for r in rows} == self.supersingular_want
            and all(r.vp_c_p2_is_1 is True and r.beta_nonzero for r in rows)
            and rep.cm_pattern_ok is True
        )

    def gate_extendability(self, p: int) -> bool:
        space = modpspace.compute_vp(p, brute_validate=False)
        b1, b2 = space.basis
        cases = [(tuple((lam * x + mu * y) % p for x, y in zip(b1, b2)), True)
                 for lam, mu in self.vectors[p]["members"]]
        cases += [(v, space.contains(v)) for v in self.vectors[p]["random"]]
        for v, want in cases:
            res = modpspace.extendability_test(v, p)
            if not (res.agree and res.extendable == want):
                return False
        return True

    def gate_descent(self, p: int) -> bool:
        Poly = polyring.Polynomial
        series = curve.s_series(3 * p + 2, modulus=p)
        res = descent.descend_series_solution(descent.main_operator(p), Poly([], p), series, p, 2 * p)
        want = Poly([0, 1, 2], p) * Poly([4, 0, 1, 2, 1], p) ** ((p - 1) // 2)
        return res.phi == want and res.agreement >= 2 * p + 1


WORKLOADS = {"suite": Suite, "sporadic": Sporadic, "modp": Modp}
