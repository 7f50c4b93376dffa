"""Tests of the benchmark itself: reduced-size smoke runs of each workload,
the tracer, the output contract, and gates that must trip on a wrong
expectation.  Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import one_pass  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from curveseq import cli, modpspace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_modp(tmp_path, **kw):
    args = dict(seed=3, vp_primes=(7, 11), supersingular_pmax=30, asd_primes=(5, 7),
                extend_primes=(7,), descent_primes=(7,))
    args.update(kw)
    return workloads.Modp(out_dir=tmp_path, **args)


def checked_pass(wl) -> workloads.Checks:
    checks = workloads.Checks()
    wl.run_pass(checks)
    return checks


# -- smoke runs ----------------------------------------------------------------------------


def test_suite_pass_is_clean(tmp_path):
    checks = checked_pass(workloads.Suite(seed=1, out_dir=tmp_path))
    assert (checks.attempted, checks.failed) == (3, 0), checks.failures


def test_sporadic_ladder_and_scan_are_clean(tmp_path):
    wl = workloads.Sporadic(seed=2, out_dir=tmp_path, ladder_top=60)
    checks = checked_pass(wl)
    assert checks.failed == 0 and checks.attempted == 3 * len(wl.ladder) + 1, checks.failures
    assert wl.degenerate == {37}
    reach, ladder_s = wl.scan(0.2, checks)
    assert reach >= 37 and ladder_s > 0 and checks.failed == 0


def test_modp_pass_is_clean(tmp_path):
    checks = checked_pass(small_modp(tmp_path))
    assert checks.failed == 0 and checks.attempted == 2 * 2 + 1 + 3 * 2 + 1 + 1, checks.failures


def test_inputs_follow_the_seed(tmp_path):
    assert small_modp(tmp_path).inputs == small_modp(tmp_path).inputs
    assert small_modp(tmp_path).inputs != small_modp(tmp_path, seed=4).inputs
    assert workloads.Suite(1, tmp_path).inputs == workloads.Suite(1, tmp_path).inputs


# -- tracer ------------------------------------------------------------------------------------


def test_traced_pass_reports_every_layer_and_restores_the_package(tmp_path):
    original = modpspace.compute_vp
    tracer = Tracer()
    wl, checks = small_modp(tmp_path), workloads.Checks()
    plain = one_pass.measure(wl, checks, "pass", time.monotonic())
    traced = one_pass.measure(wl, checks, "trace", time.monotonic(), tracer=tracer)
    assert modpspace.compute_vp is original and cli.compute_vp is original
    assert checks.failed == 0, checks.failures
    layers = run.layer_metrics([plain], [traced])
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("modpspace", "series.mod", "recurrence.modp", "frobenius", "descent", "cartier"):
        assert layers[f"{name}.calls"] > 0, name
    assert layers["series.q.calls"] == 0
    # one oracle per V_p prime: p^4 vectors, plus p^2 union members
    assert layers["modpspace.vectors"] == sum(p**4 + p**2 for p in (7, 11))
    assert layers["modpspace.array_bytes_computed"] == sum((2 * p + 2) * p**4 * 8 for p in (7, 11))
    spans = tracer.spans
    ids = {s[0] for s in spans}
    assert all(parent in ids or parent == -1 for _, parent, *_ in spans)
    assert sum(1 for s in spans if s[1] == -1) == 1  # every span sits under the pass


def test_series_and_recurrence_split_on_modulus(tmp_path):
    from curveseq import recurrence, series

    tracer = Tracer()
    tracer.install()
    try:
        recurrence.main_sequence(30)
        recurrence.extend_modp(recurrence.MAIN_RECURRENCE, (0, 1, 2, 3, 4), 7, 8)
        s = series.TruncatedSeries([1, 2, 3], 3)
        s * s
        m = series.TruncatedSeries([1, 2, 3], 3, 7)
        m * m
    finally:
        tracer.uninstall()
    tracer.end_pass()
    totals = tracer.layer_totals()
    assert totals["recurrence.q.terms"] == 30 and totals["recurrence.modp.terms"] == 8
    assert totals["series.q.coeffs"] == 3 and totals["series.mod.coeffs"] == 3
    assert totals["recurrence.q.redundant_ratio"] == 1.0


# -- gates trip on a wrong expectation --------------------------------------------------------


def test_suite_gates_trip(tmp_path, monkeypatch):
    wrong = workloads.Suite(seed=1, out_dir=tmp_path, expected_exit=1)
    wrong.expected_checks = wrong.expected_checks[1:]
    checks = checked_pass(wrong)
    assert checks.failed == 2 and checks.failures[0].startswith("suite: all exits 1")

    monkeypatch.setattr(cli, "report_from_json", lambda text: cli.Report("all", {}))
    checks = checked_pass(workloads.Suite(seed=1, out_dir=tmp_path))
    assert checks.failed == 2  # round trip, and the pinned names read from it


def test_sporadic_gate_trips(tmp_path):
    for expected in (frozenset(), frozenset({37, 41})):
        wl = workloads.Sporadic(seed=2, out_dir=tmp_path, ladder_top=60, expected_degenerate=expected)
        checks = checked_pass(wl)
        assert checks.failed == 1 and "degenerate primes" in checks.failures[0]


def test_sporadic_gate_ignores_hits_above_the_verified_range(tmp_path):
    wl = workloads.Sporadic(seed=2, out_dir=tmp_path)
    wl.degenerate = {37, workloads.VERIFIED_RANGE + 11}
    checks = workloads.Checks()
    wl.gate_degenerate(10**6, checks)
    assert checks.failed == 0


def test_modp_gates_trip(tmp_path):
    checks = checked_pass(small_modp(tmp_path, members_exponent=3))
    assert checks.failed == 4  # brute survivors and union_check at p = 7, 11
    checks = checked_pass(small_modp(tmp_path, supersingular_residue=1))
    assert checks.failed == 1 and "supersingular" in checks.failures[0]


def test_an_exception_is_a_failed_check(tmp_path, monkeypatch):
    def broken(p, *a, **k):
        raise RuntimeError("boom")

    monkeypatch.setattr(modpspace, "union_check", broken)
    checks = checked_pass(small_modp(tmp_path))
    assert checks.failed == 2 and "RuntimeError: boom" in checks.failures[0]


# -- output contract ---------------------------------------------------------------------------


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.2",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return last


def test_last_line_carries_the_end_to_end_metrics():
    last = run_bench("sporadic", 0)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_traced_run_carries_the_per_layer_metrics_and_spans():
    last = run_bench("sporadic", 1)
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert last["metrics"]["recurrence.q.calls"]["value"] > 0
    assert (BENCH / "out" / "spans-sporadic-seed5-trace1-0.jsonl.gz").is_file()


def test_scan_samples_in_child_processes_follow_the_seed():
    samples = [run.sample("sporadic", 5, "scan", 0.5) for _ in range(2)]
    for s in samples:
        assert s["setup_s"] > 0 and s["pass_s"] > 0 and s["failed"] == 0
        assert s["reach_p"] >= 37 and s["degenerate"] == [37]
    first, second = (s["inputs"]["member_coefficients"] for s in samples)
    shared = first.keys() & second.keys()
    assert "293" in shared and all(first[p] == second[p] for p in shared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout
