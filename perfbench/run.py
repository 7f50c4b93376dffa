#!/usr/bin/env python3
"""Run one curveseq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite|sporadic|modp --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src.
Every sample is one pass (``sporadic``: one reach scan) in its own fresh,
single-threaded process (perfbench/one_pass.py), started one after the other
for S seconds; the inputs come from the seed.  Every output is checked.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The full result (seed,
generated inputs, samples, first failures) is written to perfbench/out/, and
a traced run also writes its spans there.  See perfbench/README.md for what
each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: the sporadic run splits --seconds into this many equal reach scans
SCANS = 20
#: a run times at least this many set-ups; passes too long to give them are
#: topped up with processes that set up and exit
SETUP_SAMPLES = 10
#: no sample may take longer: a whole run must end within 180 s
SAMPLE_TIMEOUT_S = 150
#: numpy must not start a BLAS thread pool: each workload is one thread
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("suite", "sporadic", "modp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def sample(workload: str, seed: int, mode: str, scan_seconds: float = 0.0, spans: Path | None = None) -> dict:
    """One pass in a fresh process; its set-up is timed from just before the spawn."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scan-seconds", repr(scan_seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **SINGLE_THREAD}
    spawned = time.monotonic()
    proc = subprocess.run([*cmd, "--spawned", repr(spawned)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=SAMPLE_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> list[dict]:
    """Samples until ``seconds`` are spent (the one running at the deadline
    completes), or for ``sporadic`` its equal reach scans.  Set-up-only
    samples go between the first passes, so that they meet the machine
    conditions of the whole run, and after them up to ``SETUP_SAMPLES``."""
    if workload == "sporadic":
        samples = [sample(workload, seed, "scan", seconds / SCANS) for _ in range(SCANS)]
    else:
        samples = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not samples:
            if len(samples) < SETUP_SAMPLES:
                samples.append(sample(workload, seed, "setup"))
            samples.append(sample(workload, seed, "pass"))
    while len(samples) < SETUP_SAMPLES:
        samples.append(sample(workload, seed, "setup"))
    return samples


def run_traced(workload: str, seed: int, seconds: float, tag: str) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes alternate; the difference of their medians
    is the tracing overhead."""
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        if len(plain) <= len(traced):
            plain.append(sample(workload, seed, "pass"))
        else:
            traced.append(sample(workload, seed, "trace", spans=OUT / f"spans-{tag}-{len(traced)}.jsonl.gz"))
    return plain, traced


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """The per-layer numbers of one traced pass, averaged over the traced passes."""
    names = traced[0]["layers"]
    out = {k: statistics.fmean(s["layers"][k] for s in traced) for k in names}
    pass_s = statistics.median(s["pass_s"] for s in traced)
    out["trace.pass_s"] = pass_s
    out["trace.overhead_s"] = pass_s - statistics.median(s["pass_s"] for s in plain)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curveseq" / "__init__.py").is_file():
        print(f"perfbench: no curveseq sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        plain, traced = run_traced(args.workload, args.seed, args.seconds, tag)
        samples = plain + traced
        metrics = layer_metrics(plain, traced)
    else:
        samples = run_untraced(args.workload, args.seed, args.seconds)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "verify_s": min(s["pass_s"] for s in samples if "pass_s" in s),
            "reach_p": max(s["reach_p"] for s in samples),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        }

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # the sample that got furthest has generated every input the others did
        "inputs": max(samples, key=lambda s: s["reach_p"])["inputs"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "check_fail_ratio": failed / attempted,
        "failures": [f for s in samples for f in s["failures"]][:20],
        "samples": [{k: v for k, v in s.items() if k not in ("inputs", "failures")} for s in samples],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1))

    print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def print_summary(result: dict):
    m = {k: v["value"] for k, v in result["metrics"].items()}
    samples = result["samples"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  trace {result['trace']}")
    print(f"inputs {json.dumps(result['inputs'])[:300]}")
    if result["trace"]:
        total = m["trace.pass_s"]
        traced = sum("layers" in s for s in samples)
        print(f"traced pass {total:.3f} s, overhead {m['trace.overhead_s']:+.3f} s "
              f"({traced} traced, {len(samples) - traced} untraced passes, each in its own process)")
        rows = sorted((k[: -len(".self_s")] for k in m if k.endswith(".self_s")), key=lambda k: -m[f"{k}.self_s"])
        for layer in rows:
            calls = m.get(f"{layer}.calls")
            calls_text = "" if calls is None else f"{calls:>12.0f} calls"
            print(f"  {layer:<16} {m[f'{layer}.self_s']:>9.4f} s  {100 * m[f'{layer}.self_s'] / total:5.1f} %{calls_text}")
    else:
        passes = [s["pass_s"] for s in samples if "pass_s" in s]
        kind = "reach scans" if result["workload"] == "sporadic" else "verified passes"
        print(f"{len(passes)} {kind} and {len(samples) - len(passes)} set-ups alone, each in a fresh process")
        print(f"setup_s      {m['setup_s']:.4f} s   median of {len(samples)}, "
              f"best {min(s['setup_s'] for s in samples):.4f} s")
        print(f"verify_s     {m['verify_s']:.4f} s   best of {len(passes)}, median {statistics.median(passes):.4f} s")
        print(f"reach_p      {m['reach_p']} prime   best of {[s['reach_p'] for s in samples if 'pass_s' in s]}")
        print(f"peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
    print(f"check_fail_ratio {result['check_fail_ratio']} ratio ({result['failed']} of {result['attempted']} checks failed)")
    for line in result["failures"]:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
