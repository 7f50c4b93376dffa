#!/usr/bin/env python3
"""One pass of a curveseq workload in a fresh process.

    python3 perfbench/one_pass.py --workload W --seed N --mode pass|trace|scan|setup --spawned T [--scan-seconds S] [--spans FILE]

perfbench/run.py starts one of these per sample, so that every sample is a
cold run of the program, as a user's run is: nothing one pass computes (a
module-level memo, a warm cache) can speed up the next.  ``--spawned`` is
time.monotonic() in the parent just before it started this process; set-up
is measured from it to the first timed call.  The modes are one verified pass
(``pass``), one traced pass (``trace``), one reach scan of ``--scan-seconds``
(``scan``, sporadic only) and the set-up alone (``setup``).  The last line of standard output is one JSON
object with the samples, the checks and the generated inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def measure(wl, checks, mode: str, spawned: float, scan_seconds: float = 0.0, tracer=None) -> dict:
    """Time one pass (or scan) of ``wl``; ``spawned`` is when its process started."""
    sample = {"setup_s": time.monotonic() - spawned, "reach_p": wl.reach_p}
    if mode == "setup":
        return sample
    start = time.perf_counter()
    if mode == "scan":
        sample["reach_p"], sample["pass_s"] = wl.scan(scan_seconds, checks)
        sample["degenerate"] = sorted(wl.degenerate)
        return sample
    if mode == "trace":
        tracer.install()
        try:
            with tracer.span("bench", "pass"):
                wl.run_pass(checks)
        finally:
            tracer.uninstall()
        tracer.end_pass()
    else:
        wl.run_pass(checks)
    sample["pass_s"] = time.perf_counter() - start
    if tracer is not None:
        sample["layers"] = tracer.layer_totals()
    return sample


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("suite", "sporadic", "modp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("pass", "trace", "scan", "setup"))
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--scan-seconds", type=float, default=0.0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))

    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](seed=args.seed, out_dir=OUT)
    if args.mode == "scan" and not hasattr(wl, "scan"):
        ap.error(f"workload {args.workload} has no reach scan")
    tracer = Tracer() if args.mode == "trace" else None
    checks = workloads.Checks()
    sample = measure(wl, checks, args.mode, args.spawned, args.scan_seconds, tracer)
    sample.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
        inputs=wl.inputs,
    )
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps(sample, default=sorted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
