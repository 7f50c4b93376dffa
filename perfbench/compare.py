#!/usr/bin/env python3
"""Compare two sets of perfbench results, one row per workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a directory of result files written by run.py
(perfbench/out/ holds them) or a JSON file with one result or a list of
results.  For every workload the end-to-end metrics are shown as median and
quartiles over the untraced runs of each side, with the change of the
medians; then the per-layer self times (median over the traced runs) and
their change.  Nothing here decides a regression: the bounds are in
BENCHMARK.json and the rule for claiming a gain is in perfbench/README.md.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        data = json.loads(f.read_text())
        for item in data if isinstance(data, list) else [data]:
            if isinstance(item, dict) and "workload" in item and "metrics" in item:
                out.append(item)
    return out


def by_workload(results: list[dict]) -> dict:
    """workload -> trace flag -> metric -> values over runs."""
    table = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for r in results:
        for name, m in r["metrics"].items():
            table[r["workload"]][r["trace"]][name].append(m["value"])
    return table


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def change(base: float, new: float) -> str:
    if base == 0:
        return "n/a" if new == 0 else "new"
    return f"{100 * (new - base) / base:+.1f}%"


def compare(base: list[dict], new: list[dict]) -> list[str]:
    a, b = by_workload(base), by_workload(new)
    lines = []
    for wl in sorted(set(a) | set(b)):
        lines.append(f"== {wl}")
        metrics = sorted(set(a[wl][0]) | set(b[wl][0]))
        for name in metrics:
            va, vb = a[wl][0].get(name), b[wl][0].get(name)
            cells = []
            for v in (va, vb):
                if v:
                    med, q1, q3 = summary(v)
                    cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(v)}")
                else:
                    cells.append("-")
            delta = change(summary(va)[0], summary(vb)[0]) if va and vb else ""
            lines.append(f"  {name:<14} {cells[0]:<36} -> {cells[1]:<36} {delta}")
        layers = sorted(k for k in set(a[wl][1]) | set(b[wl][1]) if k.endswith(".self_s"))
        if layers:
            lines.append("  per-layer self_s per traced pass (median over runs)")
        for name in layers:
            va, vb = a[wl][1].get(name), b[wl][1].get(name)
            ma = statistics.median(va) if va else None
            mb = statistics.median(vb) if vb else None
            delta = f"{mb - ma:+.4f} s ({change(ma, mb)})" if va and vb else ""
            fa = "-" if ma is None else f"{ma:.4f}"
            fb = "-" if mb is None else f"{mb:.4f}"
            lines.append(f"    {name:<24} {fa:>10} -> {fb:>10}  {delta}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(p)) for p in argv)
    if not base or not new:
        print("compare: no perfbench results found", file=sys.stderr)
        return 2
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
