"""Compare two sets of benchmark runs.

    python3 sweepbench/compare.py SET_A SET_B

A set is a directory of runs, as ``run.py --runs-dir SET`` leaves them.
For every workload and end-to-end metric this prints each set's median
and quartiles over its untraced runs, the spread (quartile distance over
median), and whether B's median is within the benchmark's bound of A's.
It also compares the share of failed jobs, which must be equal.  Exits 1
if any median differs by more than its bound or the shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path):
    """workload -> list of untraced run results."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*/summary.json")):
        doc = json.loads(path.read_text())
        if doc["trace"] == 0:
            runs[doc["workload"]].append(doc["result"])
    return runs


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(args.set_a), load_set(args.set_b)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        if not a[workload] or not b[workload]:
            print(f"{workload}: no runs in "
                  f"{args.set_a if not a[workload] else args.set_b}")
            ok = False
            continue
        print(f"{workload}  (A: {len(a[workload])} runs, "
              f"B: {len(b[workload])} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = []
            for runs in (a[workload], b[workload]):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3 = describe(values) if len(values) > 1 else (
                    values[0], values[0], values[0])
                rows.append((median, q1, q3, (q3 - q1) / median))
            change = (rows[1][0] - rows[0][0]) / rows[0][0]
            worse = change if metric["better"] == "lower" else -change
            verdict = "within bound" if worse <= bound else "WORSE"
            ok &= worse <= bound
            for label, (median, q1, q3, spread) in zip("AB", rows):
                print(f"  {name:<12} {label}: median {median:.6g} "
                      f"{metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.1%}")
            print(f"  {name:<12} B vs A: {change:+.2%} "
                  f"(bound {bound:.0%}, {metric['better']} is better): "
                  f"{verdict}")
        shares = [
            {r["failed"] / r["attempted"] for r in runs}
            for runs in (a[workload], b[workload])
        ]
        same = len(shares[0] | shares[1]) == 1
        ok &= same
        print(f"  failed share A {sorted(shares[0])} B {sorted(shares[1])}: "
              f"{'equal' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
