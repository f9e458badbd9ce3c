"""Compare the deterministic counts of two traced results.

    python3 bench/compare_counts.py A.json B.json

A and B are results files of traced runs (`--trace 1`), such as
`.bench_run/results/<workload>-seed<seed>-trace1.json` saved from two runs
at the same seed.  Every `*.calls`, `curvature.geodesic_ivp.nfev`,
`*.kept` and `check.*` value must be identical; timings are ignored.
Exits 1 and lists the differences otherwise.
"""

from __future__ import annotations

import json
import sys


def deterministic(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls", ".nfev", ".kept")) or name.startswith("check.")}


def main(argv):
    a, b = (deterministic(json.load(open(p, encoding="utf-8"))["metrics"]) for p in argv[1:3])
    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in diff:
        print(f"{k}: {a.get(k)} != {b.get(k)}")
    print(f"{len(a)} counts compared, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
