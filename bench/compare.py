"""Compare two saved benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py bench/results/base.json bench/results/change.json

Both files come from ``run.py --all``.  For each end-to-end metric and
workload it prints the ratio of the medians together with the base median,
and marks the metric:

* ``REGRESSED``  the change's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved`` the run-to-run spread (interquartile range over median) of
  either side is wider than the bound, unless every run of the change is
  better than every run of the base (then ``better``);
* ``ok``         otherwise.

Per-layer metrics come from one traced run per side and carry no bound; they
are printed as ratios with their base.  Exits 1 when anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def values_of(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs]


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    mb, mc = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mc - mb) / abs(mb)
    if max(spread(base), spread(change)) > bound:
        all_better = all(sign * (c - b) < 0 for c in change for b in base)
        return ("better" if all_better else "unresolved"), worse
    return ("REGRESSED" if worse > bound else "ok"), worse


def ratio(new: float, old: float) -> str:
    return f"{new / old:8.3f}x" if old else "     n/a"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    for workload, old in base["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None:
            print(f"{workload}: missing from {argv[1]}")
            continue
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = values_of(old["end_to_end"], name), values_of(new["end_to_end"], name)
            status, worse = verdict(b, c, metric["better"], metric["bound"])
            regressed |= status == "REGRESSED"
            print(f"  {name:<14}{ratio(statistics.median(c), statistics.median(b))} of "
                  f"{statistics.median(b):.6g} {metric['unit']:<8} spread "
                  f"{spread(b):.3f}/{spread(c):.3f} bound {metric['bound']:<5} {status}")
        for label, side in (("base", old), ("change", new)):
            runs = side["end_to_end"] + side["per_layer"]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"  {label}: failed {failed} of {attempted} operations")
        for metric in spec["per_layer"]:
            name = metric["name"]
            b = statistics.median(values_of(old["per_layer"], name))
            c = statistics.median(values_of(new["per_layer"], name))
            print(f"  {name:<44}{ratio(c, b)} of {b:.6g} {metric['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
