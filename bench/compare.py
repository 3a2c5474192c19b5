"""Compare two ``run.py --repeat N --out FILE`` documents.

    python3 bench/compare.py parent.json change.json

One row per workload × end-to-end metric, judged by the metric's own
bound from ``BENCHMARK.json``:

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — they do not;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either side exceeds the bound, or a side has fewer than
  two runs to take a spread from; unless every run of one side beats
  every run of the other, which decides it.

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance as a share of the median (None: too few runs)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Positive = the change is worse, as a share of the parent's median.
    change = sign * (statistics.median(b) - statistics.median(a)) / abs(
        statistics.median(a)
    )
    spreads = (spread(a), spread(b))
    if any(s is None or s > bound for s in spreads):
        if sign * max(b) < sign * min(a):
            return "better"
        if sign * min(b) > sign * max(a):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def values_of(document: Dict, workload: str, metric: str) -> List[float]:
    summary = document["workloads"][workload]["end_to_end"]["summary"]
    return summary[metric]["values"]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    print(f"{'workload':12s} {'metric':16s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    any_worse = False
    for workload in SPEC["workloads"]:
        name = workload["name"]
        if not all(
            "end_to_end" in doc["workloads"].get(name, {})
            for doc in (parent, change)
        ):
            continue
        for metric in SPEC["end_to_end"]:
            a = values_of(parent, name, metric["name"])
            b = values_of(change, name, metric["name"])
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"{name:12s} {metric['name']:16s} {ma:12.4f} {mb:12.4f} "
                  f"{(mb - ma) / abs(ma):+8.1%} {metric['bound']:6.2f}  "
                  f"{result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
