"""``run.py --compare A.json B.json``: is B worse than A?

A file holds one or more sets (``run.py --out`` appends).  For every pairing
of workload and gating end-to-end metric the medians over each file's sets are
compared against the metric's bound, one row each:

* ``worse``         B's median is worse than A's by more than the bound;
* ``unresolved``    the run-to-run spread in A or B is wider than the bound,
                    so the difference cannot be told from noise;
* ``within bound``  otherwise.

Every ratio is printed with its base (A's median).  Exact counts (bound 0)
must not move in the worse direction at all.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Optional, Tuple

import metrics

__all__ = ["compare_files", "compare_sets"]

Sets = List[List[Dict[str, Any]]]


def _values(sets: Sets, workload: str, metric: str) -> List[float]:
    return [report["metrics"][metric]
            for reports in sets for report in reports
            if report["workload"] == workload and not report["trace"]
            and report["metrics"].get(metric) is not None]


def _spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median; the range for fewer
    than four runs; unknown for one."""
    if len(values) < 2 or not statistics.median(values):
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def _digests(sets: Sets) -> Dict[Tuple[str, int, int], str]:
    return {(report["workload"], report["seed"], report["ops"]):
            report["digest"] for reports in sets for report in reports}


def compare_sets(sets_a: Sets, sets_b: Sets) -> int:
    """Print the table; 1 if anything is worse or a digest moved, else 0."""
    verdicts = {"worse": 0, "unresolved": 0, "within bound": 0}
    print(f"{'workload':<14}{'metric':<28}{'A (base)':>12}{'B':>12}"
          f"{'B/A':>8}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict")
    workloads = [name for name in metrics.WORKLOADS
                 if _values(sets_a, name, "op_ms_p50")
                 and _values(sets_b, name, "op_ms_p50")]
    for workload in workloads:
        for metric in metrics.END_TO_END:
            a = _values(sets_a, workload, metric.name)
            b = _values(sets_b, workload, metric.name)
            if not a or not b:
                continue
            base, other = statistics.median(a), statistics.median(b)
            change = (other - base) if metric.better == "lower" \
                else (base - other)  # > 0 means B is worse
            spreads = (_spread(a), _spread(b))
            noisy = any(spread is not None and spread > metric.bound
                        for spread in spreads)
            if metric.bound == 0.0:
                verdict = "worse" if change > 0 else "within bound"
            elif noisy:
                verdict = "unresolved"
            elif base and change / base > metric.bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            verdicts[verdict] += 1
            ratio = f"{other / base:8.3f}" if base else f"{'-':>8}"
            shown = [f"{spread:10.3f}" if spread is not None
                     else f"{'-':>10}" for spread in spreads]
            print(f"{workload:<14}{metric.name:<28}{base:>12.5g}"
                  f"{other:>12.5g}{ratio}{metric.bound:>7.2f}"
                  f"{shown[0]}{shown[1]}  {verdict}")
    moved = 0
    digests_a, digests_b = _digests(sets_a), _digests(sets_b)
    for key in sorted(set(digests_a) & set(digests_b)):
        if digests_a[key] != digests_b[key]:
            moved += 1
            print(f"workload_digest of {key[0]} (seed {key[1]}, {key[2]} ops) "
                  f"differs: {digests_a[key]} vs {digests_b[key]} -- the two "
                  "sides did not run the same work")
    print(f"{verdicts['within bound']} within bound, "
          f"{verdicts['unresolved']} unresolved, {verdicts['worse']} worse, "
          f"{moved} digests differ")
    return int(verdicts["worse"] > 0 or moved > 0)


def compare_files(path_a: str, path_b: str) -> int:
    loaded = []
    for path in (path_a, path_b):
        with open(path) as handle:
            loaded.append(json.load(handle)["sets"])
    return compare_sets(*loaded)
