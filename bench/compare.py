"""``python -m bench.compare A.json B.json``: did B regress against A?

One row per (workload, metric) with a verdict:

* ``ok`` -- B's median is no worse than A's by more than the metric's
  bound (from ``BENCHMARK.json``; from ``bench/metrics.py`` for the
  metrics its schema cannot list);
* ``regressed`` -- it is worse by more than the bound;
* ``unresolved`` -- the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the medians
  cannot settle it -- unless every run of B reads better than every run
  of A, which is ``ok``.  A metric only one side could report is
  unresolved too.

Sim-clock metrics repeat exactly per seed, so they have no spread and
any difference is a model change: it is judged against the bound alone.

Refuses (exit 2) to compare runs taken on different core counts or with
different seeds, scale or workload parameters.  Exit 1 on a regression.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional

if not __package__:  # run as ``python bench/compare.py``
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.metrics import END_TO_END, NORMALISED, benchmark_json


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def refusal(a: dict, b: dict) -> Optional[str]:
    """Why the two outputs are not comparable, or None."""
    for key in ("nproc", "usable_cpus"):
        if a["provenance"][key] != b["provenance"][key]:
            return (f"{key} differs: {a['provenance'][key]} vs "
                    f"{b['provenance'][key]}")
    for key in ("seed", "topology_seed", "scale"):
        if a["settings"][key] != b["settings"][key]:
            return f"{key} differs: {a['settings'][key]} vs {b['settings'][key]}"
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        params = [side["workloads"][name]["params"] for side in (a, b)]
        if params[0] != params[1]:
            return f"{name} parameters differ: {params[0]} vs {params[1]}"
    if not set(a["workloads"]) & set(b["workloads"]):
        return "no workload in common"
    return None


def verdict(a: dict, b: dict, better: str, bound: float,
            absolute: bool = False) -> str:
    if a["value"] is None and b["value"] is None:
        return "ok"
    if a["value"] is None or b["value"] is None:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if not absolute:
        worse_by /= abs(a["value"])
    if a["clock"] != "sim":
        spread = max(
            (side["q3"] - side["q1"]) / abs(side["value"]) for side in (a, b)
        )
        if spread > bound:
            b_wins_every_run = (
                max(b["samples"]) < min(a["samples"]) if better == "lower"
                else min(b["samples"]) > max(a["samples"])
            )
            return "ok" if b_wins_every_run else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: dict, b: dict) -> List[tuple]:
    listed = {entry["name"]: entry["bound"]
              for entry in benchmark_json()["end_to_end"]}
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in END_TO_END + NORMALISED:
            side_a = a["workloads"][name]["metrics"][metric.name]
            side_b = b["workloads"][name]["metrics"][metric.name]
            bound = listed.get(metric.name, metric.bound)
            rows.append((name, metric.name, side_a["value"], side_b["value"],
                         metric.unit,
                         f"{bound:g} abs" if metric.absolute else f"{bound:.0%}",
                         verdict(side_a, side_b, metric.better, bound,
                                 metric.absolute)))
        if (a["workloads"][name]["sim_fingerprint"]
                != b["workloads"][name]["sim_fingerprint"]):
            rows.append((name, "sim_fingerprint", None, None, "", "exact",
                         "changed (model change, or not a wall-only change)"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    a, b = load(paths[0]), load(paths[1])
    why = refusal(a, b)
    if why is not None:
        print(f"refusing to compare: {why}")
        return 2
    rows = compare(a, b)

    def show(value) -> str:
        return "null" if value is None else f"{value:.6g}"

    print(f"{'workload':<15} {'metric':<28} {'A':>12} {'B':>12} "
          f"{'unit':<9} {'bound':>9}  verdict")
    for workload, metric, va, vb, unit, bound, result in rows:
        print(f"{workload:<15} {metric:<28} {show(va):>12} {show(vb):>12} "
              f"{unit:<9} {bound:>9}  {result}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
