"""The end-to-end metric catalogue and the percentile rules.

``BENCHMARK.json`` carries name, unit, direction and bound; its schema
has no room for the *clock*, so the clock and the definition of each
metric live here.  The smoke test checks the two stay in step.

Clocks are never mixed: ``wall`` and ``cpu`` metrics are host time and
vary run to run; ``sim`` metrics are simulated time (or a count the
simulation fixes) and repeat exactly for a seed, so any difference is a
model change, not noise.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import Dict, List, NamedTuple, Optional, Sequence

#: Percentiles above the median are reported only with this many
#: samples beyond them (p99 needs 1000 samples, p90 needs 100).
MIN_TAIL_SAMPLES = 10


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str  # sim | wall | cpu
    better: str  # higher | lower
    #: How much worse than the baseline median it may get: a share of
    #: that median, or (``absolute``) a plain difference.
    bound: float
    definition: str
    absolute: bool = False


#: The ten end-to-end metrics, by the names every workload reports.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "wall", "lower", 0.25,
           "imports done -> topology, network (incl. worker spawn), "
           "frontend built and schedule generated"),
    Metric("orders_per_s", "orders/s", "wall", "higher", 0.10,
           "submissions (every outcome) / wall seconds of the run() that "
           "drains the schedule (plus close() of the worker pool)"),
    Metric("cpu_ms_per_order", "ms", "cpu", "lower", 0.10,
           "user+sys CPU of the repeat's whole process (imports, set-up, "
           "run, close) and its reaped workers / submissions"),
    Metric("peak_rss_mb", "MB", "wall", "lower", 0.10,
           "ru_maxrss of the repeat's process plus its largest worker"),
    Metric("failed_share", "ratio", "sim", "lower", 0.005,
           "(submissions - those that reached Active) / submissions; "
           "blocked, shed, throttled, queue-full, setup-failed and "
           "degraded all count", absolute=True),
    Metric("order_to_active_sim_s_p50", "sim_s", "sim", "lower", 0.01,
           "frontend submit -> active event, median"),
    Metric("order_to_active_sim_s_p99", "sim_s", "sim", "lower", 0.01,
           "same, p99; only with >= 10 samples beyond it"),
    Metric("teardown_sim_s_p50", "sim_s", "sim", "lower", 0.01,
           "teardown ordered -> released event, median"),
    Metric("restore_sim_s_p50", "sim_s", "sim", "lower", 0.01,
           "total_outage_s of >= 10 Gb/s connections hit by a cut and "
           "restored, median (mono-churn only)"),
    Metric("restore_sim_s_p90", "sim_s", "sim", "lower", 0.01,
           "same, p90; only with >= 10 samples beyond it"),
]

#: The host-speed-normalised twins the benchmark driver bounds (see
#: ``bench/hostspeed.py``): the raw wall and CPU metrics drift by a
#: quarter between minutes on a shared host, these much less.
NORMALISED: List[Metric] = [
    Metric("setup_ref_s", "s", "wall", "lower", 0.25,
           "setup_s / host speed factor of the loop timed right after it"),
    Metric("orders_per_ref_s", "orders/s", "wall", "higher", 0.25,
           "orders_per_s x host speed factor: orders per second of a host "
           "that runs the calibration loop in the reference time"),
    Metric("cpu_ref_ms_per_order", "ms", "cpu", "lower", 0.25,
           "cpu_ms_per_order / host speed factor"),
]

BY_NAME: Dict[str, Metric] = {
    metric.name: metric for metric in END_TO_END + NORMALISED
}


@functools.lru_cache(maxsize=None)
def benchmark_json() -> dict:
    """The repo's ``BENCHMARK.json`` (one directory above this package);
    read once, so treat the result as read-only."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(values: Sequence[float], share: float) -> Optional[float]:
    """Nearest-rank percentile; None for no samples, and for a tail
    percentile with fewer than ``MIN_TAIL_SAMPLES`` samples beyond it."""
    if not values:
        return None
    rank = max(1, math.ceil(round(share * len(values), 6)))
    if share > 0.5 and len(values) - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]
