"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one of the paper's tables or figures.  The
helpers here run the simulated measurements; the benchmark functions
time them, print the regenerated rows (visible with ``pytest -s`` and
stored in ``benchmark.extra_info``), and assert the paper's *shape* —
who wins, by roughly what factor, and how trends run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from repro.facade import GriphonNetwork, build_griphon_testbed
from repro.sim.process import Process
from repro.topo.testbed import TABLE2_EXCLUSIONS
from repro.units import gbps


def measure_setup_time(
    net: GriphonNetwork,
    hops: int,
    rate_gbps: float = 10.0,
    teardown: bool = True,
) -> float:
    """One wavelength-connection establishment on a Table 2 path.

    Plans ROADM-I -> ROADM-IV with the exclusions that force the
    requested hop count, claims it, runs the full EMS workflow, and
    returns the elapsed simulated seconds.  Optionally tears the
    connection down again so repeated measurements see a clean network.
    """
    controller = net.controller
    plan = controller.rwa.plan(
        "ROADM-I",
        "ROADM-IV",
        gbps(rate_gbps),
        excluded_links=TABLE2_EXCLUSIONS[hops],
    )
    assert plan.hop_count == hops
    lightpath = controller.provisioner.claim(plan)
    start = net.sim.now
    Process(net.sim, controller.provisioner.setup_workflow(lightpath))
    net.run()
    elapsed = net.sim.now - start
    if teardown:
        Process(net.sim, controller.provisioner.teardown_workflow(lightpath))
        net.run()
    return elapsed


def table2_measurements(
    seed: int = 11,
    iterations: int = 10,
    parallel_ems: bool = False,
    speedup: Optional[float] = None,
) -> Dict[int, List[float]]:
    """Ten establishment times per Table 2 path length."""
    results: Dict[int, List[float]] = {1: [], 2: [], 3: []}
    for hops in results:
        for i in range(iterations):
            net = build_griphon_testbed(
                seed=seed + i, parallel_ems=parallel_ems
            )
            if speedup is not None:
                # Rebuild the latency model with the speedup applied.
                from repro.ems.latency import LatencyModel

                net.controller.set_latency_model(
                    LatencyModel(net.streams, speedup=speedup)
                )
            results[hops].append(measure_setup_time(net, hops, teardown=False))
    return results


def mean_by_hops(results: Dict[int, List[float]]) -> Dict[int, float]:
    """Mean establishment time per hop count."""
    return {hops: statistics.fmean(samples) for hops, samples in results.items()}


def print_rows(title: str, rows: List[List[str]]) -> None:
    """Render a small results table to stdout (visible with -s)."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print(f"\n=== {title} ===")
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
