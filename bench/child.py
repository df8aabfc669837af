"""One repeat of one workload, in a process of its own.

``python -m bench.child --workload W --seed N --scale S [--trace-out F]``
builds the workload, drains its schedule, checks the result, and prints
one JSON object on its last line.  A fresh process per repeat keeps
``ru_maxrss``, route caches and the allocator's state from leaking
between repeats; a wall-clock run is a batch job with no threads.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
from typing import Dict, List, Optional

from bench import hostspeed, layers
from bench.driver import Driver
from bench.metrics import percentile
from bench.trace import Recorder
from bench.workloads import BUILDERS, World
from repro import api


def _cpu_s() -> float:
    """user+sys of this process and of every child reaped so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _dark_or_infrastructure(world: World) -> bool:
    """No lit channel belongs to a connection's lightpath -- and without
    OTN lines (which outlive their circuits by design) none is lit."""
    for controller in world.controllers.values():
        plant = controller.inventory.plant
        lit = set()
        for (a, b), mask in plant.occupancy_snapshot().items():
            link = plant.dwdm_link(a, b)
            lit.update(
                link.owner_of(channel)
                for channel in range(mask.bit_length())
                if mask >> channel & 1
            )
        held = {
            lightpath_id
            for connection in controller.connections.values()
            for lightpath_id in connection.lightpath_ids
        }
        if lit & held or (lit and not controller.inventory.otn_lines):
            return False
    return True


def check(world: World, driver: Driver) -> Dict[str, bool]:
    """The correctness checks that gate every run (after ``close()``)."""
    counter = world.metrics.counter
    return {
        "terminal_outcomes": all(
            isinstance(driver.outcome_of(ticket), api.TERMINAL_OUTCOMES)
            for ticket in driver.tickets
        ),
        "frontend_conservation": (
            driver.submissions
            == counter("frontend.submitted")
            == counter("frontend.admitted")
            + counter("frontend.shed")
            + counter("frontend.throttled")
        ),
        "queues_drained": (
            world.frontend.queue_depth() == 0
            and world.intake.queue_depth() == 0
            and world.sim.pending == 0
        ),
        "audit_clean": all(report.ok for report in world.audit().values()),
        "channels_free": _dark_or_infrastructure(world),
        "no_child_processes": not multiprocessing.active_children(),
    }


def run(workload: str, seed: int, scale: float, trace_out: Optional[str]) -> dict:
    helper = hostspeed.Helper()
    try:
        return _run(workload, seed, scale, trace_out, helper)
    finally:
        helper.close()


def _run(workload: str, seed: int, scale: float, trace_out: Optional[str],
         helper: hostspeed.Helper) -> dict:
    setup_started = time.perf_counter()
    recorder = Recorder() if trace_out else None
    wrap_pool = recorder and (
        lambda pool: recorder.wrap(pool, "ensure", "workers.spawn"))
    world = BUILDERS[workload](seed, scale, wrap_pool)
    driver = Driver(world)
    counts = None
    if recorder is not None:
        if world.pool is not None:
            # ``ensure`` also runs inside every RPC; only the spawn is wanted.
            recorder.unwrap(world.pool, "ensure")
        counts = layers.install(recorder, world, driver)
    driver.load()
    setup_s = time.perf_counter() - setup_started

    # Host speed, sampled on both sides of the run it normalises -- through
    # a helper process when the workload itself plans through workers.
    via_worker = world.pool is not None
    calibrate = helper.loop_s if via_worker else hostspeed.loop_s
    calibration_cpu = time.process_time()
    loops = [calibrate()]
    calibration_cpu = time.process_time() - calibration_cpu
    # Imports may already have reaped helper processes of their own.
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run_started = time.perf_counter()
    driver.run()
    run_s = time.perf_counter() - run_started
    if recorder is not None:
        recorder.unwrap()
    cache_stats = world.route_cache_stats()
    close_started = time.perf_counter()
    world.close()
    run_s += time.perf_counter() - close_started
    cpu_s = _cpu_s() - calibration_cpu
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers.ru_maxrss
    loops.append(calibrate())
    reference_s = hostspeed.REFERENCE_LOOP_S[via_worker]
    speed_factor = sum(loops) / len(loops) / reference_s

    submissions = driver.submissions
    to_active = driver.order_to_active_sim_s()
    restores = driver.restore_sim_s()
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "params": world.params,
        "metrics": {
            "setup_s": setup_s,
            "orders_per_s": submissions / run_s,
            "cpu_ms_per_order": cpu_s * 1e3 / submissions,
            "peak_rss_mb": rss_kb / 1024.0,
            "failed_share": (submissions - len(to_active)) / submissions,
            "order_to_active_sim_s_p50": percentile(to_active, 0.5),
            "order_to_active_sim_s_p99": percentile(to_active, 0.99),
            "teardown_sim_s_p50": percentile(driver.teardown_sim_s, 0.5),
            "restore_sim_s_p50": percentile(restores, 0.5),
            "restore_sim_s_p90": percentile(restores, 0.9),
            "setup_ref_s": setup_s * reference_s / loops[0],
            "orders_per_ref_s": submissions / run_s * speed_factor,
            "cpu_ref_ms_per_order": cpu_s * 1e3 / submissions / speed_factor,
        },
        "host_loop_s": loops,
        "samples": {
            "submissions": submissions,
            "active": len(to_active),
            "teardowns": len(driver.teardown_sim_s),
            "restored": len(restores),
        },
        "run_wall_s": run_s,
        "events": driver.events,
        "outcomes": driver.outcome_counts(),
        "unfinished": driver.unfinished(),
        "sim_fingerprint": driver.sim_fingerprint(),
        "checks": check(world, driver),
    }
    if recorder is not None:
        result["layers"] = layers.layer_metrics(
            recorder, counts, world, driver, cache_stats,
            child_cpu_s=(workers.ru_utime + workers.ru_stime
                         - before.ru_utime - before.ru_stime),
        )
        # By construction: attributed self time + residual == run() wall.
        result["attributed_wall_s"] = sum(
            seconds for name, seconds in recorder.self_s.items()
            if name not in ("kernel.run", "workers.spawn")
        )
        result["kernel_run_wall_s"] = sum(recorder.durations["kernel.run"])
        recorder.write(
            trace_out,
            {"workload": workload, "seed": seed, "scale": scale,
             "clock": "wall perf_counter seconds"},
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.scale, args.trace_out)
    print(json.dumps(result))
    return 0 if all(result["checks"].values()) and not result["unfinished"] else 1


if __name__ == "__main__":
    sys.exit(main())
