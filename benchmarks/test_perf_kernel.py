"""Perf microbenchmarks for the event-kernel hot path.

The optimized :meth:`Simulator.run` loop (locals-bound heap/pop, single
pop per event, inline trace check) versus a faithful replica of the
seed kernel's peek-then-step loop, plus the fast paths: lazy-
cancellation compaction, ``schedule_many`` batch loading, and the
two-tier event list draining a pre-loaded schedule.  The
measurement helpers live in ``benchmarks/sweep_report.py`` so the
assertions here and the committed ``BENCH_sweep.json`` share one
methodology.

Correctness of the new paths is covered by ``tests/test_sim_kernel.py``;
this file only asserts the perf shape: the optimized loop never loses,
and the cancel-heavy workload (where compaction skips popping dead
events one at a time) clears a real speedup bar.
"""

from benchmarks.harness import print_rows
from benchmarks.sweep_report import (
    SeedKernel,
    collect_kernel_measurements,
    load_cancel_heavy,
    load_preloaded_schedule,
    load_timer_chains,
    measure_run,
)
from repro.sim.kernel import Simulator


def test_perf_kernel_loops(benchmark):
    results = benchmark.pedantic(
        collect_kernel_measurements, rounds=1, iterations=1
    )

    rows = [["workload", "before (ns/ev)", "after (ns/ev)", "speedup"]]
    for name, row in results.items():
        before = row.get("before_ns_per_event", row.get("loop_ns_per_event"))
        after = row.get(
            "after_ns_per_event", row.get("schedule_many_ns_per_event")
        )
        rows.append(
            [name, f"{before:.0f}", f"{after:.0f}", f"{row['speedup']:.2f}x"]
        )
    print_rows("Event kernel: seed loop vs optimized loop", rows)
    benchmark.extra_info.update(
        {name: row["speedup"] for name, row in results.items()}
    )

    # The common case must not regress (allow measurement noise)...
    assert results["timer_chain"]["speedup"] > 0.9, results["timer_chain"]
    # ...and the workloads the new paths exist for must clearly win.
    assert results["cancel_heavy"]["speedup"] > 1.2, results["cancel_heavy"]
    assert results["batch_schedule"]["speedup"] > 1.1, (
        results["batch_schedule"]
    )
    assert results["preloaded_schedule"]["speedup"] >= 1.2, (
        results["preloaded_schedule"]
    )


def test_perf_kernel_same_event_counts(benchmark):
    """The speedup is not bought by firing fewer events."""

    def compare():
        mismatches = 0
        for build in (
            load_timer_chains,
            load_cancel_heavy,
            load_preloaded_schedule,
        ):
            seed_sim = SeedKernel()
            total = build(seed_sim)
            seed_fired = seed_sim.run()
            new_sim = Simulator()
            assert build(new_sim) == total
            if new_sim.run() != seed_fired:
                mismatches += 1
            if seed_sim.now != new_sim.now:
                mismatches += 1
        return mismatches

    assert benchmark.pedantic(compare, rounds=1, iterations=1) == 0


def test_perf_cancel_heavy_fires_only_survivors():
    """Sanity-check the workload itself: 90% canceled, 10% fired."""
    sim = Simulator()
    total = load_cancel_heavy(sim, events=5_000)
    fired = sim.run()
    assert fired == total // 10
    _, elapsed_events = measure_run(
        lambda s: load_cancel_heavy(s, events=5_000), Simulator
    )
    assert elapsed_events == total
