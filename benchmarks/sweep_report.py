"""Scale-out engine perf report: emits ``BENCH_sweep.json``.

Two measurements, one file:

* **Sweep wall-clock** — the x9 availability Monte Carlo (scaled up to
  a two-year horizon so trial work dominates pool startup), run
  serially and through the process pool, with the byte-identity of the
  two aggregates verified.  The ≥3x speedup target assumes ≥8 usable
  cores; the report records ``usable_cpus`` so a 1-core CI container's
  ~1x is interpretable rather than alarming.
* **Kernel ns/event** — the tightened :meth:`Simulator.run` inner loop
  against a faithful replica of the seed kernel's loop (peek + step
  with property re-checks, no cancellation compaction, no batch
  scheduling), on four workloads: a timer-chain churn, a
  cancellation-heavy drain, a batch pre-load, and a pre-loaded schedule
  draining while callbacks keep timers in flight.

Usage::

    PYTHONPATH=src python benchmarks/sweep_report.py [output.json] [--jobs N]

The measurement helpers are imported by ``benchmarks/test_perf_kernel.py``
so the perf assertions and the report share one methodology.
"""

from __future__ import annotations

import heapq
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sweep import run_sweep, x9_availability_spec
from repro.units import DAY

#: Default output path: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: The scaled-up x9 spec used for the wall-clock comparison.
SWEEP_REPEATS = 64
SWEEP_HORIZON_S = 730 * DAY


# -- the "before" kernel ------------------------------------------------------


class SeedKernel:
    """A faithful replica of the seed repository's event loop.

    Used as the before-side of the kernel microbenchmark: per-iteration
    ``heap[0]`` peek followed by a :meth:`step` that pops again and
    re-checks ``Event.canceled`` through the property, no lazy-
    cancellation compaction, one ``heappush`` per scheduled event, and
    a fresh ``time_source`` closure per call.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[Event] = []
        self._pending = 0

    @property
    def now(self) -> float:
        return self._now

    def _event_canceled(self) -> None:
        self._pending -= 1

    def schedule(self, delay, callback, *args, label=""):
        return self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(self, time, callback, *args, label=""):
        event = Event(time, self._seq, callback, args, label, self._event_canceled)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def schedule_many(self, entries):
        """The seed had no batch API: one ``heappush`` per entry."""
        return [
            self.schedule_at(time, callback, *args)
            for time, callback, args in entries
        ]

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.canceled:
                continue
            self._now = event.time
            self._pending -= 1
            event.fire()
            return True
        return False

    def run(self, until=None, max_events=10_000_000) -> int:
        fired = 0
        while self._heap:
            head = self._heap[0]
            if head.canceled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head.time > until:
                break
            if fired >= max_events:
                raise RuntimeError("max_events")
            self.step()
            fired += 1
        if until is not None and until > self._now:
            self._now = until
        return fired


# -- kernel workloads ---------------------------------------------------------


def load_timer_chains(sim, chains: int = 32, hops: int = 2000) -> int:
    """Interleaved self-rescheduling timers: the kernel's common case."""

    def tick(remaining: int) -> None:
        if remaining:
            sim.schedule(1.0, tick, remaining - 1)

    for index in range(chains):
        sim.schedule(float(index) / chains, tick, hops - 1)
    return chains * hops


def load_cancel_heavy(
    sim, events: int = 120_000, keep_every: int = 10
) -> int:
    """Schedule a big horizon, cancel 90% of it, then drain the rest.

    Models workload generators that pre-schedule timelines and
    experiments that tear most of them down (teardown storms, aborted
    maintenance).  The optimized kernel compacts the heap once the dead
    events dominate; the seed kernel pops them one at a time.
    """
    scheduled = [
        sim.schedule(1.0 + (index % 977) * 0.5, _noop)
        for index in range(events)
    ]
    for index, event in enumerate(scheduled):
        if index % keep_every:
            event.cancel()
    return events


def load_preloaded_schedule(
    sim, entries: int = 20_000, hops: int = 3
) -> int:
    """A pre-loaded timeline whose arrivals each start a timer chain.

    The order path's shape: the whole arrival schedule is loaded up
    front (``schedule_many``) and spans the run, while every arrival's
    workflow keeps a few short timers in flight.  On the seed kernel
    those timers sift through a heap that also holds the schedule; the
    two-tier event list keeps the schedule out of the heap.
    """

    def tick(remaining: int) -> None:
        if remaining:
            sim.schedule(0.75, tick, remaining - 1)

    sim.schedule_many(
        [(float(index % 4096), tick, (hops,)) for index in range(entries)]
    )
    return entries * (hops + 1)


def _noop() -> None:
    return None


def measure_run(build, kernel_factory) -> Tuple[float, int]:
    """Wall-clock one workload on one kernel; returns (seconds, events)."""
    sim = kernel_factory()
    total = build(sim)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, total


def measure_kernel_workload(
    build, rounds: int = 3
) -> Dict[str, float]:
    """Best-of-``rounds`` ns/event, seed loop vs optimized loop."""
    before = min(
        measure_run(build, SeedKernel)[0] for _ in range(rounds)
    )
    after = min(
        measure_run(build, Simulator)[0] for _ in range(rounds)
    )
    _, events = measure_run(build, Simulator)
    return {
        "events": events,
        "before_ns_per_event": before / events * 1e9,
        "after_ns_per_event": after / events * 1e9,
        "speedup": before / after,
    }


def measure_batch_schedule(
    count: int = 100_000, rounds: int = 3
) -> Dict[str, float]:
    """Loading ``count`` events: schedule_at loop vs one schedule_many."""

    def load_loop() -> float:
        sim = Simulator()
        start = time.perf_counter()
        for index in range(count):
            sim.schedule_at(float(index % 4096), _noop)
        return time.perf_counter() - start

    def load_batch() -> float:
        sim = Simulator()
        entries = [(float(index % 4096), _noop) for index in range(count)]
        start = time.perf_counter()
        sim.schedule_many(entries)
        return time.perf_counter() - start

    loop = min(load_loop() for _ in range(rounds))
    batch = min(load_batch() for _ in range(rounds))
    return {
        "events": count,
        "loop_ns_per_event": loop / count * 1e9,
        "schedule_many_ns_per_event": batch / count * 1e9,
        "speedup": loop / batch,
    }


def collect_kernel_measurements(rounds: int = 3) -> Dict[str, Dict[str, float]]:
    """All kernel microbenchmarks, keyed by workload name."""
    return {
        "timer_chain": measure_kernel_workload(load_timer_chains, rounds),
        "cancel_heavy": measure_kernel_workload(load_cancel_heavy, rounds),
        "preloaded_schedule": measure_kernel_workload(
            load_preloaded_schedule, rounds
        ),
        "batch_schedule": measure_batch_schedule(rounds=rounds),
    }


# -- sweep wall-clock ---------------------------------------------------------


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def measure_sweep_speedup(
    jobs: int = 8,
    repeats: int = SWEEP_REPEATS,
    horizon_s: float = SWEEP_HORIZON_S,
) -> Dict[str, object]:
    """Serial vs parallel wall-clock on the scaled-up x9 study."""
    spec = x9_availability_spec(repeats=repeats, horizon_s=horizon_s)

    start = time.perf_counter()
    serial = run_sweep(spec, jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_sweep(spec, jobs=jobs, timeout_s=900.0)
    parallel_s = time.perf_counter() - start

    return {
        "study": spec.name,
        "trials": len(serial.results),
        "repeats": repeats,
        "horizon_days": horizon_s / DAY,
        "jobs": jobs,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "aggregates_identical": serial.to_json() == parallel.to_json(),
        "failed_trials": len(serial.failed) + len(parallel.failed),
    }


def write_report(
    path: Path, sweep: Dict[str, object], kernel: Dict[str, Dict[str, float]]
) -> None:
    """Serialize the measurements (plus host context) as JSON."""
    report = {
        "benchmark": "sweep-engine",
        "schema_version": 1,
        "host": {
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
        },
        "sweep": sweep,
        "kernel": kernel,
        "notes": (
            "speedup target (>=3x at jobs=8) assumes >=8 usable cores; "
            "on fewer cores the sweep is CPU-bound and the ratio "
            "approaches 1x while aggregates stay byte-identical"
        ),
    }
    path.write_text(json.dumps(report, indent=2) + "\n")


def main(argv: List[str]) -> int:
    output = DEFAULT_OUTPUT
    jobs: Optional[int] = None
    args = list(argv[1:])
    while args:
        arg = args.pop(0)
        if arg == "--jobs":
            jobs = int(args.pop(0))
        else:
            output = Path(arg)
    if jobs is None:
        jobs = 8

    kernel = collect_kernel_measurements()
    for name, row in kernel.items():
        before = row.get("before_ns_per_event", row.get("loop_ns_per_event"))
        after = row.get(
            "after_ns_per_event", row.get("schedule_many_ns_per_event")
        )
        print(
            f"kernel {name:>18}: before {before:8.1f} ns/event, "
            f"after {after:8.1f} ns/event, speedup {row['speedup']:5.2f}x"
        )

    sweep = measure_sweep_speedup(jobs=jobs)
    print(
        f"sweep {sweep['study']}: {sweep['trials']} trials, "
        f"serial {sweep['serial_s']:.2f}s, "
        f"jobs={sweep['jobs']} {sweep['parallel_s']:.2f}s, "
        f"speedup {sweep['speedup']:.2f}x "
        f"(usable cpus: {usable_cpus()}), "
        f"identical={sweep['aggregates_identical']}"
    )

    write_report(output, sweep, kernel)
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
