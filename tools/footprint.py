"""How much memory a benchmark run keeps per order served.  Stdlib only.

    python tools/footprint.py [--workload W ...] [--seed 11] [--scales 0.15 0.5]

For each workload (default: all four ``BENCHMARK.json`` names) and each
of two scales, builds it and loads its schedule as ``bench.child`` does,
then drains it with ``Driver.run()`` under ``tracemalloc``.  What the
run keeps is what ``run()`` allocated and is still alive when it returns
(after a ``gc.collect()``); the driver's tickets stay referenced, as in
``bench.child``.  Prints one line per workload: orders served and bytes
kept at each scale, and the slope between the scales in bytes per order
-- the part of the footprint that grows with history rather than with
the network -- then the ``TOP`` source files by that slope.  A run
whose memory follows its live orders reads near 0 B/order.

Each (workload, scale) runs in a process of its own with
``PYTHONHASHSEED=0``.  Only this process's allocations are seen: a
``sharded-pool`` run's worker processes keep their own, so for it one
more line gives, at each scale, the largest worker's peak RSS
(``RUSAGE_CHILDREN`` once ``world.close()`` has reaped them) and what
the pool's crash-replay journals hold after ``run()``: their entries,
and the ``sys.getsizeof`` bytes of every object they reach, each
counted once (keys and names shared with the graph included).  ``tracemalloc``
slows the run several-fold; the bytes do not depend on speed.  The
script imports ``bench.workloads`` and ``bench.driver`` as they are.
"""
import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKLOADS = ["sharded-inproc", "sharded-pool", "edge-overload", "mono-churn"]
TOP = 4  # source files listed per workload


def reached_bytes(roots):
    """``sys.getsizeof`` of every object ``roots`` reach through dicts,
    lists, tuples and sets, each object counted once."""
    seen, stack, total = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return total


def measure(workload, seed, scale):
    """One run of ``workload`` in this process: orders served, bytes
    ``run()`` kept, and those bytes by source file; with a worker pool
    also its journals after the run and its largest worker's peak."""
    from bench.driver import Driver
    from bench.workloads import BUILDERS

    world = BUILDERS[workload](seed, scale, None)
    pool = None
    try:
        driver = Driver(world)
        driver.load()
        tracemalloc.start()
        try:
            driver.run()
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        if world.pool is not None:
            journals = [unit.journal for unit in world.pool._units.values()]
            pool = {
                "journal_entries": sum(map(len, journals)),
                "journal_bytes": reached_bytes(journals),
            }
    finally:
        world.close()
    if pool is not None:
        pool["worker_peak_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
    by_file = {
        os.path.relpath(stat.traceback[0].filename, ROOT): stat.size
        for stat in snapshot.statistics("filename")
    }
    return {
        "orders": len(driver.tickets),
        "kept": sum(by_file.values()),
        "by_file": by_file,
        "pool": pool,
    }


def run_one(workload, seed, scale, env):
    done = subprocess.run(
        [sys.executable, os.path.realpath(__file__),
         "--workload", workload, "--seed", str(seed), "--scale", str(scale)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} at {scale} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def lines(workload, scales, low, high):
    orders = high["orders"] - low["orders"]
    if orders <= 0:
        raise SystemExit(f"{workload}: the two scales served the same orders")
    slope = {
        name: (high["by_file"].get(name, 0) - low["by_file"].get(name, 0)) / orders
        for name in set(low["by_file"]) | set(high["by_file"])
    }
    yield (
        f"{workload:<15} "
        + "  ".join(
            f"{scale}: {side['orders']:,} orders {side['kept'] / 1e6:6.2f} MB"
            for scale, side in zip(scales, (low, high))
        )
        + f"  -> {(high['kept'] - low['kept']) / orders:7,.0f} B/order"
    )
    if low["pool"] is not None:
        yield "    pool: " + "  ".join(
            f"{scale}: largest worker {side['pool']['worker_peak_mb']:.1f} MB,"
            f" journals {side['pool']['journal_entries']:,} entries"
            f" {side['pool']['journal_bytes'] / 1e3:,.1f} KB"
            for scale, side in zip(scales, (low, high))
        )
    for name in sorted(slope, key=lambda name: -slope[name])[:TOP]:
        yield f"    {slope[name]:7,.0f} B/order  {name}"


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python tools/footprint.py")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scales", type=float, nargs=2, default=[0.15, 0.5])
    # One (workload, scale) measured in this process: what run_one starts.
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale is not None:
        print(json.dumps(measure(args.workload[0], args.seed, args.scale)))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    print(f"seed {args.seed}, bytes run() kept, slope between scales {args.scales}")
    for workload in args.workload or WORKLOADS:
        low, high = (run_one(workload, args.seed, scale, env) for scale in args.scales)
        for text in lines(workload, args.scales, low, high):
            print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
