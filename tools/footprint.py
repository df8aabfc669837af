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
whose memory follows its live orders reads near 0 B/order.  One more
line gives what the workload's *build* keeps (the bench builder's call,
at the first scale, traced in a process of its own: the network, its
controllers and the order schedule, before any order runs), the
``TOP`` source files by those bytes: what grows with the network, and
the ``TOP`` object types by the ``sys.getsizeof`` bytes reachable from
the built world (``dict``, ``list``, ``set``...): where a fact stored
twice shows.

Each (workload, scale) runs in a process of its own with
``PYTHONHASHSEED=0``.  Only this process's allocations are seen: a
``sharded-pool`` run's worker processes keep their own, so for it one
more line gives, at each scale, the largest worker's peak RSS
(``RUSAGE_CHILDREN`` once ``world.close()`` has reaped them).  ``tracemalloc``
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
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKLOADS = ["sharded-inproc", "sharded-pool", "edge-overload", "mono-churn"]
TOP = 4  # source files (and object types) listed per workload
#: Objects the walk neither counts nor enters: through them every
#: module, and so everything the interpreter holds, is reached.
OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def reached(roots):
    """``sys.getsizeof`` bytes of every object ``roots`` reach, by type
    name, each object counted once; classes, modules and functions are
    left out."""
    seen, stack, sizes = set(), list(roots), {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        name = type(obj).__name__
        sizes[name] = sizes.get(name, 0) + sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return sizes


def measure(workload, seed, scale):
    """One run of ``workload`` in this process: orders served, bytes
    ``run()`` kept, and those bytes by source file; with a worker pool
    also its largest worker's peak."""
    from bench.driver import Driver
    from bench.workloads import BUILDERS

    world = BUILDERS[workload](seed, scale, None)
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
    finally:
        world.close()
    pool = None
    if world.pool is not None:
        pool = {"worker_peak_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )}
    files = by_file(snapshot)
    return {
        "orders": len(driver.tickets),
        "kept": sum(files.values()),
        "by_file": files,
        "pool": pool,
    }


def measure_build(workload, seed, scale):
    """What building ``workload`` keeps, by source file, once the bench
    builder has returned (its worker pool, if any, still up), and the
    bytes the built world reaches by object type."""
    from bench.workloads import BUILDERS

    tracemalloc.start()
    try:
        world = BUILDERS[workload](seed, scale, None)
        try:
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
            by_type = reached([world])  # after the snapshot: not counted in it
        finally:
            world.close()
    finally:
        tracemalloc.stop()
    return {"by_file": by_file(snapshot), "by_type": by_type}


def by_file(snapshot):
    """A ``tracemalloc`` snapshot's live bytes by repo-relative file."""
    return {
        os.path.relpath(stat.traceback[0].filename, ROOT): stat.size
        for stat in snapshot.statistics("filename")
    }


def run_one(workload, seed, scale, env, *extra):
    done = subprocess.run(
        [sys.executable, os.path.realpath(__file__),
         "--workload", workload, "--seed", str(seed), "--scale", str(scale), *extra],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} at {scale} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def lines(workload, scales, low, high, build):
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
            f"{scale}: largest worker {side['pool']['worker_peak_mb']:.1f} MB"
            for scale, side in zip(scales, (low, high))
        )
    for name in sorted(slope, key=lambda name: -slope[name])[:TOP]:
        yield f"    {slope[name]:7,.0f} B/order  {name}"
    built = build["by_file"]
    yield f"    build at {scales[0]}: {sum(built.values()) / 1e6:6.2f} MB kept"
    for name in sorted(built, key=lambda name: -built[name])[:TOP]:
        yield f"    {built[name]:9,} B  {name}"
    kinds = build["by_type"]
    yield "    reached from the built world, by type: " + ", ".join(
        f"{name} {kinds[name] / 1e6:.2f} MB"
        for name in sorted(kinds, key=lambda name: -kinds[name])[:TOP]
    )


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python tools/footprint.py")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scales", type=float, nargs=2, default=[0.15, 0.5])
    # One (workload, scale) measured in this process: what run_one starts.
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--build", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale is not None:
        one = measure_build if args.build else measure
        print(json.dumps(one(args.workload[0], args.seed, args.scale)))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    print(f"seed {args.seed}, bytes run() kept, slope between scales {args.scales}")
    for workload in args.workload or WORKLOADS:
        low, high = (run_one(workload, args.seed, scale, env) for scale in args.scales)
        build = run_one(workload, args.seed, args.scales[0], env, "--build")
        for text in lines(workload, args.scales, low, high, build):
            print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
