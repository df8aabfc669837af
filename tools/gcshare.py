"""How much of a benchmark run the cyclic garbage collector takes.  Stdlib only.

    python tools/gcshare.py [--workload W ...] [--seed 11] [--scale 0.15]

For each workload (default: all four ``BENCHMARK.json`` names), builds
it and loads its schedule as ``bench.child`` does, then drains it with
``Driver.run()`` while a ``gc.callbacks`` hook times every collection.
Prints one line per workload: the run's wall milliseconds, then per
generation the collections, the milliseconds they took and the
unreachable objects they found (cyclic garbage: a run whose every
dropped object is freed by its reference count finds 0), and the
collector's share of the run.  Each workload runs in a process of its
own with ``PYTHONHASHSEED=0``, so one workload's garbage never counts
against the next.  Only this process's collector is seen: a
``sharded-pool`` run's worker processes collect on their own.

``bench.layers`` cannot show this: a collection runs inside whatever
allocation triggered it, so its time lands in ``kernel.residual``.  The
script imports ``bench.workloads`` and ``bench.driver`` as they are.
"""
import argparse
import gc
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKLOADS = ["sharded-inproc", "sharded-pool", "edge-overload", "mono-churn"]


def measure(workload, seed, scale):
    """One run of ``workload`` in this process: wall seconds of
    ``Driver.run()`` and, per generation, collections, seconds and
    unreachable objects found."""
    from bench.driver import Driver
    from bench.workloads import BUILDERS

    collections, seconds, found = [0, 0, 0], [0.0, 0.0, 0.0], [0, 0, 0]
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        else:
            generation = info["generation"]
            collections[generation] += 1
            seconds[generation] += time.perf_counter() - started.pop()
            found[generation] += info["collected"]

    world = BUILDERS[workload](seed, scale, None)
    try:
        driver = Driver(world)
        driver.load()
        gc.callbacks.append(hook)
        try:
            run_started = time.perf_counter()
            driver.run()
            run_s = time.perf_counter() - run_started
        finally:
            gc.callbacks.remove(hook)
    finally:
        world.close()
    return {
        "run_s": run_s, "collections": collections, "seconds": seconds,
        "found": found,
    }


def line(workload, result):
    gc_s = sum(result["seconds"])
    generations = "  ".join(
        f"gen{generation} {count} / {1e3 * spent:.1f} ms / {found:,} found"
        for generation, (count, spent, found) in enumerate(
            zip(result["collections"], result["seconds"], result["found"])
        )
    )
    return (
        f"{workload:<15} run {1e3 * result['run_s']:8.1f} ms  "
        f"gc {1e3 * gc_s:6.1f} ms ({gc_s / result['run_s']:5.1%})  {generations}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python tools/gcshare.py")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.workload[0], args.seed, args.scale)))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    print(f"seed {args.seed}, scale {args.scale}")
    for workload in args.workload or WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.realpath(__file__), "--one",
             "--workload", workload, "--seed", str(args.seed),
             "--scale", str(args.scale)],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise SystemExit(f"{workload} failed:\n{done.stderr[-2000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(line(workload, result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
