"""``python -m bench``: run the workloads, print every metric, check, save.

Every repeat runs in a fresh child process (``bench.child``) with
tracing off.  Wall and CPU metrics are reported as the median over the
repeats with their quartiles; sim-clock metrics and the fingerprint must
repeat exactly.  ``--trace`` adds one traced child per workload for the
per-layer numbers.  With ``--seconds`` (the benchmark driver's calling
convention) the last stdout line is one JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from bench import TOPOLOGY_SEED
from bench.metrics import BY_NAME as METRIC, END_TO_END, NORMALISED, benchmark_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
DEFAULT_SEED = 11
#: Scale 1.0 is the full-size study (12-20 s a run).  On a shared host
#: the median only steadies with repeats, so the defaults keep 5 of them
#: and cut the scale until one invocation per workload fits the
#: benchmark driver's time cap (see the README's time budget).
DEFAULT_REPEATS = 5
DEFAULT_SCALE = 0.15
MAX_REPEATS = 9
#: Pinned for every child: with hash randomisation on, mono-churn's
#: outcomes differ from process to process (see the README).
HASH_SEED = "0"
PAIR = ("sharded-inproc", "sharded-pool")
#: The driver's schema fixes the name ``setup_s``; what it gets under
#: that name is the host-normalised twin, like its other two timings.
DRIVER_SOURCE = {"setup_s": "setup_ref_s"}


def provenance() -> dict:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git", "-C", ROOT) + args, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_child(workload: str, seed: int, scale: float,
              trace_out: Optional[str] = None) -> dict:
    """One repeat in a fresh process; raises if it fails to report."""
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale)]
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    env["PYTHONHASHSEED"] = HASH_SEED
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload}: child exited {done.returncode} without a result\n"
            + done.stderr[-2000:]
        )
    return json.loads(lines[-1])


def summarise(name: str, runs: List[dict]) -> dict:
    """Median, quartiles and samples of one metric over the repeats."""
    metric = METRIC[name]
    samples = [run["metrics"][name] for run in runs]
    entry = {"unit": metric.unit, "clock": metric.clock, "better": metric.better,
             "bound": metric.bound, "n": len(samples), "samples": samples}
    if any(sample is None for sample in samples):
        return {**entry, "value": None, "q1": None, "q3": None}
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (samples[0],) * 3)
    return {**entry, "value": statistics.median(samples), "q1": q1, "q3": q3}


def run_workload(workload: str, seed: int, scale: float, repeats: int,
                 seconds: Optional[float], trace: bool) -> dict:
    runs: List[dict] = []
    measured = 0.0
    while len(runs) < repeats or (
        seconds is not None and measured < seconds and len(runs) < MAX_REPEATS
    ):
        runs.append(run_child(workload, seed, scale))
        measured += runs[-1]["run_wall_s"]
    metrics = {metric.name: summarise(metric.name, runs)
               for metric in END_TO_END + NORMALISED}
    loops = [loop for run in runs for loop in run["host_loop_s"]]
    checks = {
        name: all(run["checks"][name] for run in runs)
        for name in runs[0]["checks"]
    }
    checks["nothing_unfinished"] = not any(run["unfinished"] for run in runs)
    checks["fingerprint_repeats"] = (
        len({run["sim_fingerprint"] for run in runs}) == 1
    )
    checks["sim_metrics_repeat"] = all(
        len({json.dumps(sample) for sample in entry["samples"]}) == 1
        for entry in metrics.values() if entry["clock"] == "sim"
    )
    record = {
        "params": runs[0]["params"],
        "metrics": metrics,
        "samples": runs[0]["samples"],
        "outcomes": runs[0]["outcomes"],
        "events": runs[0]["events"],
        "sim_fingerprint": runs[0]["sim_fingerprint"],
        "host_loop_s": loops,
        "attempted": sum(run["samples"]["submissions"] for run in runs),
        "failed": sum(run["unfinished"] for run in runs),
        "checks": checks,
    }
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        traced = run_child(workload, seed, scale,
                           os.path.join(OUT_DIR, f"trace-{workload}.json"))
        layers = traced["layers"]
        layers["trace_overhead_ratio"] = traced["run_wall_s"] / statistics.median(
            run["run_wall_s"] for run in runs
        )
        layers["host.loop_s"] = statistics.median(loops)
        # The end-to-end metrics the driver cannot bound (raw wall ones
        # drift with the host; sim ones vary with the seed or are null
        # on some workload) reach it through this unbounded list.
        for entry in benchmark_json()["per_layer"]:
            if entry["name"] in metrics:
                layers[entry["name"]] = metrics[entry["name"]]["value"] or 0.0
        record["layers"] = layers
        record["trace"] = {
            "kernel_run_wall_s": traced["kernel_run_wall_s"],
            "attributed_wall_s": traced["attributed_wall_s"],
        }
        checks["trace_checks"] = all(traced["checks"].values())
        checks["trace_same_fingerprint"] = (
            traced["sim_fingerprint"] == record["sim_fingerprint"]
        )
        checks["trace_sums_to_run_wall"] = abs(
            traced["attributed_wall_s"] + layers["kernel.residual_wall_s"]
            - traced["kernel_run_wall_s"]
        ) < 1e-6
    return record


def report(name: str, record: dict) -> None:
    print(f"\n== {name}  {json.dumps(record['params'])}")
    print(f"   outcomes {json.dumps(record['outcomes'])}  events {record['events']}")
    for metric, entry in record["metrics"].items():
        if entry["value"] is None:
            value, spread = "null", ""
        else:
            value = f"{entry['value']:.6g}"
            spread = (f"  [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}]"
                      if entry["clock"] != "sim" else "  (exact per seed)")
        print(f"   {metric:<28} {value:>12} {entry['unit']:<9}"
              f" clock={entry['clock']:<4} n={entry['n']}{spread}")
    print(f"   samples {json.dumps(record['samples'])}")
    print(f"   sim_fingerprint {record['sim_fingerprint']}")
    if "layers" in record:
        print("   per-layer (traced run; *_wall_s is self time; "
              "kernel.residual = event dispatch + private process glue):")
        for layer, value in record["layers"].items():
            print(f"     {layer:<32} {value:.6g}")
    failed = [check for check, ok in record["checks"].items() if not ok]
    print(f"   checks: {'all passed' if not failed else 'FAILED ' + ', '.join(failed)}")


def main(argv: Optional[List[str]] = None) -> int:
    names = [entry["name"] for entry in benchmark_json()["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (topology seed is fixed)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="fresh-process repeats per workload")
    parser.add_argument("--workload", choices=names, action="append",
                        help="run only this workload (may be given twice)")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="order-count multiplier (1.0 = the issue's sizes)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "latest.json"))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced run per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep repeating until this much run() wall time "
                             "is measured; prints the driver's JSON line last")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.scale <= 0:
        parser.error("--repeats must be >= 1 and --scale > 0")
    if args.seconds is not None and len(args.workload or ()) != 1:
        parser.error("--seconds reports one workload: give --workload once")

    selected = args.workload or names
    records: Dict[str, dict] = {}
    for name in selected:
        records[name] = run_workload(
            name, args.seed, args.scale, args.repeats, args.seconds, bool(args.trace)
        )
    # sharded-pool's oracle is sharded-inproc on the same stream; when the
    # twin was not asked for, one reference run of it supplies the digest.
    if PAIR[1] in records:
        twin = (records[PAIR[0]]["sim_fingerprint"] if PAIR[0] in records else
                run_child(PAIR[0], args.seed, args.scale)["sim_fingerprint"])
        records[PAIR[1]]["checks"]["pool_equals_inproc"] = (
            records[PAIR[1]]["sim_fingerprint"] == twin
        )

    for name, record in records.items():
        report(name, record)
    correct = all(all(record["checks"].values()) for record in records.values())
    output = {
        "schema": 1,
        "provenance": provenance(),
        "settings": {"seed": args.seed, "topology_seed": TOPOLOGY_SEED,
                     "repeats": args.repeats, "scale": args.scale,
                     "pythonhashseed": HASH_SEED,
                     "seconds": args.seconds, "trace": bool(args.trace)},
        "correct": correct,
        "workloads": records,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(output, handle, indent=1)
    print(f"\nwrote {args.out}; correctness checks "
          f"{'passed' if correct else 'FAILED'}")

    if args.seconds is not None:
        (record,) = records.values()
        spec = benchmark_json()
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        source = (record["layers"] if args.trace else
                  {name: entry["value"] for name, entry in record["metrics"].items()})
        print(json.dumps({
            "correct": correct,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                entry["name"]: {
                    "value": source[DRIVER_SOURCE.get(entry["name"], entry["name"])],
                    "unit": entry["unit"],
                }
                for entry in listed
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
