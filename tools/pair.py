"""Pair a revision against the working tree on the benchmark.  Stdlib only.

    python tools/pair.py REV [--workload W ...] [--seed N ...] [--pairs 10]
                             [--scale 0.15] [--out FILE]

Extracts REV's committed files (``git archive``) into ``parent/`` of a
temporary directory and copies this checkout's tracked and untracked,
not ignored files as they are on disk into ``change/`` beside it, so
both sides run from paths of one length (a longer path alone moves
``peak_rss_mb`` by more than its run-to-run spread).  It then runs
``python -m bench.child --workload W --seed N --scale S`` in both, one
pair at a time, alternating which side goes first, with
``PYTHONHASHSEED=0`` and ``PYTHONPATH=src:.`` as ``python -m bench``
runs its children.  For the four end-to-end
metrics ``BENCHMARK.json`` names (``setup_s`` is the child's
``setup_ref_s``, as the harness reports it) it gives each side's median
and quartiles, the pairs the working tree won (ties count for neither)
and the verdict: ``better`` or ``worse`` when one side won at least nine
tenths of the pairs and the medians differ by more than the distance
between REV's quartiles, else ``no claim``.  It also says whether both
sides settled the same ``sim_fingerprint``, and where one set-up's wall
time goes (hierarchy, network, load generation, the rest), timed once
per side and pair in a process of its own that stops after
``Driver.load``; that process also reads the CPU seconds and peak RSS
of the import chain alone, so a shift can be placed in the imports or
in the run, and the peak RSS again as each set-up stage ends, so a
memory shift can be placed in the stage that makes it.  Workloads default to ``sharded-inproc`` and seeds to
47.  The report is written to ``perf/<short REV>.md`` unless ``--out``
names another file.  Nothing here imports ``bench``; only the children
run either side's code.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKLOADS = ["sharded-inproc", "sharded-pool", "edge-overload", "mono-churn"]
#: driver name -> (child metric it reads, True when higher is better).
METRICS = {
    "setup_s": ("setup_ref_s", False),
    "orders_per_ref_s": ("orders_per_ref_s", True),
    "cpu_ref_ms_per_order": ("cpu_ref_ms_per_order", False),
    "peak_rss_mb": ("peak_rss_mb", False),
}


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev, tree):
    """REV's committed files, as a checkout of REV would hold them."""
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return tree


def copy_checkout(tree):
    """This checkout's files as they are on disk: tracked ones (edited or
    not) and untracked ones git does not ignore."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = os.path.join(ROOT, name)
        if not os.path.isfile(source):
            continue  # deleted in the working tree
        target = os.path.join(tree, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)
    return tree


def run_python(root, label, args):
    """``python ARGS`` in ``root`` as ``python -m bench`` runs a child:
    its stdout's last line.  ``label`` names the run in an error."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{label} failed in {root}:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    return done.stdout.strip().splitlines()[-1]


def child(root, workload, seed, scale):
    """One ``bench.child`` run in ``root``: its JSON result."""
    return json.loads(run_python(root, "bench.child", [
        "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--scale", str(scale),
    ]))


#: Run in a side's tree: where one set-up's wall seconds go, by stage.
#: First imports what ``bench.child`` imports and reads the CPU seconds
#: and ``ru_maxrss`` the interpreter has spent by then, before any
#: builder; then wraps the builders ``bench.workloads`` calls and reads
#: the schedule's own timer; ``rest`` is the frontend, intake and
#: ``Driver.load``.  ``ru_maxrss`` is read again as each stage ends
#: (``loadgen`` when the workload's builder returns, ``rest`` after
#: ``Driver.load``); a stage a workload does not run reads the one before.
BREAKDOWN = """
import json, resource, sys, time
def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
import bench.child
imports = {"cpu_s": time.process_time(), "rss_mb": maxrss_mb()}
import bench.workloads as workloads
from bench.driver import Driver

spent = {"hierarchy": 0.0, "network": 0.0}
rss = {}
def timed(stage, build):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - started
            rss[stage] = maxrss_mb()
    return wrapper
for name, stage in [("build_hierarchy", "hierarchy"),
                    ("build_sharded_network", "network"),
                    ("build_waxman_network", "network"),
                    ("build_griphon_testbed", "network")]:
    if hasattr(workloads, name):
        setattr(workloads, name, timed(stage, getattr(workloads, name)))
workload, seed, scale = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
started = time.perf_counter()
world = workloads.BUILDERS[workload](seed, scale, None)
rss["loadgen"] = maxrss_mb()
Driver(world).load()
total = time.perf_counter() - started
rss["rest"] = maxrss_mb()
world.close()
spent["loadgen"] = world.generate_s
spent["rest"] = total - sum(spent.values())
spent["total"] = total
print(json.dumps({**spent, "imports": imports, "rss_mb": rss}))
"""
STAGES = ["hierarchy", "network", "loadgen", "rest", "total"]
#: The stages ``ru_maxrss`` is read at the end of, in set-up order.
RSS_STAGES = ["hierarchy", "network", "loadgen", "rest"]
#: The import chain's row: (label, key in the probe's ``imports``, scale).
IMPORTS = [("CPU ms", "cpu_s", 1e3), ("ru_maxrss MB", "rss_mb", 1.0)]


def stage_rss(run, index):
    """``ru_maxrss`` at the end of ``RSS_STAGES[index]`` in one probe
    run: the reading of the last stage up to it that ran, else the
    import chain's."""
    for stage in reversed(RSS_STAGES[:index + 1]):
        if stage in run["rss_mb"]:
            return run["rss_mb"][stage]
    return run["imports"]["rss_mb"]


def breakdown(root, workload, seed, scale):
    """One set-up in ``root``, timed by stage (raw wall seconds)."""
    return json.loads(
        run_python(
            root, "set-up breakdown",
            ["-c", BREAKDOWN, workload, str(seed), str(scale)],
        )
    )


def quartiles(values):
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, higher_is_better):
    """Pairs the change won, and the claim the pairs allow."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    gap = abs(quartiles(change)[1] - p_median)
    pairs = len(parent)
    if wins * 10 >= pairs * 9 and gap > p_q3 - p_q1:
        return wins, "better"
    if losses * 10 >= pairs * 9 and gap > p_q3 - p_q1:
        return wins, "worse"
    return wins, "no claim"


def measure(trees, workload, seed, scale, pairs, log):
    """``pairs`` alternating pairs: ``{side: [child result, ...]}``, and
    as many set-up breakdowns per side, alternating likewise.  ``trees``
    maps each side to the directory it runs from."""
    runs = {"parent": [], "change": []}
    stages = {"parent": [], "change": []}
    for index in range(pairs):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(child(trees[side], workload, seed, scale))
        for side in order:
            stages[side].append(breakdown(trees[side], workload, seed, scale))
        log(f"  {workload} seed {seed}: pair {index + 1}/{pairs} done")
    return runs, stages


def fmt(value):
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def report(rev, short, head, dirty, args, results):
    lines = [
        f"# `{short}` against the working tree",
        "",
        f"- Parent: `{rev}` ({short}); change: the working tree at "
        f"`{head}`{' with uncommitted edits' if dirty else ''}, copied "
        "beside the parent's tree so both run from paths of one length.",
        f"- Command: `python tools/pair.py {rev} "
        + " ".join(f"--workload {w}" for w in args.workload)
        + "".join(f" --seed {seed}" for seed in args.seed)
        + f" --pairs {args.pairs} --scale {args.scale}`",
        f"- Host: {platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}, {platform.system()} "
        f"{platform.release()}.",
        f"- Each pair runs `python -m bench.child --workload W --seed N "
        f"--scale {args.scale}` once per side with "
        "`PYTHONHASHSEED=0`, alternating which side goes first.",
        "- Cells: median [q1, q3]. Won: pairs the change was better in. "
        "Verdict: better/worse when one side won at least 9/10 pairs and "
        "the medians differ by more than the parent's q3 - q1.",
        "",
    ]
    for (workload, seed), (runs, stages) in results.items():
        same = [
            p["sim_fingerprint"] == c["sim_fingerprint"]
            for p, c in zip(runs["parent"], runs["change"])
        ]
        lines += [
            f"## {workload}, seed {seed}",
            "",
            f"`sim_fingerprint` equal in {sum(same)}/{len(same)} pairs.",
            "",
            "| metric | parent | change | change vs parent | won | verdict |",
            "|---|---|---|---|---|---|",
        ]
        raw = []
        for name, (field, higher) in METRICS.items():
            parent = [run["metrics"][field] for run in runs["parent"]]
            change = [run["metrics"][field] for run in runs["change"]]
            wins, claim = verdict(parent, change, higher)
            cells = []
            for values in (parent, change):
                q1, median, q3 = quartiles(values)
                cells.append(f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]")
            delta = quartiles(change)[1] / quartiles(parent)[1] - 1
            lines.append(
                f"| `{name}` | {cells[0]} | {cells[1]} | {delta:+.1%} "
                f"| {wins}/{len(parent)} | {claim} |"
            )
            raw.append(
                f"- `{name}`: parent {' '.join(fmt(v) for v in parent)} / "
                f"change {' '.join(fmt(v) for v in change)}"
            )
        lines += [
            "",
            "Set-up by stage, raw wall ms, median [q1, q3] (separate runs "
            "that stop after `Driver.load`; builders this workload does not "
            "call read 0):",
            "",
            "| stage | parent | change | change vs parent |",
            "|---|---|---|---|",
        ]
        for stage in STAGES:
            cells = []
            for side in ("parent", "change"):
                q1, median, q3 = quartiles([1e3 * run[stage] for run in stages[side]])
                cells.append((median, f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"))
            delta = cells[1][0] - cells[0][0]
            lines.append(
                f"| {stage} | {cells[0][1]} | {cells[1][1]} | {delta:+.1f} ms |"
            )
        lines += [
            "",
            "The import chain, read in the same runs right after they import "
            "what `bench.child` imports, before any builder: CPU since the "
            "interpreter started, and `ru_maxrss`. Median [q1, q3]:",
            "",
            "| imports | parent | change | change vs parent |",
            "|---|---|---|---|",
        ]
        for label, key, scale in IMPORTS:
            cells = []
            for side in ("parent", "change"):
                q1, median, q3 = quartiles(
                    [scale * run["imports"][key] for run in stages[side]])
                cells.append((median, f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"))
            delta = cells[1][0] - cells[0][0]
            lines.append(f"| {label} | {cells[0][1]} | {cells[1][1]} | {delta:+.2f} |")
        lines += [
            "",
            "`ru_maxrss` as each set-up stage ends, in the same runs, MB, "
            "median [q1, q3] (`loadgen`: the builder has returned; `rest`: "
            "after `Driver.load`):",
            "",
            "| stage | parent | change | change vs parent |",
            "|---|---|---|---|",
        ]
        for index, stage in enumerate(RSS_STAGES):
            cells = []
            for side in ("parent", "change"):
                q1, median, q3 = quartiles(
                    [stage_rss(run, index) for run in stages[side]])
                cells.append((median, f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"))
            delta = cells[1][0] - cells[0][0]
            lines.append(f"| {stage} | {cells[0][1]} | {cells[1][1]} | {delta:+.2f} |")
        lines += ["", "Every run, in pair order:", "", *raw, ""]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python tools/pair.py")
    parser.add_argument("rev", help="the revision to pair against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    args.workload = args.workload or ["sharded-inproc"]
    args.seed = args.seed or [47]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    short = git("rev-parse", "--short", rev)
    head = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    out = args.out or os.path.join(ROOT, "perf", f"{short}.md")

    def log(message):
        print(message, file=sys.stderr, flush=True)

    scratch = tempfile.mkdtemp(prefix="pair-")
    try:
        trees = {
            "parent": extract(rev, os.path.join(scratch, "parent")),
            "change": copy_checkout(os.path.join(scratch, "change")),
        }
        results = {
            (workload, seed): measure(
                trees, workload, seed, args.scale, args.pairs, log
            )
            for workload in args.workload
            for seed in args.seed
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    text = report(args.rev, short, head, dirty, args, results)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        handle.write(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
