"""Command-line interface: run the headline scenarios from a shell.

Usage::

    python -m repro quickstart
    python -m repro table2 --iterations 10
    python -m repro trace --json trace.json
    python -m repro restore
    python -m repro operator
    python -m repro sweep x9 --jobs 8 --json sweep.json
    python -m repro serve --tenants 100000 --rate 50

(Installed as the ``griphon`` console script.)  Every numeric command
(``table2``, ``trace``'s phase table, ``chaos``, ``slo``, ``optimize``,
``pipeline``, ``serve``, ``shard``) runs a study trial registered in
:data:`repro.sweep.studies.STUDIES` at ``--seed`` and renders its
result, so ``sweep`` can grid the same trial over seeds and parameters.
``quickstart``, ``restore``, ``operator`` and ``trace``'s span tree
build a network here and print a view of it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro.core.gui import render_connections, render_network_view
from repro.errors import ConfigurationError
from repro.facade import build_griphon_testbed
from repro.obs.trace import Span, Tracer
from repro.sweep.spec import SweepSpec, TrialResult, TrialSpec
from repro.sweep.studies import (
    chaos_trial,
    frontend_load_spec,
    frontend_trial,
    optimize_reclaim_spec,
    optimize_trial,
    pipeline_load_spec,
    pipeline_trial,
    shard_trial,
    slo_chaos_spec,
    slo_trial,
    table2_trial,
    x10_scaling_spec,
    x9_availability_spec,
)
from repro.topo.testbed import PAPER_TABLE2
from repro.units import format_duration

#: Built-in sweeps: ``griphon sweep NAME`` runs ``factory(repeats=...)``.
_SWEEPS = {
    "x9": x9_availability_spec,
    "x10": x10_scaling_spec,
    "pipeline": pipeline_load_spec,
    "frontend": frontend_load_spec,
    "slo": slo_chaos_spec,
    "optimize": optimize_reclaim_spec,
}

#: Setup phases in workflow order, for the trace breakdown columns.
_TRACE_PHASES = ("order", "fxc", "tune", "roadm", "equalize", "verify")


def _trial(runner: Callable[[TrialSpec], TrialResult], seed: int, **params: Any) -> TrialResult:
    """Run one study trial at ``seed`` in this process."""
    return runner(TrialSpec("cli", 0, runner.__name__, seed, params, runner))


def _read_json(path: str, shape: type = dict) -> Any:
    """A JSON input file (``--plan``, a sweep spec, or ``--policy``,
    whose top level is a list rather than an object)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, shape):
        kind = "object" if shape is dict else "array"
        raise ConfigurationError(
            f"cannot read {path}: the top level must be a JSON {kind}"
        )
    return data


def _write_report(path: Optional[str], name: str, payload: Any) -> None:
    """Write ``payload`` as the command's ``--json`` report, if asked."""
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {name} report to {path}")


def cmd_quickstart(args: argparse.Namespace) -> int:
    """Order a 10G connection, watch it come up, tear it down."""
    net = build_griphon_testbed(seed=args.seed)
    service = net.service_for("cli-demo")
    conn = service.request_connection("PREMISES-A", "PREMISES-C", 10)
    net.run()
    print(render_connections(service))
    print(f"\nsetup took {format_duration(conn.setup_duration)}")
    service.teardown_connection(conn.connection_id)
    before = net.sim.now
    net.run()
    print(f"teardown took {format_duration(net.sim.now - before)}")
    return 0


def _table2_trials(args: argparse.Namespace) -> List[TrialResult]:
    """One Table 2 trial per iteration, at seeds ``--seed + i``."""
    return [_trial(table2_trial, args.seed + i) for i in range(args.iterations)]


def cmd_table2(args: argparse.Namespace) -> int:
    """Regenerate Table 2: establishment time vs ROADM path length."""
    trials = _table2_trials(args)
    print("hops  paper mean (s)  measured mean (s)")
    for hops, paper in PAPER_TABLE2.items():
        measured = statistics.fmean(t.values[f"hops{hops}_setup_s"] for t in trials)
        print(f"{hops:>4}  {paper:>14.2f}  {measured:>17.2f}")
    return 0


def _print_span_tree(tracer: Tracer, span: Span, depth: int = 0) -> None:
    label = span.tags.get("label")
    suffix = f"  [{label}]" if label else ""
    print(f"{'  ' * depth}{span.name:<{28 - 2 * depth}} "
          f"{span.duration:>8.2f}s{suffix}")
    for child in tracer.children_of(span):
        _print_span_tree(tracer, child, depth + 1)


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace the 12 Gbps example, then break Table 2 down by phase."""
    # Part 1: the paper's 12 Gbps order (one 10G wavelength + two 1G
    # ODU0 circuits) as a span tree.
    net = build_griphon_testbed(seed=args.seed, tracing=True)
    service = net.service_for("cli-demo")
    conn = service.request_connection("PREMISES-A", "PREMISES-B", 12)
    net.run()
    tracer = net.tracer
    root = next(s for s in tracer.roots() if s.name == "connection.request")
    print(f"trace {root.trace_id}: 12 Gbps PREMISES-A <-> PREMISES-B "
          f"({conn.kind.value}) in {format_duration(root.duration)}")
    _print_span_tree(tracer, root)
    if args.json:
        tracer.dump(args.json)
        print(f"\nwrote {len(tracer)} spans to {args.json}")

    # Part 2: Table 2 with the setup time broken down by phase.
    trials = _table2_trials(args)
    print("\nTable 2 phase breakdown, ROADM-I -> ROADM-IV (mean s over "
          f"{args.iterations} runs):")
    header = "hops  " + "".join(f"{p:>10}" for p in _TRACE_PHASES)
    print(header + f"{'total':>10}{'paper':>10}")
    for hops, paper in PAPER_TABLE2.items():
        sums = dict.fromkeys(_TRACE_PHASES, 0.0)
        for trial in trials:
            for phase in _TRACE_PHASES:
                sums[phase] += trial.values.get(f"hops{hops}_{phase}_s", 0.0)
        row = f"{hops:>4}  " + "".join(
            f"{sums[p] / args.iterations:>10.2f}" for p in _TRACE_PHASES
        )
        total = statistics.fmean(t.values[f"hops{hops}_setup_s"] for t in trials)
        print(row + f"{total:>10.2f}{paper:>10.2f}")
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    """Cut a fiber under a live connection and watch restoration."""
    net = build_griphon_testbed(seed=args.seed)
    service = net.service_for("cli-demo")
    conn = service.request_connection("PREMISES-A", "PREMISES-C", 10)
    net.run()
    path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
    print(f"connection up on {' - '.join(path)}")
    print(f"cutting {path[0]} = {path[1]} ...")
    net.controller.cut_link(path[0], path[1])
    net.run()
    new_path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
    print(f"restored on {' - '.join(new_path)}")
    print(f"outage: {format_duration(conn.total_outage_s)}")
    print("(manual restoration today: 4-12 hours)")
    return 0


def cmd_operator(args: argparse.Namespace) -> int:
    """Bring up a few connections and print the operator view."""
    net = build_griphon_testbed(seed=args.seed, nte_interfaces=12)
    service = net.service_for("cli-demo", max_connections=32)
    for a, b, rate in (
        ("PREMISES-A", "PREMISES-B", 10),
        ("PREMISES-A", "PREMISES-C", 40),
        ("PREMISES-B", "PREMISES-C", 1),
    ):
        service.request_connection(a, b, rate)
    net.run()
    print(render_connections(service))
    print()
    print(render_network_view(net.controller))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run an experiment sweep, serially or across worker processes."""
    # Only this command runs the pool: the others never load it.
    from repro.sweep.engine import run_sweep

    if args.study in _SWEEPS:
        spec = _SWEEPS[args.study](repeats=args.repeats)
    elif Path(args.study).is_file():
        spec = SweepSpec.from_dict(_read_json(args.study))
    else:
        raise ConfigurationError(
            f"unknown study {args.study!r} (known: {', '.join(_SWEEPS)}; "
            "or the path of a JSON sweep spec)"
        )
    result = run_sweep(spec, jobs=args.jobs, timeout_s=args.timeout)
    print(
        f"sweep {spec.name}: {len(result.results)} trial(s), "
        f"jobs={args.jobs}, {result.elapsed_s:.2f}s wall-clock, "
        f"{len(result.failed)} failed"
    )
    for label, means in result.grouped_values().items():
        parts = ", ".join(f"{k}={v:.6g}" for k, v in sorted(means.items()))
        print(f"  {label}: {parts}")
    if result.failed:
        first = result.failed[0]
        print(f"  first error: {first.trial_id}: {first.error}")
    for failure in result.failed:
        print(f"  FAILED {failure.trial_id}: {failure.error}")
    if args.json:
        Path(args.json).write_text(result.to_json())
        print(f"wrote aggregate to {args.json}")
    return 1 if result.failed else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a fault-injection scenario and audit for resource leaks."""
    trial = _trial(
        chaos_trial, args.seed, orders=args.orders, rate=args.rate,
        modes=args.modes, plan=_read_json(args.plan) if args.plan else None,
    )
    report, values = trial.report, trial.values
    print(f"chaos: {args.orders} order(s), plan={report['plan']}")
    for row in report["connections"]:
        line = f"  {row['connection_id']}: {row['state']}"
        if row["outcome"] is not None:
            line += f"  [{row['outcome']}]"
        print(line)
    for name, value in report["counters"].items():
        print(f"  {name} = {value}")
    print(f"  mid-run {report['mid_audit']}")
    print(f"  final {report['final_audit']}")
    for violation in report["violations"]:
        print(f"    {violation}")
    _write_report(args.json, "chaos", {
        "orders": args.orders,
        "states": report["states"],
        "injected": report["injected"],
        "mid_audit_ok": values["mid_audit_ok"],
        "final_audit_ok": values["final_audit_ok"],
        "violations": report["violations"],
    })
    return 0 if values["mid_audit_ok"] and values["final_audit_ok"] else 2


def cmd_slo(args: argparse.Namespace) -> int:
    """Replay a gray-failure plan with the SLA remediation engine armed."""
    policies = None
    if args.policy:
        policies = _read_json(args.policy, list)
    elif args.policy_off:
        policies = []
    result = _trial(
        slo_trial, args.seed, horizon_s=args.horizon,
        plan=_read_json(args.plan) if args.plan else None,
        policies=policies, policy_on=policies is None or bool(policies),
    ).report
    mode = "armed" if result["policy_on"] else "policy-off"
    print(
        f"slo ({mode}): {result['connections']} connection(s), "
        f"{result['violation_minutes']:.1f} SLA-violation minutes"
    )
    for key in ("breaches", "recoveries", "rerouted", "reverted",
                "escalated", "deferred", "restored"):
        print(f"  slo.{key} = {result[key]:g}")
    print(f"  max reroute utilization = {result['max_reroute_utilization']:.1%}")
    print(f"  audit: {'CLEAN' if result['audit_ok'] else 'VIOLATIONS'}")
    _write_report(args.json, "slo", result)
    return 0 if result["audit_ok"] else 2


def cmd_optimize(args: argparse.Namespace) -> int:
    """Fragment a backbone, then globally re-optimize it live."""
    result = _trial(
        optimize_trial, args.seed, node_count=args.nodes,
        warm_orders=args.warm_orders, load_orders=args.load_orders,
        reoptimize=not args.no_reoptimize, k_paths=args.k_paths,
        max_passes=args.max_passes,
    ).report
    mode = "greedy baseline" if args.no_reoptimize else "re-optimized"
    print(
        f"optimize ({mode}): {result['survivors']} survivor(s) after "
        f"{result['torn_down']} teardown(s) on {args.nodes} PoPs"
    )
    print(
        f"  wavelengths in use: {result['wavelengths_fragmented']} "
        f"fragmented -> {result['wavelengths_optimized']} "
        f"({result['wavelengths_reclaimed']} reclaimed)"
    )
    if not args.no_reoptimize:
        print(
            f"  plan: {result['planned_moves']} move(s), "
            f"{result['rewavelength_moves']} rewavelength-only, "
            f"{result['planner_passes']} pass(es)"
        )
        print(
            f"  executed: {result['moves_completed']} completed, "
            f"{result['moves_stale']} stale, {result['moves_failed']} failed"
        )
        print(
            f"  audit: "
            f"{'CLEAN' if result['audit_violations'] == 0 else 'VIOLATIONS'}, "
            f"dropped survivors: {result['dropped_survivors']}"
        )
    print(
        f"  load ramp: {result['served']}/{result['load_orders']} served, "
        f"blocking probability {result['blocking_probability']:.3f}"
    )
    _write_report(args.json, "optimize", result)
    clean = result.get("audit_violations", 0) == 0 and result["dropped_survivors"] == 0
    return 0 if clean else 2


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Push a burst of concurrent orders through the intake pipeline."""
    trial = _trial(
        pipeline_trial, args.seed, topology=args.topology, latency_cv=None,
        orders=args.orders, round_size=args.round_size,
        capacity=args.capacity, max_defers=args.max_defers,
    )
    values, tickets = trial.values, trial.report["tickets"]
    print(
        f"pipeline: {args.orders} order(s) on {args.topology}, "
        f"round_size={args.round_size}, {values['rounds']} round(s)"
    )
    print(f"  accepted={values['accepted']}  blocked={values['blocked']}"
          f"  deferred={values['deferred']}  queue-full={values['queue_full']}")
    for ticket in tickets:
        line = (f"  {ticket['order_id']}: {ticket['premises_a']} <-> "
                f"{ticket['premises_b']}  {ticket['state']}")
        if ticket["connection_id"]:
            line += f"  [{ticket['connection_id']}]"
        if ticket["rounds_deferred"]:
            line += f"  (deferred {ticket['rounds_deferred']} round(s))"
        if ticket["reason"]:
            line += f"  - {ticket['reason']}"
        print(line)
    _write_report(args.json, "pipeline", {
        "orders": args.orders,
        "topology": args.topology,
        "round_size": args.round_size,
        "rounds": values["rounds"],
        "counts": trial.report["counts"],
        "tickets": tickets,
    })
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve an open-loop tenant fleet through the async frontend."""
    trial = _trial(
        frontend_trial, args.seed, topology=args.topology, latency_cv=None,
        tenants=args.tenants, arrival_rate=args.rate,
        duration_s=args.duration, queue_capacity=args.queue_capacity,
        bucket_rate=args.bucket_rate,
    )
    report = trial.report
    counters = report["counters"]
    print(
        f"serve: {report['scheduled']} arrival(s) from {args.tenants} "
        f"tenant(s) over {args.duration:.0f}s on {args.topology} "
        f"(rate {args.rate}/s, queue {args.queue_capacity})"
    )
    print(
        f"  submitted={counters.get('frontend.submitted', 0.0):.0f}  "
        f"admitted={counters.get('frontend.admitted', 0.0):.0f}  "
        f"shed={counters.get('frontend.shed', 0.0):.0f}  "
        f"throttled={counters.get('frontend.throttled', 0.0):.0f}  "
        f"active={counters.get('frontend.active', 0.0):.0f}"
    )
    latencies = trial.samples["order_to_active_s"]
    if latencies:
        print(
            f"  order-to-ACTIVE: p50 {format_duration(statistics.median(latencies))}"
            f"  p99 {format_duration(trial.values['p99_order_to_active_s'])}"
            f"  ({len(latencies)} activation(s))"
        )
    print(f"  edge state: {report['edge_state']}  queue depth: {report['queue_depth']}")
    conserved = trial.values["conserved"]
    print(f"  conservation (submitted == admitted + shed + throttled): {conserved}")
    _write_report(args.json, "serve", {
        "scheduled": report["scheduled"],
        "tenants": args.tenants,
        "registered_tenants": trial.values["registered_tenants"],
        "counters": counters,
        "order_to_active_s": latencies,
        "conserved": conserved,
    })
    return 0 if conserved else 2


def cmd_shard(args: argparse.Namespace) -> int:
    """Place cross-region orders on the sharded continental network.

    Exits 2 when the two deployments' fingerprints differ (``--mode
    both``) or when any unit's audit is not clean.
    """
    trial = _trial(
        shard_trial, args.seed, regions=args.regions, pops=args.pops,
        orders=args.orders, mode=args.mode,
    )
    for mode, run in trial.report.items():
        states = Counter(order["state"] for order in run["orders"])
        tally = [f"{states.pop(state, 0)} {state}" for state in ("up", "blocked")]
        tally += [f"{count} {state}" for state, count in sorted(states.items())]
        print(
            f"{mode}: {len(run['orders'])} order(s) over {args.regions} "
            f"region(s) x {args.pops} PoP(s), {', '.join(tally)}"
        )
        for order in run["orders"]:
            units = " + ".join(order["units"]) or "-"
            line = (f"  {order['order_id']}: {order['premises_a']} <-> "
                    f"{order['premises_b']}  {order['state']}  [{units}]")
            if order["blocked_reason"]:
                line += f"  - {order['blocked_reason']}"
            print(line)
        for unit, summary in run["audits"].items():
            print(f"  audit {unit}: {summary}")
        print(f"  fingerprint {run['fingerprint']}")
    matched = trial.values["fingerprints_match"]
    if args.mode == "both":
        print(f"fingerprints match: {matched}")
    _write_report(args.json, "shard", {
        mode: {
            "orders": {o["order_id"]: o["state"] for o in run["orders"]},
            "audits_ok": run["audits_ok"],
            "fingerprint": run["fingerprint"],
        }
        for mode, run in trial.report.items()
    })
    return 0 if matched and trial.values["audits_ok"] else 2


def _count(text: str) -> int:
    """An argparse type: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _number(text: str, positive: bool = True) -> float:
    """An argparse type: a finite number above 0, or at least 0 when not
    ``positive`` (NaN and infinities are refused)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = ">" if positive else ">="
        raise argparse.ArgumentTypeError(
            f"must be a finite number {bound} 0, got {text}"
        )
    return value


def _rate(text: str) -> float:
    """An argparse type: a finite number of at least 0."""
    return _number(text, positive=False)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRIPhoN bandwidth-on-demand reproduction scenarios",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable[[argparse.Namespace], int],
                help: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(func=func)
        return cmd

    def json_flag(cmd: argparse.ArgumentParser, what: str) -> None:
        cmd.add_argument("--json", default=None, help=f"write the {what} report to this file")

    command("quickstart", cmd_quickstart, "order, bring up, and tear down a 10G connection")
    table2 = command("table2", cmd_table2, "regenerate Table 2 (setup time vs hops)")
    table2.add_argument("--iterations", type=_count, default=10,
                        help="measurements per path length (default 10)")
    trace = command("trace", cmd_trace, "trace the 12G example and break Table 2 down by phase")
    trace.add_argument("--iterations", type=_count, default=5,
                       help="measurements per path length (default 5)")
    trace.add_argument("--json", metavar="PATH", default=None,
                       help="also dump the 12G example's spans as JSON to PATH")
    command("restore", cmd_restore, "fiber cut + automated restoration demo")

    sweep = command("sweep", cmd_sweep, "run an experiment sweep across worker processes")
    sweep.add_argument("study", help=f"built-in study ({', '.join(_SWEEPS)}) "
                       "or path to a JSON sweep spec")
    sweep.add_argument("--jobs", type=_count, default=1,
                       help="worker processes (default 1 = serial; same results either way)")
    sweep.add_argument("--repeats", type=_count, default=4,
                       help="replicate seeds per grid point for built-in studies (default 4)")
    sweep.add_argument("--timeout", type=_number, default=900.0,
                       help="watchdog: fail if no trial completes for this many seconds")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the deterministic aggregate JSON to PATH")

    chaos = command("chaos", cmd_chaos,
                    "inject EMS faults into a batch of orders and audit for leaks")
    chaos.add_argument("--orders", type=_count, default=9, help="orders to place (default 9)")
    chaos.add_argument("--rate", type=_rate, default=0.15,
                       help="per-command fault probability (default 0.15)")
    chaos.add_argument("--modes", default="transient,timeout",
                       help="comma-separated fault modes (default transient,timeout)")
    chaos.add_argument("--plan", default=None,
                       help="JSON file with a full FaultPlan (overrides --rate/--modes)")
    json_flag(chaos, "chaos")

    slo = command("slo", cmd_slo, "replay gray failures with SLA-aware autonomous remediation")
    slo.add_argument("--plan", default=None,
                     help="JSON file with a DegradationPlan (default: stock scenario)")
    policy = slo.add_mutually_exclusive_group()
    policy.add_argument("--policy", default=None,
                        help="JSON file with a list of SloPolicy dicts (default: stock set)")
    policy.add_argument("--policy-off", action="store_true",
                        help="arm no policies: measure violation minutes, remediate nothing")
    slo.add_argument("--horizon", type=_number, default=7200.0,
                     help="degradation replay horizon in sim seconds (default 7200)")
    json_flag(slo, "slo")

    opt = command("optimize", cmd_optimize,
                  "fragment a backbone with churn, then globally re-optimize it")
    opt.add_argument("--nodes", type=_count, default=64,
                     help="generated backbone PoP count (default 64)")
    opt.add_argument("--warm-orders", type=_count, default=160,
                     help="orders placed before the churn phase (default 160)")
    opt.add_argument("--load-orders", type=_count, default=48,
                     help="fresh orders ramped in after optimization (default 48)")
    opt.add_argument("--k-paths", type=_count, default=4,
                     help="candidate routes per demand per planner pass (default 4)")
    opt.add_argument("--max-passes", type=_count, default=4,
                     help="planner repack passes (default 4)")
    opt.add_argument("--no-reoptimize", action="store_true",
                     help="greedy baseline: skip the re-optimization cycle")
    json_flag(opt, "optimize")

    pipe = command("pipeline", cmd_pipeline,
                   "submit a burst of concurrent orders through the intake queue")
    pipe.add_argument("--orders", type=_count, default=12, help="orders to submit (default 12)")
    pipe.add_argument("--round-size", type=_count, default=8,
                      help="orders planned per scheduling round (default 8)")
    pipe.add_argument("--capacity", type=_count, default=256,
                      help="intake queue bound before QueueFull (default 256)")
    pipe.add_argument("--max-defers", type=int, default=3,
                      help="contention retries before a terminal defer (default 3)")
    pipe.add_argument("--topology", choices=("testbed", "backbone"), default="testbed",
                      help="network to build (default testbed)")
    json_flag(pipe, "ticket")

    shard = command("shard", cmd_shard,
                    "place cross-region orders on the sharded continental network")
    shard.add_argument("--regions", type=_count, default=4, help="region count (default 4)")
    shard.add_argument("--pops", type=_count, default=8, help="PoPs per region (default 8)")
    shard.add_argument("--orders", type=_count, default=6,
                       help="cross-region orders to place (default 6)")
    shard.add_argument("--mode", choices=("sharded", "monolithic", "both"), default="sharded",
                       help="deployment to run; 'both' also compares fingerprints")
    json_flag(shard, "shard")

    serve = command("serve", cmd_serve,
                    "serve an open-loop tenant fleet through the async frontend")
    serve.add_argument("--tenants", type=_count, default=1000,
                       help="Zipf tenant population size (default 1000)")
    serve.add_argument("--rate", type=_rate, default=20.0,
                       help="mean arrivals per sim-second (default 20)")
    serve.add_argument("--duration", type=_number, default=30.0,
                       help="sim-seconds of arrivals (default 30)")
    serve.add_argument("--queue-capacity", type=_count, default=256,
                       help="edge bound on orders waiting in the intake, capped at "
                       "the intake's capacity (default 256)")
    serve.add_argument("--bucket-rate", type=_number, default=1.0,
                       help="per-tenant token-bucket refill per second (default 1)")
    serve.add_argument("--topology", choices=("testbed", "backbone"), default="testbed",
                       help="network to build (default testbed)")
    json_flag(serve, "serve")
    command("operator", cmd_operator, "print the carrier operator network view")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.errors.ConfigurationError` (a bad study name, fault
    mode, population size, ...) is reported as ``griphon: error: ...``
    on stderr with exit code 2, like a rejected argument.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"griphon: error: {exc}", file=sys.stderr)
        return 2
