"""Command-line interface: run the headline scenarios from a shell.

Usage::

    python -m repro quickstart
    python -m repro table2 --iterations 10
    python -m repro trace --json trace.json
    python -m repro restore
    python -m repro operator
    python -m repro sweep x9 --jobs 8 --json sweep.json
    python -m repro serve --tenants 100000 --rate 50

(Installed as the ``griphon`` console script.)  Each subcommand builds a
fresh simulated network, runs one scenario, and prints a short report —
except ``sweep``, which fans a whole experiment grid over worker
processes.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.gui import render_connections, render_network_view
from repro.facade import build_griphon_testbed
from repro.obs.trace import Span, Tracer
from repro.sim.process import Process
from repro.units import format_duration, gbps

#: Exclusions forcing each Table 2 path on the testbed.
_TABLE2_EXCLUSIONS = {
    1: [],
    2: [("ROADM-I", "ROADM-IV")],
    3: [("ROADM-I", "ROADM-IV"), ("ROADM-I", "ROADM-III")],
}

#: The paper's Table 2 means, for side-by-side display.
_PAPER_TABLE2 = {1: 62.48, 2: 65.67, 3: 70.94}


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


def cmd_table2(args: argparse.Namespace) -> int:
    """Regenerate Table 2: establishment time vs ROADM path length."""
    print("hops  paper mean (s)  measured mean (s)")
    for hops, exclusions in _TABLE2_EXCLUSIONS.items():
        samples = []
        for i in range(args.iterations):
            net = build_griphon_testbed(seed=args.seed + i)
            plan = net.controller.rwa.plan(
                "ROADM-I", "ROADM-IV", gbps(10), excluded_links=exclusions
            )
            lightpath = net.controller.provisioner.claim(plan)
            start = net.sim.now
            Process(
                net.sim, net.controller.provisioner.setup_workflow(lightpath)
            )
            net.run()
            samples.append(net.sim.now - start)
        measured = statistics.fmean(samples)
        print(f"{hops:>4}  {_PAPER_TABLE2[hops]:>14.2f}  {measured:>17.2f}")
    return 0


#: Setup phases in workflow order, for the trace breakdown columns.
_TRACE_PHASES = ("order", "fxc", "tune", "roadm", "equalize", "verify")


def _print_span_tree(tracer: Tracer, span: Span, depth: int = 0) -> None:
    label = span.tags.get("label")
    suffix = f"  [{label}]" if label else ""
    print(f"{'  ' * depth}{span.name:<{28 - 2 * depth}} "
          f"{span.duration:>8.2f}s{suffix}")
    for child in tracer.children_of(span):
        _print_span_tree(tracer, child, depth + 1)


def _setup_phase_durations(tracer: Tracer, setup: Span) -> Dict[str, float]:
    """Per-phase seconds of one ``lightpath.setup`` span."""
    phases: Dict[str, float] = {}
    for child in tracer.children_of(setup):
        phase = child.name.split(".", 1)[1]
        phases[phase] = phases.get(phase, 0.0) + child.duration
    return phases


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
    print("\nTable 2 phase breakdown, ROADM-I -> ROADM-IV (mean s over "
          f"{args.iterations} runs):")
    header = "hops  " + "".join(f"{p:>10}" for p in _TRACE_PHASES)
    print(header + f"{'total':>10}{'paper':>10}")
    for hops, exclusions in _TABLE2_EXCLUSIONS.items():
        phase_sums = {phase: 0.0 for phase in _TRACE_PHASES}
        totals = []
        for i in range(args.iterations):
            run_net = build_griphon_testbed(seed=args.seed + i, tracing=True)
            plan = run_net.controller.rwa.plan(
                "ROADM-I", "ROADM-IV", gbps(10), excluded_links=exclusions
            )
            lightpath = run_net.controller.provisioner.claim(plan)
            Process(
                run_net.sim,
                run_net.controller.provisioner.setup_workflow(lightpath),
            )
            run_net.run()
            setup = run_net.tracer.spans("lightpath.setup")[0]
            for phase, secs in _setup_phase_durations(
                run_net.tracer, setup
            ).items():
                phase_sums[phase] = phase_sums.get(phase, 0.0) + secs
            totals.append(setup.duration)
        means = {p: phase_sums[p] / args.iterations for p in phase_sums}
        row = f"{hops:>4}  " + "".join(
            f"{means.get(p, 0.0):>10.2f}" for p in _TRACE_PHASES
        )
        print(row + f"{statistics.fmean(totals):>10.2f}"
              f"{_PAPER_TABLE2[hops]:>10.2f}")
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
    from repro.sweep import (
        SweepSpec,
        frontend_load_spec,
        optimize_reclaim_spec,
        pipeline_load_spec,
        run_sweep,
        slo_chaos_spec,
        x10_scaling_spec,
        x9_availability_spec,
    )

    if args.study == "x9":
        spec = x9_availability_spec(repeats=args.repeats)
    elif args.study == "x10":
        spec = x10_scaling_spec(repeats=args.repeats)
    elif args.study == "pipeline":
        spec = pipeline_load_spec(repeats=args.repeats)
    elif args.study == "frontend":
        spec = frontend_load_spec(repeats=args.repeats)
    elif args.study == "slo":
        spec = slo_chaos_spec(repeats=args.repeats)
    elif args.study == "optimize":
        spec = optimize_reclaim_spec(repeats=args.repeats)
    else:
        spec_data = json.loads(Path(args.study).read_text())
        spec = SweepSpec.from_dict(spec_data)
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
    from repro.faults import FaultPlan, FaultSpec, audit_network

    if args.plan:
        plan = FaultPlan.from_dict(json.loads(Path(args.plan).read_text()))
    else:
        plan = FaultPlan()
        for mode in args.modes.split(","):
            plan.add(FaultSpec(mode=mode.strip(), probability=args.rate))
    net = build_griphon_testbed(seed=args.seed, fault_plan=plan)
    service = net.service_for("chaos-demo")
    pairs = [
        ("PREMISES-A", "PREMISES-B"),
        ("PREMISES-A", "PREMISES-C"),
        ("PREMISES-B", "PREMISES-C"),
    ]
    rates = (10, 12, 1)
    connections = []
    for index in range(args.orders):
        a, b = pairs[index % len(pairs)]
        connections.append(
            service.request_connection(a, b, rates[index % len(rates)])
        )
    net.run()
    print(f"chaos: {args.orders} order(s), plan={plan!r}")
    for conn in connections:
        line = f"  {conn.connection_id}: {conn.state.value}"
        outcome = service.setup_outcome(conn.connection_id)
        if outcome is not None:
            line += f"  [{outcome}]"
        print(line)
    counters = net.metrics.counters()
    for name in sorted(counters):
        if name.startswith(("ems.retry", "ems.breaker", "faults.")):
            print(f"  {name} = {counters[name]}")
    mid_report = audit_network(net.controller)
    print(f"  mid-run {mid_report.summary()}")
    # Tear everything down; a clean network must audit with zero residue.
    teardown_states = {"up", "degraded", "failed", "restoring"}
    for conn in connections:
        if conn.state.value in teardown_states:
            service.teardown_connection(conn.connection_id)
    net.run()
    final_report = audit_network(net.controller)
    print(f"  final {final_report.summary()}")
    for violation in mid_report.violations + final_report.violations:
        print(f"    {violation}")
    if args.json:
        payload = {
            "orders": args.orders,
            "states": {
                c.connection_id: c.state.value for c in connections
            },
            "injected": plan.injected_counts,
            "mid_audit_ok": mid_report.ok,
            "final_audit_ok": final_report.ok,
            "violations": [
                str(v)
                for v in mid_report.violations + final_report.violations
            ],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote chaos report to {args.json}")
    return 0 if mid_report.ok and final_report.ok else 2


def cmd_slo(args: argparse.Namespace) -> int:
    """Replay a gray-failure plan with the SLA remediation engine armed."""
    from repro.faults import DegradationPlan
    from repro.slo import SloPolicy, default_policies
    from repro.slo.bench import run_slo_trial

    plan = None
    if args.plan:
        plan = DegradationPlan.from_dict(
            json.loads(Path(args.plan).read_text())
        )
    if args.policy:
        policies = tuple(
            SloPolicy.from_dict(entry)
            for entry in json.loads(Path(args.policy).read_text())
        )
    elif args.policy_off:
        policies = ()
    else:
        policies = default_policies()
    # The trial runner owns the workload; reuse it so the CLI, the
    # sweep study and the tier-1 tests all exercise the same loop.
    result = run_slo_trial(
        seed=args.seed,
        policy_on=bool(policies),
        plan=plan,
        horizon_s=args.horizon,
        audit_each_action=True,
        policies=policies,
    )
    mode = "armed" if policies else "policy-off"
    print(
        f"slo ({mode}): {result['connections']} connection(s), "
        f"{result['violation_minutes']:.1f} SLA-violation minutes"
    )
    for key in (
        "breaches", "recoveries", "rerouted", "reverted",
        "escalated", "deferred", "restored",
    ):
        print(f"  slo.{key} = {result[key]:g}")
    print(f"  max reroute utilization = {result['max_reroute_utilization']:.1%}")
    print(f"  audit: {'CLEAN' if result['audit_ok'] else 'VIOLATIONS'}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote slo report to {args.json}")
    return 0 if result["audit_ok"] else 2


def cmd_optimize(args: argparse.Namespace) -> int:
    """Fragment a backbone, then globally re-optimize it live."""
    from repro.optimize.bench import run_optimize_trial

    result = run_optimize_trial(
        seed=args.seed,
        node_count=args.nodes,
        warm_orders=args.warm_orders,
        load_orders=args.load_orders,
        reoptimize=not args.no_reoptimize,
        k_paths=args.k_paths,
        max_passes=args.max_passes,
    )
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
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote optimize report to {args.json}")
    clean = (
        result.get("audit_violations", 0) == 0
        and result["dropped_survivors"] == 0
    )
    return 0 if clean else 2


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Push a burst of concurrent orders through the intake pipeline."""
    from repro.facade import build_griphon_backbone
    from repro.pipeline import TicketState
    from repro.sweep.studies import burst_orders

    if args.topology == "testbed":
        net = build_griphon_testbed(seed=args.seed)
    else:
        net = build_griphon_backbone(seed=args.seed)
    pipeline = net.enable_pipeline(
        capacity=args.capacity,
        round_size=args.round_size,
        max_defers=args.max_defers,
    )
    service = net.service_for(
        "cli-demo", max_connections=4096, max_total_rate_gbps=1000000
    )
    tickets = [
        service.submit_connection(a, b, rate)
        for a, b, rate in burst_orders(
            sorted(net.inventory.ntes), args.orders, (10, 12, 1)
        )
    ]
    net.run()
    counts = {state: 0 for state in TicketState}
    for ticket in tickets:
        counts[ticket.state] += 1
    print(
        f"pipeline: {args.orders} order(s) on {args.topology}, "
        f"round_size={args.round_size}, {pipeline.rounds} round(s)"
    )
    print(
        f"  accepted={counts[TicketState.ACCEPTED]}"
        f"  blocked={counts[TicketState.BLOCKED]}"
        f"  deferred={counts[TicketState.DEFERRED]}"
        f"  queue-full={counts[TicketState.QUEUE_FULL]}"
    )
    for ticket in tickets:
        line = (f"  {ticket.order_id}: {ticket.premises_a} <-> "
                f"{ticket.premises_b}  {ticket.state.value}")
        if ticket.connection_id:
            line += f"  [{ticket.connection_id}]"
        if ticket.rounds_deferred:
            line += f"  (deferred {ticket.rounds_deferred} round(s))"
        if ticket.reason:
            line += f"  - {ticket.reason}"
        print(line)
    if args.json:
        payload = {
            "orders": args.orders,
            "topology": args.topology,
            "round_size": args.round_size,
            "rounds": pipeline.rounds,
            "counts": {
                state.value: count for state, count in counts.items()
            },
            "tickets": [
                {
                    "order_id": t.order_id,
                    "premises_a": t.premises_a,
                    "premises_b": t.premises_b,
                    "state": t.state.value,
                    "connection_id": t.connection_id,
                    "rounds_deferred": t.rounds_deferred,
                    "reason": t.reason,
                }
                for t in tickets
            ],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote pipeline report to {args.json}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve an open-loop tenant fleet through the async frontend."""
    from repro.facade import build_griphon_backbone
    from repro.frontend.clients import ClientFleet
    from repro.sweep.studies import nearest_rank_p99
    from repro.workload.tenants import TenantPopulation

    if args.topology == "testbed":
        net = build_griphon_testbed(seed=args.seed)
    else:
        net = build_griphon_backbone(seed=args.seed)
    frontend = net.enable_frontend(
        queue_capacity=args.queue_capacity,
        bucket_rate=args.bucket_rate,
        round_interval=0.01,
    )
    population = TenantPopulation(args.tenants)
    fleet = ClientFleet(
        frontend,
        population,
        net.controller.admission,
        premises=sorted(net.inventory.ntes),
        streams=net.streams.spawn("fleet"),
        arrival_rate=args.rate,
        duration=args.duration,
    )
    scheduled = fleet.start()
    net.run()
    counters = net.metrics.counters()
    submitted = counters.get("frontend.submitted", 0.0)
    admitted = counters.get("frontend.admitted", 0.0)
    shed = counters.get("frontend.shed", 0.0)
    throttled = counters.get("frontend.throttled", 0.0)
    print(
        f"serve: {scheduled} arrival(s) from {args.tenants} tenant(s) "
        f"over {args.duration:.0f}s on {args.topology} "
        f"(rate {args.rate}/s, queue {args.queue_capacity})"
    )
    print(
        f"  submitted={submitted:.0f}  admitted={admitted:.0f}  "
        f"shed={shed:.0f}  throttled={throttled:.0f}  "
        f"active={counters.get('frontend.active', 0.0):.0f}"
    )
    latencies = sorted(fleet.stats.order_to_active)
    if latencies:
        print(
            f"  order-to-ACTIVE: p50 {format_duration(statistics.median(latencies))}"
            f"  p99 {format_duration(nearest_rank_p99(latencies))}"
            f"  ({len(latencies)} activation(s))"
        )
    print(f"  edge state: {frontend.state}  queue depth: {frontend.queue_depth()}")
    conserved = submitted == admitted + shed + throttled
    print(f"  conservation (submitted == admitted + shed + throttled): {conserved}")
    if args.json:
        payload = {
            "scheduled": scheduled,
            "tenants": args.tenants,
            "registered_tenants": population.registered_count,
            "counters": {
                name: counters[name]
                for name in sorted(counters)
                if name.startswith("frontend.")
            },
            "order_to_active_s": latencies,
            "conserved": conserved,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote serve report to {args.json}")
    return 0 if conserved else 2


def cmd_shard(args: argparse.Namespace) -> int:
    """Place cross-region orders on the sharded continental network.

    Exits 2 when the two deployments' fingerprints differ (``--mode
    both``) or when any unit's audit is not clean.
    """
    from repro.core.admission import CustomerProfile
    from repro.fingerprint import outcome_fingerprint
    from repro.shard import build_sharded_network
    from repro.topo.hierarchy import build_hierarchy
    from repro.units import GBPS

    hierarchy = build_hierarchy(
        seed=args.seed,
        regions=args.regions,
        pops_per_region=args.pops,
        with_premises=True,
    )
    region_names = sorted(hierarchy.regions)
    requests = []
    for index in range(args.orders):
        info_a = hierarchy.regions[region_names[index % len(region_names)]]
        info_b = hierarchy.regions[
            region_names[(index + 1) % len(region_names)]
        ]
        a = info_a.premises[index % len(info_a.premises)]
        b = info_b.premises[(index * 3 + 1) % len(info_b.premises)]
        requests.append(("cli-demo", a, b, 10 * GBPS))
    modes = (
        ("sharded", "monolithic") if args.mode == "both" else (args.mode,)
    )
    fingerprints: Dict[str, str] = {}
    payload: Dict[str, dict] = {}
    for mode in modes:
        net = build_sharded_network(seed=args.seed, mode=mode,
                                    hierarchy=hierarchy)
        net.register_customer(
            CustomerProfile(
                "cli-demo",
                max_connections=4096,
                max_total_rate_bps=10000000 * GBPS,
            )
        )
        orders = net.place_orders(requests)
        net.run()
        fingerprints[mode] = outcome_fingerprint(orders)
        audits = net.audit_shards()
        states = Counter(o.state.value for o in orders)
        tally = [f"{states.pop(state, 0)} {state}" for state in ("up", "blocked")]
        tally += [f"{count} {state}" for state, count in sorted(states.items())]
        print(
            f"{mode}: {len(orders)} order(s) over {args.regions} region(s) "
            f"x {args.pops} PoP(s), {', '.join(tally)}"
        )
        for order in orders:
            units = " + ".join(r["unit"] for r in order.plan_record) or "-"
            line = (f"  {order.order_id}: {order.premises_a} <-> "
                    f"{order.premises_b}  {order.state.value}  [{units}]")
            if order.blocked_reason:
                line += f"  - {order.blocked_reason}"
            print(line)
        for unit in sorted(audits):
            print(f"  audit {unit}: {audits[unit].summary()}")
        print(f"  fingerprint {fingerprints[mode]}")
        payload[mode] = {
            "orders": {o.order_id: o.state.value for o in orders},
            "audits_ok": all(audits[u].ok for u in audits),
            "fingerprint": fingerprints[mode],
        }
    matched = len(set(fingerprints.values())) == 1
    if args.mode == "both":
        print(f"fingerprints match: {matched}")
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote shard report to {args.json}")
    clean = all(report["audits_ok"] for report in payload.values())
    return 0 if matched and clean else 2


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRIPhoN bandwidth-on-demand reproduction scenarios",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "quickstart", help="order, bring up, and tear down a 10G connection"
    ).set_defaults(func=cmd_quickstart)
    table2 = sub.add_parser(
        "table2", help="regenerate Table 2 (setup time vs hops)"
    )
    table2.add_argument(
        "--iterations", type=int, default=10,
        help="measurements per path length (default 10)",
    )
    table2.set_defaults(func=cmd_table2)
    trace = sub.add_parser(
        "trace",
        help="trace the 12G example and break Table 2 down by phase",
    )
    trace.add_argument(
        "--iterations", type=int, default=5,
        help="measurements per path length (default 5)",
    )
    trace.add_argument(
        "--json", metavar="PATH", default=None,
        help="also dump the 12G example's spans as JSON to PATH",
    )
    trace.set_defaults(func=cmd_trace)
    sub.add_parser(
        "restore", help="fiber cut + automated restoration demo"
    ).set_defaults(func=cmd_restore)
    sweep = sub.add_parser(
        "sweep",
        help="run an experiment sweep across worker processes",
    )
    sweep.add_argument(
        "study",
        help="built-in study (x9, x10, pipeline, frontend, slo, optimize) "
        "or path to a JSON sweep spec",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = serial; same results either way)",
    )
    sweep.add_argument(
        "--repeats", type=int, default=4,
        help="replicate seeds per grid point for built-in studies (default 4)",
    )
    sweep.add_argument(
        "--timeout", type=float, default=900.0,
        help="watchdog: fail if no trial completes for this many seconds",
    )
    sweep.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the deterministic aggregate JSON to PATH",
    )
    sweep.set_defaults(func=cmd_sweep)
    chaos = sub.add_parser(
        "chaos",
        help="inject EMS faults into a batch of orders and audit for leaks",
    )
    chaos.add_argument(
        "--orders", type=int, default=9, help="orders to place (default 9)"
    )
    chaos.add_argument(
        "--rate",
        type=float,
        default=0.15,
        help="per-command fault probability (default 0.15)",
    )
    chaos.add_argument(
        "--modes",
        default="transient,timeout",
        help="comma-separated fault modes (default transient,timeout)",
    )
    chaos.add_argument(
        "--plan",
        default=None,
        help="JSON file with a full FaultPlan (overrides --rate/--modes)",
    )
    chaos.add_argument(
        "--json", default=None, help="write the chaos report to this file"
    )
    chaos.set_defaults(func=cmd_chaos)
    slo = sub.add_parser(
        "slo",
        help="replay gray failures with SLA-aware autonomous remediation",
    )
    slo.add_argument(
        "--plan",
        default=None,
        help="JSON file with a DegradationPlan (default: stock scenario)",
    )
    policy = slo.add_mutually_exclusive_group()
    policy.add_argument(
        "--policy",
        default=None,
        help="JSON file with a list of SloPolicy dicts (default: stock set)",
    )
    policy.add_argument(
        "--policy-off",
        action="store_true",
        help="arm no policies: measure violation minutes, remediate nothing",
    )
    slo.add_argument(
        "--horizon", type=float, default=7200.0,
        help="degradation replay horizon in sim seconds (default 7200)",
    )
    slo.add_argument(
        "--json", default=None, help="write the slo report to this file"
    )
    slo.set_defaults(func=cmd_slo)
    opt = sub.add_parser(
        "optimize",
        help="fragment a backbone with churn, then globally re-optimize it",
    )
    opt.add_argument(
        "--nodes", type=int, default=64,
        help="generated backbone PoP count (default 64)",
    )
    opt.add_argument(
        "--warm-orders", type=int, default=160,
        help="orders placed before the churn phase (default 160)",
    )
    opt.add_argument(
        "--load-orders", type=int, default=48,
        help="fresh orders ramped in after optimization (default 48)",
    )
    opt.add_argument(
        "--k-paths", type=int, default=4,
        help="candidate routes per demand per planner pass (default 4)",
    )
    opt.add_argument(
        "--max-passes", type=int, default=4,
        help="planner repack passes (default 4)",
    )
    opt.add_argument(
        "--no-reoptimize", action="store_true",
        help="greedy baseline: skip the re-optimization cycle",
    )
    opt.add_argument(
        "--json", default=None, help="write the optimize report to this file"
    )
    opt.set_defaults(func=cmd_optimize)
    pipe = sub.add_parser(
        "pipeline",
        help="submit a burst of concurrent orders through the intake queue",
    )
    pipe.add_argument(
        "--orders", type=int, default=12, help="orders to submit (default 12)"
    )
    pipe.add_argument(
        "--round-size", type=int, default=8,
        help="orders planned per scheduling round (default 8)",
    )
    pipe.add_argument(
        "--capacity", type=int, default=256,
        help="intake queue bound before QueueFull (default 256)",
    )
    pipe.add_argument(
        "--max-defers", type=int, default=3,
        help="contention retries before a terminal defer (default 3)",
    )
    pipe.add_argument(
        "--topology", choices=("testbed", "backbone"), default="testbed",
        help="network to build (default testbed)",
    )
    pipe.add_argument(
        "--json", default=None, help="write the ticket report to this file"
    )
    pipe.set_defaults(func=cmd_pipeline)
    shard = sub.add_parser(
        "shard",
        help="place cross-region orders on the sharded continental network",
    )
    shard.add_argument(
        "--regions", type=int, default=4, help="region count (default 4)"
    )
    shard.add_argument(
        "--pops", type=int, default=8,
        help="PoPs per region (default 8)",
    )
    shard.add_argument(
        "--orders", type=int, default=6,
        help="cross-region orders to place (default 6)",
    )
    shard.add_argument(
        "--mode", choices=("sharded", "monolithic", "both"),
        default="sharded",
        help="deployment to run; 'both' also compares fingerprints",
    )
    shard.add_argument(
        "--json", default=None, help="write the shard report to this file"
    )
    shard.set_defaults(func=cmd_shard)
    serve = sub.add_parser(
        "serve",
        help="serve an open-loop tenant fleet through the async frontend",
    )
    serve.add_argument(
        "--tenants", type=int, default=1000,
        help="Zipf tenant population size (default 1000)",
    )
    serve.add_argument(
        "--rate", type=float, default=20.0,
        help="mean arrivals per sim-second (default 20)",
    )
    serve.add_argument(
        "--duration", type=float, default=30.0,
        help="sim-seconds of arrivals (default 30)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=256,
        help="edge bound on orders waiting in the intake, capped at "
        "the intake's capacity (default 256)",
    )
    serve.add_argument(
        "--bucket-rate", type=float, default=1.0,
        help="per-tenant token-bucket refill per second (default 1)",
    )
    serve.add_argument(
        "--topology", choices=("testbed", "backbone"), default="testbed",
        help="network to build (default testbed)",
    )
    serve.add_argument(
        "--json", default=None, help="write the serve report to this file"
    )
    serve.set_defaults(func=cmd_serve)
    sub.add_parser(
        "operator", help="print the carrier operator network view"
    ).set_defaults(func=cmd_operator)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
