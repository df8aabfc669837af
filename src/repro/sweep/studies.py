"""Built-in sweep studies: picklable trial runners + spec factories.

Every runner here is a module-level function taking one
:class:`~repro.sweep.spec.TrialSpec` and returning a
:class:`~repro.sweep.engine.TrialResult` — the shape the engine can
ship to a worker process by reference.  Networks are always built
*inside* the trial from the spec's parameters and seed.

The module also hosts the study registry used by JSON sweep specs and
the ``griphon sweep`` CLI, plus factories for the built-in sweeps.
Every numeric ``griphon`` command runs one of these trials at ``--seed``
and renders its :class:`~repro.sweep.engine.TrialResult`; what a command
prints beyond the aggregated ``values`` travels in the result's
``report``.  Runners that need :mod:`repro.shard`, :mod:`repro.slo` or
:mod:`repro.optimize` import them in the body, so importing this module
stays cheap.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Mapping, Sequence

from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.errors import ConfigurationError
from repro.facade import (
    GriphonNetwork,
    build_griphon_backbone,
    build_griphon_testbed,
)
from repro.faults import DegradationPlan, FaultPlan, FaultSpec, audit_network
from repro.metrics import downtime_minutes_per_year, measured_availability
from repro.obs.trace import Span, Tracer
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.sweep.engine import TrialResult
from repro.sweep.spec import SweepSpec, TrialSpec
from repro.topo.builders import attach_premises, install_pop_equipment
from repro.topo.generator import generate_backbone
from repro.topo.hierarchy import build_hierarchy
from repro.topo.testbed import TABLE2_EXCLUSIONS
from repro.units import DAY, GBPS, HOUR, gbps
from repro.workload import FiberCutInjector


# -- topology factories -----------------------------------------------------


def build_waxman_network(
    seed: int,
    node_count: int,
    **equipment: Any,
) -> GriphonNetwork:
    """A generated Waxman backbone on a 2,000 km plane, with premises and
    standard equipment.

    The sweep engine's workhorse topology factory: graph generation,
    premises attachment, and equipment install all derive from the one
    ``seed``, so a trial spec fully determines the network.
    """
    graph = generate_backbone(
        RandomStreams(seed), node_count=node_count, plane_km=2000.0
    )
    pops = [node.name for node in graph.nodes]
    premises = attach_premises(graph, pops)
    net = GriphonNetwork(graph, seed=seed, latency_cv=0.0)
    install_pop_equipment(net.inventory, pops, premises, **equipment)
    net.finish_build()
    return net


def _build_topology(trial: TrialSpec) -> GriphonNetwork:
    """Build the trial's network from its ``topology`` parameter."""
    params = trial.params
    topology = params.get("topology", "testbed")
    if topology == "testbed":
        return build_griphon_testbed(
            seed=trial.seed,
            latency_cv=params.get("latency_cv", 0.0),
            auto_restore=params.get("auto_restore", True),
        )
    if topology == "backbone":
        return build_griphon_backbone(
            seed=trial.seed,
            latency_cv=params.get("latency_cv", 0.0),
            auto_restore=params.get("auto_restore", True),
        )
    if topology == "waxman":
        return build_waxman_network(
            trial.seed, node_count=int(params.get("node_count", 16))
        )
    raise ConfigurationError(f"unknown topology {topology!r}")


def burst_orders(premises: Sequence[str], orders: int, rates: Sequence[float]):
    """``(a, b, rate)`` per order of the burst the pipeline study and CLI share."""
    for index in range(orders):
        a = premises[index % len(premises)]
        b = premises[(index * 7 + 3) % len(premises)]
        if a == b:
            b = premises[(index * 7 + 4) % len(premises)]
        yield a, b, rates[index % len(rates)]


def nearest_rank_p99(ordered: Sequence[float]) -> float:
    """The p99 the frontend study and ``griphon serve`` quote; NaN when empty."""
    if not ordered:
        return float("nan")
    return ordered[max(0, int(len(ordered) * 0.99) - 1)]


def setup_phase_durations(tracer: Tracer, setup: Span) -> Dict[str, float]:
    """Per-phase seconds of one ``lightpath.setup`` span."""
    phases: Dict[str, float] = {}
    for child in tracer.children_of(setup):
        phase = child.name.split(".", 1)[1]
        phases[phase] = phases.get(phase, 0.0) + child.duration
    return phases


# -- study runners ----------------------------------------------------------


def availability_trial(trial: TrialSpec) -> TrialResult:
    """One month (by default) of Poisson fiber cuts against a live 10G.

    The x9 study: build the Fig. 4 testbed, bring up one connection,
    subject the network to random cuts with hours-long physical
    repairs, and measure the connection's availability under the
    trial's restoration regime.
    """
    params = trial.params
    horizon = float(params.get("horizon_s", 28 * DAY))
    net = build_griphon_testbed(
        seed=trial.seed,
        latency_cv=0.0,
        auto_restore=bool(params["auto_restore"]),
    )
    service = net.service_for("csp")
    conn = service.request_connection(
        params.get("a", "PREMISES-A"), params.get("b", "PREMISES-C"),
        params.get("rate_gbps", 10),
    )
    net.run()
    injector = FiberCutInjector(
        net.controller,
        net.streams,
        mean_time_between_cuts_s=float(params.get("mtbf_s", 2 * DAY)),
        mean_repair_s=float(params.get("mean_repair_s", 6 * HOUR)),
        stop_at=horizon,
    )
    net.run(until=horizon + 2 * DAY)
    net.run()
    if conn.outage_started_at is not None:
        conn.end_outage(net.sim.now)
    availability = measured_availability(conn, conn.up_at, horizon)
    repairs = [
        record.repair_duration
        for record in injector.records
        if record.repair_duration is not None
    ]
    return TrialResult(
        values={
            "availability": availability,
            "cuts": len(injector.records),
            "up": conn.state is ConnectionState.UP,
            "total_outage_s": conn.total_outage_s,
            "downtime_min_per_year": downtime_minutes_per_year(availability),
        },
        samples={"repair_s": repairs},
        metrics=net.metrics.state(),
    )


def scaling_trial(trial: TrialSpec) -> TrialResult:
    """Probe establishment time and blocking on a generated backbone.

    The x10 study: a fixed cycle of inter-DC orders on a Waxman mesh of
    the trial's ``node_count``, measuring setup time, hop count, and
    blocking under per-node-scaled resources.
    """
    params = trial.params
    node_count = int(params["node_count"])
    orders = int(params.get("orders", 12))
    net = build_waxman_network(trial.seed, node_count=node_count)
    pops = [
        node.name for node in net.inventory.graph.nodes if node.kind != "premises"
    ]
    service = net.service_for(
        "csp", max_connections=256, max_total_rate_gbps=100000
    )
    setups, hops, blocked = [], [], 0
    for index in range(orders):
        a = f"DC-{pops[index % len(pops)]}"
        b = f"DC-{pops[(index * 7 + 3) % len(pops)]}"
        if a == b:
            continue
        conn = service.request_connection(a, b, 10)
        net.run()
        if conn.state is ConnectionState.BLOCKED:
            blocked += 1
        elif conn.state is ConnectionState.UP:
            setups.append(conn.setup_duration)
            lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
            hops.append(lightpath.hop_count)
    return TrialResult(
        values={
            "mean_setup_s": statistics.fmean(setups) if setups else float("nan"),
            "mean_hops": statistics.fmean(hops) if hops else float("nan"),
            "blocked": blocked,
            "served": len(setups),
        },
        samples={"setup_s": setups, "hops": [float(h) for h in hops]},
        metrics=net.metrics.state(),
    )


def pipeline_trial(trial: TrialSpec) -> TrialResult:
    """Offered load vs accept/defer/block through the order pipeline.

    One burst of same-instant orders (the ``orders`` parameter is the
    offered-load axis) is submitted through a bounded intake pipeline;
    the trial measures how the round scheduler splits the burst into
    accepted, blocked, terminally deferred, and queue-refused orders,
    plus how much retrying the contention losers needed.
    """
    from repro.pipeline import TicketState

    params = trial.params
    orders = int(params.get("orders", 32))
    rates = params.get("rates", (10, 12, 1))
    net = _build_topology(trial)
    pipeline = net.enable_pipeline(
        capacity=int(params.get("capacity", 256)),
        round_size=int(params.get("round_size", 8)),
        round_interval=float(params.get("round_interval", 0.0)),
        max_defers=int(params.get("max_defers", 3)),
        seeded_tiebreak=bool(params.get("seeded_tiebreak", False)),
    )
    service = net.service_for(
        "csp", max_connections=4096, max_total_rate_gbps=1000000
    )
    tickets = [
        service.submit_connection(a, b, rate)
        for a, b, rate in burst_orders(sorted(net.inventory.ntes), orders, rates)
    ]
    net.run()
    by_state = {state: 0 for state in TicketState}
    for ticket in tickets:
        by_state[ticket.state] += 1
    rows = [
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
    ]
    submitted = len(tickets) or 1
    deferred_rounds = [float(t.rounds_deferred) for t in tickets]
    return TrialResult(
        values={
            "accepted": by_state[TicketState.ACCEPTED],
            "blocked": by_state[TicketState.BLOCKED],
            "deferred": by_state[TicketState.DEFERRED],
            "queue_full": by_state[TicketState.QUEUE_FULL],
            "accept_rate": by_state[TicketState.ACCEPTED] / submitted,
            "block_rate": by_state[TicketState.BLOCKED] / submitted,
            "defer_rate": by_state[TicketState.DEFERRED] / submitted,
            "queue_full_rate": by_state[TicketState.QUEUE_FULL] / submitted,
            "rounds": pipeline.rounds,
            "mean_rounds_deferred": statistics.fmean(deferred_rounds),
            "queue_drained": pipeline.queue_depth() == 0,
        },
        samples={"rounds_deferred": deferred_rounds},
        metrics=net.metrics.state(),
        report={
            "counts": {state.value: n for state, n in by_state.items()},
            "tickets": rows,
        },
    )


def frontend_trial(trial: TrialSpec) -> TrialResult:
    """An open-loop tenant fleet against the async service frontend.

    The frontend study: a heavy-tailed tenant population submits
    through :class:`~repro.frontend.BodFrontend` at the trial's
    ``arrival_rate`` (the overload axis), and the trial measures the
    edge's triage — admitted / shed / throttled conservation, sustained
    admitted orders per second, and the p99 frontend-submit → ACTIVE
    latency for orders that made it all the way up.
    """
    from repro.frontend.clients import ClientFleet
    from repro.workload.tenants import TenantPopulation

    params = trial.params
    duration = float(params.get("duration_s", 60.0))
    net = _build_topology(trial)
    frontend = net.enable_frontend(
        queue_capacity=int(params.get("queue_capacity", 256)),
        bucket_rate=float(params.get("bucket_rate", 1.0)),
        bucket_burst=float(params.get("bucket_burst", 8.0)),
        capacity=int(params.get("capacity", 256)),
        round_size=int(params.get("round_size", 8)),
        round_interval=float(params.get("round_interval", 0.01)),
    )
    population = TenantPopulation(
        int(params.get("tenants", 1000)),
        zipf_s=float(params.get("zipf_s", 1.1)),
        max_connections=int(params.get("max_connections", 4)),
        max_total_rate_gbps=float(params.get("max_total_rate_gbps", 40.0)),
    )
    premises = sorted(net.inventory.ntes)
    fleet = ClientFleet(
        frontend,
        population,
        net.controller.admission,
        premises=premises,
        streams=net.streams.spawn("fleet"),
        arrival_rate=float(params.get("arrival_rate", 10.0)),
        duration=duration,
        rate_choices_gbps=tuple(params.get("rate_choices_gbps", (10.0,))),
    )
    scheduled = fleet.start()
    net.run()
    state = net.metrics.state()
    counters = state["counters"]
    submitted = counters.get("frontend.submitted", 0.0) or 1.0
    latencies = sorted(fleet.stats.order_to_active)
    return TrialResult(
        values={
            "submitted": fleet.stats.submitted,
            "admitted": counters.get("frontend.admitted", 0.0),
            "shed": counters.get("frontend.shed", 0.0),
            "throttled": counters.get("frontend.throttled", 0.0),
            "active": counters.get("frontend.active", 0.0),
            "shed_rate": counters.get("frontend.shed", 0.0) / submitted,
            "throttle_rate": counters.get("frontend.throttled", 0.0) / submitted,
            "admitted_per_s": counters.get("frontend.admitted", 0.0) / duration,
            "p99_order_to_active_s": nearest_rank_p99(latencies),
            "registered_tenants": population.registered_count,
            "conserved": counters.get("frontend.submitted", 0.0)
            == counters.get("frontend.admitted", 0.0)
            + counters.get("frontend.shed", 0.0)
            + counters.get("frontend.throttled", 0.0),
        },
        samples={"order_to_active_s": latencies},
        metrics=state,
        report={
            "scheduled": scheduled,
            "edge_state": frontend.state,
            "queue_depth": frontend.queue_depth(),
            "counters": {
                name: counters[name]
                for name in sorted(counters)
                if name.startswith("frontend.")
            },
        },
    )


def table2_trial(trial: TrialSpec) -> TrialResult:
    """Table 2 at one seed: setup seconds per ROADM hop count, by phase.

    For each forced ROADM-I -> ROADM-IV path (1, 2 and 3 hops) a fresh
    traced testbed claims the route and runs the EMS setup workflow.
    ``hops{n}_setup_s`` is the ``lightpath.setup`` span's length and
    ``hops{n}_{phase}_s`` its split by phase (order, fxc, tune, ...).
    """
    values: Dict[str, float] = {}
    for hops, exclusions in TABLE2_EXCLUSIONS.items():
        net = build_griphon_testbed(seed=trial.seed, tracing=True)
        plan = net.controller.rwa.plan(
            "ROADM-I", "ROADM-IV", gbps(10), excluded_links=exclusions
        )
        lightpath = net.controller.provisioner.claim(plan)
        Process(net.sim, net.controller.provisioner.setup_workflow(lightpath))
        net.run()
        setup = net.tracer.spans("lightpath.setup")[0]
        values[f"hops{hops}_setup_s"] = setup.duration
        for phase, secs in setup_phase_durations(net.tracer, setup).items():
            values[f"hops{hops}_{phase}_s"] = secs
    return TrialResult(values=values)


def chaos_trial(trial: TrialSpec) -> TrialResult:
    """EMS fault injection over a batch of testbed orders, then leak audits.

    ``orders`` orders cycle the three premises pairs at 10 / 12 / 1 Gbps
    under ``plan`` (a :class:`~repro.faults.FaultPlan` dict) or, without
    one, one rule per name in ``modes`` (comma-separated) at probability
    ``rate``.  The network is audited once the orders settle and again
    after every live connection is torn down; a clean run leaves no
    residue.
    """
    params = trial.params
    if params.get("plan") is not None:
        plan = FaultPlan.from_dict(params["plan"])
    else:
        plan = FaultPlan()
        for mode in str(params.get("modes", "transient,timeout")).split(","):
            plan.add(FaultSpec(mode=mode.strip(),
                               probability=float(params.get("rate", 0.15))))
    net = build_griphon_testbed(seed=trial.seed, fault_plan=plan)
    service = net.service_for("csp")
    pairs = [
        ("PREMISES-A", "PREMISES-B"),
        ("PREMISES-A", "PREMISES-C"),
        ("PREMISES-B", "PREMISES-C"),
    ]
    rates = (10, 12, 1)
    connections = []
    for index in range(int(params.get("orders", 9))):
        a, b = pairs[index % len(pairs)]
        connections.append(
            service.request_connection(a, b, rates[index % len(rates)])
        )
    net.run()
    rows = []
    for conn in connections:
        outcome = service.setup_outcome(conn.connection_id)
        if outcome is None and conn.blocked_reason:
            # Refused at claim time: no saga ran, the record says why.
            outcome = f"{conn.connection_id}: blocked - {conn.blocked_reason}"
        rows.append({
            "connection_id": conn.connection_id,
            "state": conn.state.value,
            "outcome": None if outcome is None else f"{outcome}",
        })
    counters = net.metrics.counters()
    plan_repr = repr(plan)
    mid_report = audit_network(net.controller)
    # Tear everything down; a clean network must audit with zero residue.
    for conn in connections:
        if conn.state.value in ("up", "degraded", "failed", "restoring"):
            service.teardown_connection(conn.connection_id)
    net.run()
    final_report = audit_network(net.controller)
    violations = [str(v) for v in mid_report.violations + final_report.violations]
    return TrialResult(
        values={
            "orders": len(connections),
            "up": sum(row["state"] == "up" for row in rows),
            "injected": sum(plan.injected_counts),
            "mid_audit_ok": mid_report.ok,
            "final_audit_ok": final_report.ok,
            "violations": len(violations),
        },
        metrics=net.metrics.state(),
        report={
            "plan": plan_repr,
            "connections": rows,
            "counters": {
                name: counters[name]
                for name in sorted(counters)
                if name.startswith(("ems.retry", "ems.breaker", "faults."))
            },
            "mid_audit": mid_report.summary(),
            "final_audit": final_report.summary(),
            "violations": violations,
            "states": {c.connection_id: c.state.value for c in connections},
            "injected": plan.injected_counts,
        },
    )


def shard_trial(trial: TrialSpec) -> TrialResult:
    """Cross-region orders on the sharded continental network.

    Builds a ``regions`` x ``pops`` hierarchy and places ``orders``
    region-crossing 10G orders under ``mode``: ``sharded``,
    ``monolithic`` or ``both``, which runs the two deployments and
    compares their outcome fingerprints.  Every unit is audited after
    each run.
    """
    from repro.fingerprint import outcome_fingerprint
    from repro.shard import build_sharded_network

    params = trial.params
    mode = params.get("mode", "sharded")
    hierarchy = build_hierarchy(
        seed=trial.seed,
        regions=int(params.get("regions", 4)),
        pops_per_region=int(params.get("pops", 8)),
        with_premises=True,
    )
    region_names = sorted(hierarchy.regions)
    requests = []
    for index in range(int(params.get("orders", 6))):
        info_a = hierarchy.regions[region_names[index % len(region_names)]]
        info_b = hierarchy.regions[
            region_names[(index + 1) % len(region_names)]
        ]
        a = info_a.premises[index % len(info_a.premises)]
        b = info_b.premises[(index * 3 + 1) % len(info_b.premises)]
        requests.append(("csp", a, b, 10 * GBPS))
    modes = ("sharded", "monolithic") if mode == "both" else (mode,)
    values: Dict[str, Any] = {}
    report: Dict[str, Any] = {}
    for name in modes:
        net = build_sharded_network(seed=trial.seed, mode=name,
                                    hierarchy=hierarchy)
        net.register_customer(
            CustomerProfile(
                "csp", max_connections=4096, max_total_rate_bps=10000000 * GBPS
            )
        )
        orders = net.place_orders(requests)
        net.run()
        audits = net.audit_shards()
        report[name] = {
            "orders": [
                {
                    "order_id": o.order_id,
                    "premises_a": o.premises_a,
                    "premises_b": o.premises_b,
                    "state": o.state.value,
                    "units": [record["unit"] for record in o.plan_record],
                    "blocked_reason": o.blocked_reason,
                }
                for o in orders
            ],
            "audits": {unit: audits[unit].summary() for unit in sorted(audits)},
            "audits_ok": all(audit.ok for audit in audits.values()),
            "fingerprint": outcome_fingerprint(orders),
        }
        for state in ("up", "blocked"):
            values[f"{name}_{state}"] = sum(
                o.state.value == state for o in orders
            )
    values["fingerprints_match"] = (
        len({run["fingerprint"] for run in report.values()}) == 1
    )
    values["audits_ok"] = all(run["audits_ok"] for run in report.values())
    return TrialResult(values=values, report=report)


def _flat_values(result: Mapping[str, Any]) -> Dict[str, Any]:
    """The scalar entries of a runner's result dict, for aggregation."""
    return {
        key: value
        for key, value in result.items()
        if isinstance(value, (int, float, bool))
    }


def slo_trial(trial: TrialSpec) -> TrialResult:
    """One gray-failure remediation trial (see :mod:`repro.slo.bench`).

    ``plan`` (a :class:`~repro.faults.DegradationPlan` dict) replaces the
    stock scenario and ``policies`` (a list of
    :class:`~repro.slo.SloPolicy` dicts) the stock policy set.  The
    report is :func:`~repro.slo.bench.run_slo_trial`'s full result.
    """
    from repro.slo import SloPolicy
    from repro.slo.bench import DEFAULT_HORIZON_S, run_slo_trial

    params = trial.params
    plan = params.get("plan")
    policies = params.get("policies")
    result = run_slo_trial(
        seed=trial.seed,
        policy_on=bool(params.get("policy_on", True)),
        plan=None if plan is None else DegradationPlan.from_dict(plan),
        horizon_s=float(params.get("horizon_s", DEFAULT_HORIZON_S)),
        audit_each_action=bool(params.get("audit_each_action", True)),
        utilization_gate=float(params.get("utilization_gate", 0.80)),
        policies=(
            None if policies is None
            else tuple(SloPolicy.from_dict(entry) for entry in policies)
        ),
    )
    return TrialResult(values=_flat_values(result), report=result)


def optimize_trial(trial: TrialSpec) -> TrialResult:
    """One re-optimization trial (see :mod:`repro.optimize.bench`).

    The report is :func:`~repro.optimize.bench.run_optimize_trial`'s
    full result.
    """
    from repro.optimize.bench import (
        DEFAULT_LOAD_ORDERS,
        DEFAULT_NODE_COUNT,
        DEFAULT_WARM_ORDERS,
        run_optimize_trial,
    )

    params = trial.params
    result = run_optimize_trial(
        seed=trial.seed,
        node_count=int(params.get("node_count", DEFAULT_NODE_COUNT)),
        warm_orders=int(params.get("warm_orders", DEFAULT_WARM_ORDERS)),
        load_orders=int(params.get("load_orders", DEFAULT_LOAD_ORDERS)),
        keep_every=int(params.get("keep_every", 3)),
        reoptimize=bool(params.get("reoptimize", True)),
        k_paths=int(params.get("k_paths", 4)),
        max_passes=int(params.get("max_passes", 4)),
    )
    return TrialResult(values=_flat_values(result), report=result)


#: Study registry for JSON specs and the CLI.
STUDIES: Dict[str, Callable[[TrialSpec], TrialResult]] = {
    "availability": availability_trial,
    "scaling": scaling_trial,
    "pipeline": pipeline_trial,
    "frontend": frontend_trial,
    "slo": slo_trial,
    "optimize": optimize_trial,
    "table2": table2_trial,
    "chaos": chaos_trial,
    "shard": shard_trial,
}


def resolve_study(name: str) -> Callable[[TrialSpec], TrialResult]:
    """Look up a registered study runner by name."""
    try:
        return STUDIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown study {name!r} (known: {', '.join(sorted(STUDIES))})"
        ) from None


# -- spec factories for the repository's statistical benchmarks -------------


def x9_availability_spec(
    repeats: int = 1,
    base_seed: int = 901,
    horizon_s: float = 28 * DAY,
    mtbf_s: float = 2 * DAY,
    mean_repair_s: float = 6 * HOUR,
    fixed: Mapping[str, Any] = (),
) -> SweepSpec:
    """The x9 study: availability with vs without automated restoration."""
    merged: Dict[str, Any] = {
        "horizon_s": horizon_s,
        "mtbf_s": mtbf_s,
        "mean_repair_s": mean_repair_s,
    }
    merged.update(dict(fixed))
    return SweepSpec(
        name="x9-availability",
        runner=availability_trial,
        axes={"auto_restore": (True, False)},
        fixed=merged,
        repeats=repeats,
        base_seed=base_seed,
    )


def x10_scaling_spec(
    node_counts: Sequence[int] = (8, 16, 32),
    repeats: int = 1,
    base_seed: int = 950,
    orders: int = 12,
) -> SweepSpec:
    """The x10 study: establishment time / blocking vs network scale."""
    return SweepSpec(
        name="x10-scaling",
        runner=scaling_trial,
        axes={"node_count": tuple(node_counts)},
        fixed={"orders": orders},
        repeats=repeats,
        base_seed=base_seed,
    )


def pipeline_load_spec(
    orders: Sequence[int] = (8, 16, 32, 64),
    repeats: int = 1,
    base_seed: int = 970,
    round_size: int = 8,
    topology: str = "testbed",
    **fixed: Any,
) -> SweepSpec:
    """The pipeline study: accept/defer/block rates vs offered load.

    Sweeps the size of a same-instant order burst through the intake
    pipeline on the chosen topology, showing where the round scheduler
    starts deferring and blocking as the burst outgrows the installed
    wavelengths and transponders.
    """
    merged: Dict[str, Any] = {"round_size": round_size, "topology": topology}
    merged.update(fixed)
    return SweepSpec(
        name="pipeline-load",
        runner=pipeline_trial,
        axes={"orders": tuple(orders)},
        fixed=merged,
        repeats=repeats,
        base_seed=base_seed,
    )


def frontend_load_spec(
    arrival_rates: Sequence[float] = (5.0, 10.0, 20.0, 50.0),
    repeats: int = 1,
    base_seed: int = 990,
    tenants: int = 1000,
    duration_s: float = 60.0,
    topology: str = "testbed",
    **fixed: Any,
) -> SweepSpec:
    """The frontend study: edge triage vs offered load.

    Sweeps the open-loop arrival rate of a heavy-tailed tenant fleet
    through the service frontend, showing the shed/throttle curve as
    offered load outgrows the edge (the ``arrival_rate`` axis is the
    overload knob: double it and the compliant backend load should stay
    put while the shed rate climbs).
    """
    merged: Dict[str, Any] = {
        "tenants": tenants,
        "duration_s": duration_s,
        "topology": topology,
    }
    merged.update(fixed)
    return SweepSpec(
        name="frontend-load",
        runner=frontend_trial,
        axes={"arrival_rate": tuple(arrival_rates)},
        fixed=merged,
        repeats=repeats,
        base_seed=base_seed,
    )


def optimize_reclaim_spec(
    repeats: int = 1,
    base_seed: int = 1200,
    node_count: int = 64,
    warm_orders: int = 160,
    load_orders: int = 48,
    **fixed: Any,
) -> SweepSpec:
    """The re-optimization study: repack vs greedy on a fragmented mesh.

    Grids the fragmentation benchmark over the ``reoptimize`` axis so
    one sweep produces the with/without comparison: wavelengths
    reclaimed and blocking probability under the same post-churn load
    ramp.
    """
    merged: Dict[str, Any] = {
        "node_count": node_count,
        "warm_orders": warm_orders,
        "load_orders": load_orders,
    }
    merged.update(fixed)
    return SweepSpec(
        name="optimize-reclaim",
        runner=optimize_trial,
        axes={"reoptimize": (True, False)},
        fixed=merged,
        repeats=repeats,
        base_seed=base_seed,
    )


def slo_chaos_spec(
    repeats: int = 1,
    base_seed: int = 1100,
    horizon_s: float = 7200.0,
    **fixed: Any,
) -> SweepSpec:
    """The SLO study: SLA-violation minutes with vs without remediation.

    Grids the default gray-failure plan over the ``policy_on`` axis so
    one sweep produces the policy-on/policy-off comparison.
    """
    merged: Dict[str, Any] = {"horizon_s": horizon_s}
    merged.update(fixed)
    return SweepSpec(
        name="slo-chaos",
        runner=slo_trial,
        axes={"policy_on": (True, False)},
        fixed=merged,
        repeats=repeats,
        base_seed=base_seed,
    )
