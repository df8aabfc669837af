"""Built-in sweep studies: picklable trial runners + spec factories.

Every runner here is a module-level function taking one
:class:`~repro.sweep.spec.TrialSpec` and returning a
:class:`~repro.sweep.engine.TrialResult` — the shape the engine can
ship to a worker process by reference.  Networks are always built
*inside* the trial from the spec's parameters and seed.

The module also hosts the study registry used by JSON sweep specs and
the ``griphon sweep`` CLI, plus factories for the repository's two
statistical benchmarks (the x9 availability Monte Carlo and the x10
scaling sweep).
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Mapping, Sequence

from repro.core.connection import ConnectionState
from repro.errors import ConfigurationError
from repro.facade import (
    GriphonNetwork,
    build_griphon_backbone,
    build_griphon_testbed,
)
from repro.metrics import downtime_minutes_per_year, measured_availability
from repro.scenario import Scenario, run_scenario
from repro.sim.randomness import RandomStreams
from repro.sweep.engine import TrialResult
from repro.sweep.spec import SweepSpec, TrialSpec
from repro.topo.builders import attach_premises, install_pop_equipment
from repro.topo.generator import generate_backbone
from repro.units import DAY, HOUR
from repro.workload import FiberCutInjector


# -- topology factories -----------------------------------------------------


def build_waxman_network(
    seed: int,
    node_count: int,
    plane_km: float = 2000.0,
    **equipment: Any,
) -> GriphonNetwork:
    """A generated Waxman backbone with premises and standard equipment.

    The sweep engine's workhorse topology factory: graph generation,
    premises attachment, and equipment install all derive from the one
    ``seed``, so a trial spec fully determines the network.
    """
    graph = generate_backbone(
        RandomStreams(seed), node_count=node_count, plane_km=plane_km
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


def scenario_trial(trial: TrialSpec) -> TrialResult:
    """Run a declarative :class:`~repro.scenario.Scenario` as one trial.

    The trial's ``scenario`` parameter is the plain-dict spec the
    scenario runner understands; ``topology`` picks the network
    (testbed / backbone / waxman).  This is the bridge between the
    scenario DSL and the sweep grid: any scenario file can be swept
    over seeds and topologies.
    """
    params = trial.params
    scenario = Scenario.from_dict(params["scenario"])
    net = _build_topology(trial)
    result = run_scenario(net, scenario)
    report = result.availability_report()
    availabilities = [report[key] for key in sorted(report)]
    return TrialResult(
        values={
            "connections": len(result.connections),
            "up": sum(
                1
                for conn in result.connections
                if conn.state is ConnectionState.UP
            ),
            "errors": len(result.errors),
            "mean_availability": (
                statistics.fmean(availabilities) if availabilities else 1.0
            ),
            "min_availability": min(availabilities) if availabilities else 1.0,
        },
        samples={"availability": availabilities},
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
    fleet.start()
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
    )


def slo_trial(trial: TrialSpec) -> TrialResult:
    """One gray-failure remediation trial (see :mod:`repro.slo.bench`).

    A module-level proxy so the registry entry pickles by reference
    and :mod:`repro.slo.bench` loads only when a trial runs.
    """
    from repro.slo.bench import slo_trial as run_trial

    return run_trial(trial)


def optimize_trial(trial: TrialSpec) -> TrialResult:
    """One re-optimization trial (see :mod:`repro.optimize.bench`).

    A module-level proxy so the registry entry pickles by reference,
    mirroring :func:`slo_trial`.
    """
    from repro.optimize.bench import optimize_trial as run_trial

    return run_trial(trial)


#: Study registry for JSON specs and the CLI.
STUDIES: Dict[str, Callable[[TrialSpec], TrialResult]] = {
    "availability": availability_trial,
    "scaling": scaling_trial,
    "scenario": scenario_trial,
    "pipeline": pipeline_trial,
    "frontend": frontend_trial,
    "slo": slo_trial,
    "optimize": optimize_trial,
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
