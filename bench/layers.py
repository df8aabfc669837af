"""Per-layer attribution: which public calls are wrapped, and the
per-layer metrics computed from their spans and the product's counters.

``*_wall_s`` is self time (child spans subtracted), so the layers plus
``kernel.residual_wall_s`` sum to the wall time of ``Simulator.run``.
``*_us_p50/p99`` and ``*_ms_p50/p99`` are per call, children included.

``kernel.residual_wall_s`` is the self time of ``Simulator.run``: event
dispatch plus the private process glue (``BodFrontend._pump``,
``ShardIntake._run_round`` / ``OrderPipeline._run_round``, ``_drain``,
the controllers' private setup/teardown/restoration workflows) that
cannot be wrapped from outside.  Splitting it needs spans inside the
program -- the in-program tracing issue.
"""

from __future__ import annotations

from typing import Dict

from bench.driver import Driver
from bench.metrics import percentile
from bench.trace import Recorder
from bench.workloads import World
from repro.errors import NoPathError


class LayerCounts:
    """Counts the wrappers take where the product keeps no counter."""

    def __init__(self) -> None:
        self.rpc_calls = 0
        self.no_path = 0


def install(recorder: Recorder, world: World, driver: Driver) -> LayerCounts:
    """Wrap every layer's public callables on the built instances.

    Must run before ``driver.load()``: the schedule binds the driver's
    and the controller's methods when it is handed to the kernel.
    """
    counts = LayerCounts()
    recorder.sim_clock = world.sim.time_source()
    wrap = recorder.wrap
    wrap(world.sim, "run", "kernel.run")
    for attr in ("submit", "teardown", "on_event"):
        wrap(driver, attr, "loadgen.driver")
    wrap(world.frontend, "submit", "frontend.submit",
         ident=lambda ticket: ticket.request_id)
    wrap(world.intake, "submit", "intake.submit",
         ident=lambda ticket: ticket.order_id)
    wrap(world.intake, "teardown", "intake.teardown")
    if world.network is not None:
        wrap(world.network, "place_orders", "shard.place")
        wrap(world.network, "teardown_order", "shard.teardown",
             ident=lambda order: order.order_id)
        wrap(world.network, "sync_workers", "workers.sync")
        wrap(world.network.planner, "decompose", "planner.decompose")
    if world.pool is not None:
        def count_one(args, result, error):
            counts.rpc_calls += 1

        def count_many(args, result, error):
            counts.rpc_calls += len(args[0])

        wrap(world.pool, "call", "workers.rpc", after=count_one)
        wrap(world.pool, "call_many", "workers.rpc", after=count_many)

    def count_plan(args, result, error):
        counts.no_path += isinstance(error, NoPathError)

    def count_batch(args, result, error):
        counts.no_path += sum(
            isinstance(item.error, NoPathError) for item in result or ()
        )

    seen = set()
    for controller in world.controllers.values():
        if id(controller) in seen:
            continue
        seen.add(id(controller))
        wrap(controller.rwa, "plan", "rwa.plan", after=count_plan)
        wrap(controller.rwa, "plan_batch", "rwa.plan", after=count_batch)
        wrap(controller.rwa, "plan_explicit", "rwa.plan", after=count_plan)
        wrap(controller.inventory.graph, "k_shortest_paths", "topo.ksp")
        provisioner = controller.provisioner
        wrap(provisioner, "claim", "prov.claim",
             ident=lambda lightpath: lightpath.lightpath_id)
        wrap(provisioner, "release", "prov.release")
        recorder.wrap_generator(
            provisioner, "setup_workflow", "prov.setup",
            ident=lambda lightpath, *rest: lightpath.lightpath_id)
        recorder.wrap_generator(
            provisioner, "teardown_workflow", "prov.teardown",
            ident=lambda lightpath, *rest: lightpath.lightpath_id)
        for attr in ("open_order", "admit_order", "launch_order"):
            wrap(controller, attr, "controller.launch")
        wrap(controller, "decompose_order", "controller.decompose")
        wrap(controller, "cut_link", "controller.cut")
        wrap(controller, "repair_link", "controller.repair")
        wrap(controller, "teardown_connection", "controller.teardown",
             ident=lambda connection: connection.connection_id)
        wrap(controller.grooming, "claim_circuit", "grooming.claim")
    return counts


def layer_metrics(
    recorder: Recorder,
    counts: LayerCounts,
    world: World,
    driver: Driver,
    cache_stats: Dict[str, dict],
    child_cpu_s: float,
) -> Dict[str, float]:
    """Every layer metric ``BENCHMARK.json`` lists under ``per_layer``
    (units and directions are there) except the two the runner adds:
    ``trace_overhead_ratio`` needs the untraced median and
    ``host.loop_s`` is its own calibration."""
    self_s, calls, durations = recorder.self_s, recorder.calls, recorder.durations
    submissions = driver.submissions
    registries = {id(c.metrics): c.metrics for c in world.controllers.values()}
    registries[id(world.metrics)] = world.metrics

    def counter(name: str) -> float:
        return sum(registry.counter(name) for registry in registries.values())

    def p(name: str, share: float, scale: float) -> float:
        value = percentile(durations[name], share)
        return 0.0 if value is None else value * scale

    outcomes = driver.outcome_counts()
    forwarded = world.metrics.counter("frontend.forwarded")
    rounds = world.intake.rounds
    placed = [
        order for order in (world.network.orders.values() if world.network else ())
        if order.plan_record
    ]
    hits = sum(stats["hits"] for stats in cache_stats.values())
    lookups = hits + sum(stats["misses"] for stats in cache_stats.values())
    setups = recorder.sim_durations["prov.setup"]
    run_wall = sum(durations["kernel.run"])
    events = driver.events
    values = {
        "frontend.submit_calls": calls("frontend.submit"),
        "frontend.submit_wall_s": self_s["frontend.submit"],
        "frontend.submit_us_p50": p("frontend.submit", 0.5, 1e6),
        "frontend.submit_us_p99": p("frontend.submit", 0.99, 1e6),
        "frontend.admitted": world.metrics.counter("frontend.admitted"),
        "frontend.shed": world.metrics.counter("frontend.shed"),
        "frontend.throttled": world.metrics.counter("frontend.throttled"),
        "frontend.queue_depth_max": driver.queue_depth_max,
        "frontend.tenants_registered": world.metrics.gauge("frontend.tenants"),
        "intake.submit_wall_s": self_s["intake.submit"],
        "intake.rounds": rounds,
        "intake.orders_per_round_mean": forwarded / rounds if rounds else 0.0,
        "intake.queue_full": outcomes.get("QueueFull", 0),
        "intake.deferred": counter("pipeline.deferred"),
        "intake.teardown_wall_s": self_s["intake.teardown"],
        "shard.place_calls": calls("shard.place"),
        "shard.place_wall_s": self_s["shard.place"],
        "shard.place_ms_p50": p("shard.place", 0.5, 1e3),
        "shard.place_ms_p99": p("shard.place", 0.99, 1e3),
        "shard.segments_per_order_mean": (
            sum(len(order.plan_record) for order in placed) / len(placed)
            if placed else 0.0
        ),
        "shard.blocked": (
            sum(order.state.value == "blocked"
                for order in world.network.orders.values())
            if world.network else 0
        ),
        "shard.teardown_wall_s": self_s["shard.teardown"],
        "planner.decompose_calls": calls("planner.decompose"),
        "planner.decompose_wall_s": self_s["planner.decompose"],
        "workers.spawn_s": self_s["workers.spawn"],
        "workers.rpc_calls": counts.rpc_calls,
        "workers.rpc_per_order": counts.rpc_calls / submissions,
        "workers.rpc_wall_s": self_s["workers.rpc"],
        "workers.rpc_us_p50": p("workers.rpc", 0.5, 1e6),
        "workers.rpc_us_p99": p("workers.rpc", 0.99, 1e6),
        "workers.sync_calls": calls("workers.sync"),
        "workers.sync_wall_s": self_s["workers.sync"],
        "workers.child_cpu_s": child_cpu_s,
        "rwa.plan_calls": calls("rwa.plan"),
        "rwa.plan_wall_s": self_s["rwa.plan"],
        "rwa.plan_us_p50": p("rwa.plan", 0.5, 1e6),
        "rwa.plan_us_p99": p("rwa.plan", 0.99, 1e6),
        "rwa.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "rwa.cache_invalidations": sum(
            stats["invalidations"] for stats in cache_stats.values()),
        "rwa.cache_evictions": sum(
            stats["evictions"] for stats in cache_stats.values()),
        "rwa.no_path": counts.no_path,
        "topo.ksp_calls": calls("topo.ksp"),
        "topo.ksp_wall_s": self_s["topo.ksp"],
        "prov.claim_calls": calls("prov.claim"),
        "prov.claim_wall_s": self_s["prov.claim"],
        "prov.release_wall_s": self_s["prov.release"],
        "prov.setup_wall_s": self_s["prov.setup"],
        "prov.teardown_wall_s": self_s["prov.teardown"],
        "prov.setup_steps": calls("prov.setup"),
        "ems.commands": sum(
            value
            for registry in registries.values()
            for name, value in registry.counters().items()
            if name.startswith("ems.")
        ),
        "ems.sim_s_per_setup_mean": sum(setups) / len(setups) if setups else 0.0,
        "controller.launch_wall_s": self_s["controller.launch"],
        "controller.decompose_wall_s": self_s["controller.decompose"],
        "controller.cut_calls": calls("controller.cut"),
        "controller.cut_wall_s": self_s["controller.cut"],
        "controller.repair_wall_s": self_s["controller.repair"],
        "controller.teardown_wall_s": self_s["controller.teardown"],
        "controller.restorations": counter("restoration.success"),
        "controller.restoration_failed": (
            counter("restoration.blocked") + counter("restoration.aborted")),
        "otn.mesh_restored": counter("otn.mesh.restored"),
        "grooming.claim_calls": calls("grooming.claim"),
        "grooming.claim_wall_s": self_s["grooming.claim"],
        "kernel.events": events,
        "kernel.events_per_s": events / run_wall,
        "kernel.events_per_order": events / submissions,
        "kernel.residual_wall_s": self_s["kernel.run"],
        "kernel.residual_ns_per_event": self_s["kernel.run"] / events * 1e9,
        "loadgen.generate_s": world.generate_s,
        "loadgen.orders": submissions,
        "loadgen.teardown_deferred": driver.teardown_deferred,
        "loadgen.driver_wall_s": self_s["loadgen.driver"],
        "trace.spans": len(recorder.spans),
    }
    return {name: float(value) for name, value in values.items()}
