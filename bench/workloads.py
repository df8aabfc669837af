"""The four named workloads: what is built, what load it gets, and why.

Every workload builds the product through its public builders, fronts
it with ``BodFrontend`` and returns a :class:`World` -- the handles the
driver, the tracer and the correctness checks need.  Topology seed is
fixed; only the load schedule depends on ``--seed``.  ``--scale``
multiplies order counts only: topology, rates and holding times stay.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from bench import TOPOLOGY_SEED, loadgen
from repro.facade import build_griphon_testbed
from repro.faults.audit import AuditReport, audit_network
from repro.frontend.service import BodFrontend
from repro.obs.registry import MetricsRegistry
from repro.shard.intake import ShardIntake
from repro.shard.network import build_sharded_network
from repro.shard.workers import ShardWorkerPool
from repro.sweep.studies import build_waxman_network
from repro.topo.hierarchy import build_hierarchy
from repro.topo.testbed import TESTBED_PREMISES


class World:
    """One built system under test.

    Attributes:
        sim / frontend / intake / admission / metrics: The product
            objects on the order path.
        controllers: ``{unit: GriphonController}`` -- one entry for the
            monolithic workloads, one per shard otherwise.
        network: The ``ShardedNetwork`` (None for monolithic workloads).
        pool: The shard worker pool (``sharded-pool`` only).
        schedule: The pre-generated load.
        params: Everything that sizes the run, for the output stamp.
        tenant_connections: Per-tenant connection quota.
        generate_s: Wall seconds spent generating the schedule.
    """

    def __init__(self, sim, frontend, intake, admission, metrics, controllers,
                 schedule, params, tenant_connections, generate_s,
                 network=None, pool=None) -> None:
        self.sim = sim
        self.frontend = frontend
        self.intake = intake
        self.admission = admission
        self.metrics = metrics
        self.controllers = controllers
        self.schedule = schedule
        self.params = params
        self.tenant_connections = tenant_connections
        self.generate_s = generate_s
        self.network = network
        self.pool = pool

    def close(self) -> None:
        """Stop and reap every worker process (no-op without a pool)."""
        if self.network is not None:
            self.network.close()
        if self.pool is not None:
            self.pool.close()

    def audit(self) -> Dict[str, AuditReport]:
        """The product's own invariant audit, per controller."""
        if self.network is not None:
            return self.network.audit_shards()
        return {
            unit: audit_network(controller)
            for unit, controller in self.controllers.items()
        }

    def route_cache_stats(self) -> Dict[str, dict]:
        """Route-cache counters per unit (from the workers under pool)."""
        if self.network is not None:
            return self.network.route_cache_stats()
        return {
            unit: controller.planning.route_cache_stats()
            for unit, controller in self.controllers.items()
        }


def _timed_schedule(generate: Callable[[], loadgen.Schedule]):
    started = time.perf_counter()
    schedule = generate()
    return schedule, time.perf_counter() - started


def _build_sharded(backend: str, seed: int, scale: float, wrap_pool) -> World:
    orders = max(1, round(8000 * scale))
    hierarchy = build_hierarchy(
        TOPOLOGY_SEED, regions=16, pops_per_region=32, with_premises=True
    )
    pool = None
    if backend == "pool":
        # The pool is built here, not inside the network, only so the
        # traced run can time the spawn through its public ``ensure``.
        pool = ShardWorkerPool()
        if wrap_pool is not None:
            wrap_pool(pool)
    network = build_sharded_network(
        seed=TOPOLOGY_SEED,
        hierarchy=hierarchy,
        mode="sharded",
        backend=backend,
        transponders_10g=64,
        regens_10g=16,
        pool=pool,
    )
    intake = ShardIntake(
        network, capacity=256, round_size=32, round_interval=0.01
    )
    metrics = MetricsRegistry()
    frontend = BodFrontend(
        intake,
        network.admission,
        network.sim,
        metrics=metrics,
        queue_capacity=256,
        bucket_rate=50,
        bucket_burst=100,
    )
    schedule, generate_s = _timed_schedule(
        lambda: loadgen.sharded_orders(
            seed, orders, [info.premises for info in hierarchy.regions.values()]
        )
    )
    return World(
        network.sim, frontend, intake, network.admission, metrics,
        network.controllers, schedule,
        params={"orders": orders, "pops": hierarchy.pop_count,
                "backend": backend, "workers": pool.size if pool else 0},
        tenant_connections=64, generate_s=generate_s,
        network=network, pool=pool,
    )


def _build_edge_overload(seed: int, scale: float, wrap_pool) -> World:
    duration_s = 300.0 * scale
    net = build_griphon_testbed(seed=TOPOLOGY_SEED, latency_cv=0.0)
    frontend = net.enable_frontend(
        queue_capacity=64, shed_high=48, shed_low=16,
        bucket_rate=1, bucket_burst=8, round_interval=0.01,
    )
    schedule, generate_s = _timed_schedule(
        lambda: loadgen.overload_orders(
            seed, duration_s, sorted(TESTBED_PREMISES)
        )
    )
    return World(
        net.sim, frontend, net.pipeline, net.controller.admission,
        net.metrics, {"testbed": net.controller}, schedule,
        params={"duration_sim_s": duration_s, "orders": len(schedule.orders)},
        tenant_connections=4, generate_s=generate_s,
    )


def _build_mono_churn(seed: int, scale: float, wrap_pool) -> World:
    orders = max(1, round(5000 * scale))
    net = build_waxman_network(
        TOPOLOGY_SEED, node_count=64, with_otn=True,
        transponders_10g=48, regens_10g=12, add_drop_ports=64,
        fxc_ports=128, nte_interfaces=32, premises_fxc_ports=64,
        otn_client_ports=128,
    )
    frontend = net.enable_frontend(
        queue_capacity=256, bucket_rate=50, bucket_burst=100,
        round_size=16, round_interval=0.01,
    )
    graph = net.inventory.graph
    premises = sorted(n.name for n in graph.nodes if n.kind == "premises")
    core_links = sorted(
        link.key for link in graph.links
        if link.a not in premises and link.b not in premises
    )
    schedule, generate_s = _timed_schedule(
        lambda: loadgen.churn_orders(seed, orders, premises, core_links)
    )
    return World(
        net.sim, frontend, net.pipeline, net.controller.admission,
        net.metrics, {"waxman": net.controller}, schedule,
        params={"orders": orders, "cuts": len(schedule.cuts),
                "pops": len(premises)},
        tenant_connections=64, generate_s=generate_s,
    )


#: name -> ``build(seed, scale, wrap_pool)`` returning a :class:`World`.
#: ``wrap_pool`` is the tracer's hook on a freshly made worker pool (or
#: None).  Why each workload exists is in ``BENCHMARK.json`` and the README.
BUILDERS: Dict[str, Callable[[int, float, Optional[Callable[[Any], None]]], World]] = {
    "sharded-inproc":
        lambda seed, scale, wrap: _build_sharded("inprocess", seed, scale, wrap),
    "sharded-pool":
        lambda seed, scale, wrap: _build_sharded("pool", seed, scale, wrap),
    "edge-overload": _build_edge_overload,
    "mono-churn": _build_mono_churn,
}
