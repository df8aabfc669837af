"""The re-optimization benchmark: repack vs greedy under rising load.

One trial fragments a generated 64-PoP backbone the way months of churn
would: waves of inter-DC orders interleaved with teardowns, leaving the
survivors stranded on scattered high channels and contention-forced
detours.  The trial then either runs a global re-optimization cycle
(``reoptimize=True``) or leaves the greedy first-fit assignment as-is,
and finally ramps fresh offered load into whatever capacity is left.

``tests/test_golden_optimize.py`` holds the bar at this size (seeds 1-3):
re-optimization reclaims >= 15% of the wavelengths in use, with zero
invariant-audit violations and zero dropped connections during
migration.  ``griphon optimize`` / ``sweep optimize`` print the same trial.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.connection import ConnectionState
from repro.facade import GriphonNetwork
from repro.fingerprint import assignment_fingerprint
from repro.optimize.runtime import Reoptimizer
from repro.optimize.snapshot import _connection_sort_key

#: Default fragmentation scenario knobs.
DEFAULT_NODE_COUNT = 64
DEFAULT_WARM_ORDERS = 160
DEFAULT_LOAD_ORDERS = 48


def build_optimize_network(
    seed: int, node_count: int = DEFAULT_NODE_COUNT
) -> GriphonNetwork:
    """The benchmark network: a generated Waxman backbone."""
    from repro.sweep.studies import build_waxman_network

    return build_waxman_network(seed, node_count=node_count)


def place_orders(net: GriphonNetwork, service, count: int, offset: int = 0):
    """Place ``count`` deterministic inter-DC orders; returns the records.

    The (a, b) pairing cycles the PoP list with a stride-7 walk, the
    same load pattern as the scaling study, so two runs with the same
    seed and count request identical demand.
    """
    pops = [
        node.name
        for node in net.inventory.graph.nodes
        if node.kind != "premises"
    ]
    connections = []
    for index in range(offset, offset + count):
        a = f"DC-{pops[index % len(pops)]}"
        b = f"DC-{pops[(index * 7 + 3) % len(pops)]}"
        if a == b:
            b = f"DC-{pops[(index * 7 + 4) % len(pops)]}"
        connections.append(service.request_connection(a, b, 10))
    net.run()
    return connections


def fragment_network(
    net: GriphonNetwork,
    service,
    connections,
    keep_every: int = 3,
) -> int:
    """Tear down all but every ``keep_every``-th UP connection.

    The churn that strands survivors: the teardowns free the low
    channels first-fit packed tightly, so later orders (and the
    survivors themselves) end up scattered across the grid.  Returns
    the number of teardowns issued.
    """
    torn = 0
    for index, connection in enumerate(connections):
        if connection.state is not ConnectionState.UP:
            continue
        if index % keep_every == 0:
            continue
        service.teardown_connection(connection.connection_id)
        torn += 1
    net.run()
    return torn


def wavelengths_in_use(controller) -> int:
    """Distinct channels lit anywhere in the network, live."""
    union = 0
    for mask in controller.inventory.plant.occupancy_snapshot().values():
        union |= mask
    return bin(union).count("1")


def replay_assignment(controller, twin: GriphonNetwork) -> List:
    """Re-establish ``controller``'s final assignment on a fresh twin.

    The migration-safety oracle's second arm: every UP single-lightpath
    connection is re-ordered on ``twin`` from scratch with a planner
    that returns its *final* route and channels verbatim.  If the twin's
    :func:`assignment_fingerprint` then matches the original's, the
    executed migration plan left the network exactly where a from-
    scratch provisioning of the same assignment would — no leaked slots,
    no stale masks, no half-rolled state.

    Returns the twin's connection records, in original order.
    """
    for customer in sorted(
        {c.customer for c in controller.connections.values()}
    ):
        twin.service_for(
            customer, max_connections=4096, max_total_rate_gbps=1000000
        )
    replayed = []
    for conn_id in sorted(controller.connections, key=_connection_sort_key):
        connection = controller.connections[conn_id]
        if connection.state is not ConnectionState.UP:
            continue
        if len(connection.lightpath_ids) != 1 or connection.circuit_ids:
            continue
        lightpath = controller.inventory.lightpaths[
            connection.lightpath_ids[0]
        ]
        explicit = twin.controller.rwa.plan_explicit(
            list(lightpath.path),
            list(lightpath.channels),
            lightpath.rate_bps,
        )
        twin_conn, span = twin.controller.open_order(
            connection.customer,
            connection.premises_a,
            connection.premises_b,
            connection.rate_bps,
            connection.kind,
        )
        if not twin.controller.admit_order(twin_conn, span):
            replayed.append(twin_conn)
            continue
        twin.controller.launch_order(
            twin_conn,
            connection.kind,
            span,
            planner=lambda *args, _plan=explicit, **kwargs: _plan,
        )
        replayed.append(twin_conn)
    twin.run()
    return replayed


def run_optimize_trial(
    seed: int = 0,
    node_count: int = DEFAULT_NODE_COUNT,
    warm_orders: int = DEFAULT_WARM_ORDERS,
    load_orders: int = DEFAULT_LOAD_ORDERS,
    keep_every: int = 3,
    reoptimize: bool = True,
    k_paths: int = 4,
    max_passes: int = 4,
) -> Dict[str, Any]:
    """One fragment → (maybe re-optimize) → load-ramp trial; flat dict.

    With ``reoptimize=False`` the same fragmented network takes the
    same load ramp on its greedy first-fit assignment — the baseline
    the benchmark's reclaim and blocking comparisons are made against.
    """
    net = build_optimize_network(seed, node_count=node_count)
    service = net.service_for(
        "dc-operator", max_connections=4096, max_total_rate_gbps=1000000
    )
    warm = place_orders(net, service, warm_orders)
    torn = fragment_network(net, service, warm, keep_every=keep_every)
    survivors = [c for c in warm if c.state is ConnectionState.UP]

    wavelengths_fragmented = wavelengths_in_use(net.controller)
    plan_dict: Optional[Dict[str, Any]] = None
    report_dict: Optional[Dict[str, Any]] = None
    if reoptimize:
        optimizer = Reoptimizer(
            net.controller, k_paths=k_paths, max_passes=max_passes
        )
        done: Dict[str, Any] = {}

        def finished(plan, report) -> None:
            done["plan"], done["report"] = plan, report

        optimizer.run_cycle(on_done=finished)
        net.run()
        plan = done["plan"]
        report = done["report"]
        plan_dict = {
            "moves": len(plan.moves),
            "rewavelength_only": sum(
                1 for m in plan.moves if m.rewavelength_only
            ),
            "passes": plan.passes,
            "objective_before": plan.objective_before,
            "objective_after": plan.objective_after,
            "wavelengths_before": plan.wavelengths_before,
            "wavelengths_after": plan.wavelengths_after,
        }
        report_dict = report.to_dict()
    wavelengths_optimized = wavelengths_in_use(net.controller)

    ramp = place_orders(net, service, load_orders, offset=warm_orders)
    blocked = sum(1 for c in ramp if c.state is ConnectionState.BLOCKED)
    served = sum(1 for c in ramp if c.state is ConnectionState.UP)
    dropped_survivors = sum(
        1 for c in survivors if c.state is not ConnectionState.UP
    )

    result: Dict[str, Any] = {
        "seed": seed,
        "node_count": node_count,
        "reoptimize": reoptimize,
        "warm_orders": warm_orders,
        "torn_down": torn,
        "survivors": len(survivors),
        "wavelengths_fragmented": wavelengths_fragmented,
        "wavelengths_optimized": wavelengths_optimized,
        "wavelengths_reclaimed": wavelengths_fragmented
        - wavelengths_optimized,
        "load_orders": load_orders,
        "blocked": blocked,
        "served": served,
        "blocking_probability": blocked / load_orders if load_orders else 0.0,
        "dropped_survivors": dropped_survivors,
        "fingerprint": assignment_fingerprint(net.controller),
        "sim_now": net.sim.now,
    }
    if plan_dict is not None:
        result["planned_moves"] = plan_dict["moves"]
        result["rewavelength_moves"] = plan_dict["rewavelength_only"]
        result["planner_passes"] = plan_dict["passes"]
        result["objective_before"] = plan_dict["objective_before"]
        result["objective_after"] = plan_dict["objective_after"]
    if report_dict is not None:
        result["moves_completed"] = report_dict["completed"]
        result["moves_stale"] = report_dict["stale"]
        result["moves_failed"] = report_dict["failed"]
        result["rollback_triggered"] = report_dict["rollback_triggered"]
        result["audit_violations"] = len(report_dict["audit_failures"])
    return result
