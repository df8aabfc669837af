"""The migration-safety differential layer.

Oracle: executing a :class:`MigrationPlan` on a live network must leave
it *exactly* where a fresh network that provisions the same final
assignment from scratch would land — identical per-link occupancy
bitmasks, identical (route, channels) multiset.  Any slot the migration
leaked, any mask it forgot to clear, any half-rolled lightpath breaks
the equality.

Second arm: the invariant auditor must pass at every intermediate move,
not just at the end — a migration that corrupts state transiently and
repairs it later is still a bug (something observed the network between
the moves).
"""

from repro.core.connection import ConnectionState
from repro.faults.audit import audit_network
from repro.fingerprint import assignment_fingerprint
from repro.optimize.executor import MigrationExecutor
from repro.optimize.planner import plan_migrations
from repro.optimize.snapshot import NetworkSnapshot, _connection_sort_key
from repro.optimize import executor as executor_module
from repro.optimize.bench import (
    build_optimize_network,
    fragment_network,
    place_orders,
)

SEED = 7
NODE_COUNT = 24
WARM_ORDERS = 60


def replay_assignment(controller, twin):
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


def fragmented_network():
    net = build_optimize_network(SEED, node_count=NODE_COUNT)
    service = net.service_for(
        "diff-test", max_connections=4096, max_total_rate_gbps=1000000
    )
    warm = place_orders(net, service, WARM_ORDERS)
    fragment_network(net, service, warm, keep_every=3)
    return net, service


def test_replay_oracle_matches_an_untouched_network():
    """Sanity of the oracle itself: replaying a network that was never
    migrated reproduces its fingerprint on a twin."""
    net, _ = fragmented_network()
    twin = build_optimize_network(SEED, node_count=NODE_COUNT)
    replay_assignment(net.controller, twin)
    assert assignment_fingerprint(net.controller) == assignment_fingerprint(
        twin.controller
    )


def test_executed_plan_equals_replayed_final_assignment():
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    assert plan.moves, "scenario must yield moves"
    report = MigrationExecutor(net.controller).execute(plan)
    net.run()
    assert report.clean, report.to_dict()
    twin = build_optimize_network(SEED, node_count=NODE_COUNT)
    replay_assignment(net.controller, twin)
    assert assignment_fingerprint(net.controller) == assignment_fingerprint(
        twin.controller
    ), "migrated network differs from a from-scratch build of the same assignment"


def test_audit_passes_at_every_intermediate_move(monkeypatch):
    """Step through the plan one move at a time, auditing the whole
    network between moves — the differential layer's per-step arm."""
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    assert len(plan.moves) >= 2, "need multiple moves to step through"
    audits = []

    def recorded(controller):
        audits.append(audit_network(controller))
        return audits[-1]

    monkeypatch.setattr(executor_module, "audit_network", recorded)
    report = MigrationExecutor(net.controller).execute(plan)
    net.run()
    # The executor audited after every completed move; none tripped.
    assert report.completed == len(plan.moves)
    assert report.audit_failures == []
    assert len(audits) == report.completed
    assert all(audit.ok for audit in audits), [str(a) for a in audits]
    # And the final state audits clean under an independent sweep.
    final = audit_network(net.controller)
    assert final.ok, str(final)


def test_partial_execution_still_replay_consistent():
    """Even a prefix of the plan must leave replayable state: stop after
    the first move (max_moves=1) and run the oracle."""
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot, max_moves=1)
    assert len(plan.moves) == 1
    report = MigrationExecutor(net.controller).execute(plan)
    net.run()
    assert report.clean
    twin = build_optimize_network(SEED, node_count=NODE_COUNT)
    replay_assignment(net.controller, twin)
    assert assignment_fingerprint(net.controller) == assignment_fingerprint(
        twin.controller
    )
