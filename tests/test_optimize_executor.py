"""Executor tests: moves land, stale moves skip, failures roll back,
and the migration lock serializes the executor against re-grooming.
"""

import pytest

from repro.core.connection import ConnectionState
from repro.core.regrooming import RegroomingEngine
from repro.errors import MigrationLockedError
from repro.faults.audit import audit_network
from repro.optimize.executor import MigrationExecutor
from repro.optimize.planner import (
    MigrationMove,
    MigrationPlan,
    plan_migrations,
)
from repro.optimize.snapshot import NetworkSnapshot
from repro.optimize.bench import (
    build_optimize_network,
    fragment_network,
    place_orders,
)

SEED = 7
NODE_COUNT = 24
WARM_ORDERS = 60


def fragmented_network():
    net = build_optimize_network(SEED, node_count=NODE_COUNT)
    service = net.service_for(
        "executor-test", max_connections=4096, max_total_rate_gbps=1000000
    )
    warm = place_orders(net, service, WARM_ORDERS)
    fragment_network(net, service, warm, keep_every=3)
    return net, service


def planned_network():
    net, service = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    assert plan.moves, "scenario must yield moves"
    return net, service, plan


def assignment_of(net, connection_id):
    connection = net.controller.connections[connection_id]
    lightpath = net.inventory.lightpaths[connection.lightpath_ids[0]]
    return tuple(lightpath.path), tuple(lightpath.channels)


def test_execute_lands_every_move():
    net, _, plan = planned_network()
    executor = MigrationExecutor(net.controller)
    report = executor.execute(plan)
    net.run()
    assert report.completed == len(plan.moves)
    assert report.failed == 0 and report.stale == 0
    assert not report.rollback_triggered
    assert report.audit_failures == []
    assert report.dropped_connections == []
    assert report.clean
    # Every touched connection now carries its move's target assignment.
    final = {}
    for move in plan.moves:
        final[move.connection_id] = (move.new_path, move.new_channels)
    for conn_id, expected in final.items():
        assert assignment_of(net, conn_id) == expected
    assert audit_network(net.controller).ok


def test_execute_releases_every_migration_lock():
    net, _, plan = planned_network()
    MigrationExecutor(net.controller).execute(plan)
    net.run()
    for move in plan.moves:
        assert (
            net.controller.migrations.holder(move.connection_id) is None
        )


def test_stale_move_is_skipped_not_executed():
    net, service, plan = planned_network()
    victim = plan.moves[0].connection_id
    # The network changed between planning and execution: the victim
    # was torn down, so its move no longer describes reality.
    service.teardown_connection(victim)
    net.run()
    report = MigrationExecutor(net.controller).execute(plan)
    net.run()
    by_conn = {r.move.connection_id: r.outcome for r in report.results}
    assert by_conn[victim] == "stale"
    assert report.stale >= 1
    # The rest of the plan still ran.
    assert report.completed == len(plan.moves) - report.stale
    assert not report.rollback_triggered


def test_failed_move_rolls_back_completed_moves():
    net, _, plan = planned_network()
    first = plan.moves[0]
    # Craft a poison second move: its target channel is the slot the
    # victim connection already occupies, so plan_explicit refuses it.
    victim = next(
        m.connection_id
        for m in plan.moves[1:]
        if m.connection_id != first.connection_id
    )
    path, channels = assignment_of(net, victim)
    poison = MigrationMove(
        index=1,
        connection_id=victim,
        rate_bps=plan.moves[0].rate_bps,
        old_path=path,
        old_channels=channels,
        new_path=path,
        new_channels=channels,  # already lit -> WavelengthBlockedError
        cost_before=1.0,
        cost_after=0.5,
    )
    doomed = MigrationPlan(moves=[first, poison])
    report = MigrationExecutor(net.controller).execute(doomed)
    net.run()
    assert report.rollback_triggered
    assert report.failed == 1
    assert report.rolled_back == 1
    # The first move was undone: its connection is back on the old
    # assignment, and nothing dropped along the way.
    assert assignment_of(net, first.connection_id) == (
        first.old_path,
        first.old_channels,
    )
    assert report.dropped_connections == []
    for conn_id in (first.connection_id, victim):
        state = net.controller.connections[conn_id].state
        assert state is ConnectionState.UP
    assert audit_network(net.controller).ok


def test_lock_blocks_lock_aware_rival_and_releases_on_settle():
    net, _, plan = planned_network()
    conn_id = plan.moves[0].connection_id
    net.controller.migrations.move(conn_id, "optimize")
    assert net.controller.migrations.holder(conn_id) == "optimize"
    with pytest.raises(MigrationLockedError):
        net.controller.migrations.move(conn_id, "regrooming")
    net.run()
    assert net.controller.migrations.holder(conn_id) is None


def test_regrooming_and_executor_cannot_race_one_connection():
    """Deterministic regression for the regrooming/executor race: while
    the executor's first move is mid-roll, a re-grooming pass must not
    touch that connection — and must still work afterwards."""
    net, _, plan = planned_network()
    moving = plan.moves[0].connection_id
    executor = MigrationExecutor(net.controller)
    executor.execute(plan)
    # The executor's first roll is now in flight (sim not yet run), so
    # the connection is locked under the executor's holder tag.
    assert net.controller.migrations.holder(moving) == "optimize"
    engine = RegroomingEngine(net.controller, improvement_threshold=0.0)
    # Its scan skips the locked connection entirely...
    assert moving not in {
        c.connection_id for c in engine.scan()
    }
    # ...and a direct lock-aware roll attempt is refused, not raced.
    with pytest.raises(MigrationLockedError):
        net.controller.migrations.move(moving, "regrooming")
    net.run()
    # Once the plan drains, the lock is gone and audits are clean.
    assert net.controller.migrations.holder(moving) is None
    assert audit_network(net.controller).ok


def test_rollback_can_be_disabled():
    net, _, plan = planned_network()
    first = plan.moves[0]
    victim = next(
        m.connection_id
        for m in plan.moves[1:]
        if m.connection_id != first.connection_id
    )
    path, channels = assignment_of(net, victim)
    poison = MigrationMove(
        index=1,
        connection_id=victim,
        rate_bps=first.rate_bps,
        old_path=path,
        old_channels=channels,
        new_path=path,
        new_channels=channels,
        cost_before=1.0,
        cost_after=0.5,
    )
    doomed = MigrationPlan(moves=[first, poison])
    report = MigrationExecutor(
        net.controller, rollback_on_failure=False
    ).execute(doomed)
    net.run()
    assert report.failed == 1
    assert report.rolled_back == 0
    assert not report.rollback_triggered
    # The completed move stays in place.
    assert assignment_of(net, first.connection_id) == (
        first.new_path,
        first.new_channels,
    )
