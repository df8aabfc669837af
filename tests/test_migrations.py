"""One migration path: every driver moves a connection through
``controller.migrations.move``.

Maintenance, re-grooming, SLO remediation and the re-optimizer's
executor each start bridge-and-roll.  The regression tests pin the two
ways separate start paths went wrong (maintenance counting an aborted
move as done, and a roll that ignored another driver's lock); the
property interleaves all four drivers on one connection, with a cut
under a bridge, and checks that every move settles exactly once, that
the lock names at most one holder at any event, and that the invariant
auditor stays clean.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.connection import ConnectionState
from repro.core.migration import ROLL_HIT_S
from repro.core.regrooming import RegroomingEngine
from repro.errors import MigrationLockedError, NoPathError
from repro.facade import build_griphon_testbed
from repro.faults.plan import DegradationPlan, DegradationSpec
from repro.faults.audit import audit_network
from repro.optimize.executor import MigrationExecutor
from repro.optimize.planner import MigrationMove, MigrationPlan
from repro.slo.monitor import SloPolicy
from repro.slo.bench import build_slo_network


def up_testbed_connection():
    """The Fig. 4 testbed with one 10G PREMISES-A -> C connection UP on
    ROADM-I-IV."""
    net = build_griphon_testbed(seed=1, latency_cv=0.0)
    conn = net.service_for("csp").request_connection(
        "PREMISES-A", "PREMISES-C", rate_gbps=10
    )
    net.run()
    assert conn.state is ConnectionState.UP
    path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
    assert path == ["ROADM-I", "ROADM-IV"]
    return net, conn


class TestMaintenance:
    def test_a_move_aborted_under_the_bridge_is_retried(self):
        net, conn = up_testbed_connection()
        record = net.maintenance.schedule(
            "ROADM-I", "ROADM-IV", start_in=900, duration=4 * 3600
        )
        # Migrations start 300 s in; the first bridge rides ROADM-I-III-IV.
        net.run(until=net.sim.now + 301)
        bridges = [
            lightpath.path
            for lightpath_id, lightpath in net.inventory.lightpaths.items()
            if lightpath_id not in conn.lightpath_ids
        ]
        assert bridges == [["ROADM-I", "ROADM-III", "ROADM-IV"]]
        net.controller.cut_link("ROADM-I", "ROADM-III")
        net.run()
        assert net.metrics.counters()["bridge_and_roll.aborted"] == 1
        assert [(m.outcome, m.reason) for m in record.moves] == [
            ("aborted", "bridge is failed"),
            ("completed", ""),
        ]
        assert record.migrated == [conn.connection_id]
        assert record.migration_failures == {}
        # One roll hit, never the restoration outage of riding into
        # the window.
        assert conn.state is ConnectionState.UP
        assert conn.total_outage_s == pytest.approx(ROLL_HIT_S)
        assert audit_network(net.controller).ok

    def test_a_move_that_aborts_twice_is_a_failure(self):
        net, conn = up_testbed_connection()
        record = net.maintenance.schedule(
            "ROADM-I", "ROADM-IV", start_in=900, duration=3600
        )
        cuts = [("ROADM-I", "ROADM-III"), ("ROADM-I", "ROADM-II")]

        def cut_next_bridge(event, payload):
            # Each new bridge loses its first span shortly after it starts.
            if event == "bridge-and-roll-aborted" and cuts:
                net.sim.schedule(1.0, net.controller.cut_link, *cuts.pop(0))

        net.run(until=net.sim.now + 301)
        net.controller.cut_link(*cuts.pop(0))
        net.controller.observers.append(cut_next_bridge)
        net.run()
        assert [m.outcome for m in record.moves] == ["aborted", "aborted"]
        assert record.migrated == []
        assert record.migration_failures == {
            conn.connection_id: "bridge is failed"
        }
        assert audit_network(net.controller).ok


class TestLock:
    def test_a_second_holder_is_refused_before_building_a_bridge(self):
        net, conn = up_testbed_connection()
        migrations = net.controller.migrations
        first = migrations.move(conn.connection_id, "optimize")
        lightpaths = sorted(net.inventory.lightpaths)
        with pytest.raises(MigrationLockedError, match="'optimize'"):
            migrations.move(conn.connection_id, "slo")
        assert sorted(net.inventory.lightpaths) == lightpaths
        assert migrations.holder(conn.connection_id) == "optimize"
        net.run()
        assert first.outcome == "completed"
        assert net.metrics.counters().get("bridge_and_roll.aborted", 0) == 0
        assert migrations.holder(conn.connection_id) is None

    def test_the_lock_is_free_when_a_move_settles(self):
        net, conn = up_testbed_connection()
        migrations = net.controller.migrations
        seen = []
        move = migrations.move(
            conn.connection_id,
            "operator",
            on_settled=lambda m: seen.append(
                (m.outcome, migrations.holder(m.connection_id))
            ),
        )
        assert not move.settled
        net.run()
        assert seen == [("completed", None)]
        assert move.hit_s == ROLL_HIT_S
        assert move.new_path == net.inventory.lightpaths[
            conn.lightpath_ids[0]
        ].path

    def test_a_bridge_cut_during_the_roll_hit_aborts_the_move(self):
        """The roll re-checks its bridge after the hit: a cut inside the
        ~50 ms window leaves the connection on its live old path (it used
        to roll onto the dead bridge and stay UP on a FAILED lightpath)."""
        net, conn = up_testbed_connection()
        old_id = conn.lightpath_ids[0]
        move = net.controller.migrations.move(conn.connection_id, "operator")
        cut = []

        def probe():
            if conn.outage_started_at is None:  # not yet inside the hit
                net.sim.schedule(0.01, probe)
                return
            (bridge_id,) = set(net.inventory.lightpaths) - {old_id}
            cut.append(net.inventory.lightpaths[bridge_id].path[:2])
            net.controller.cut_link(*cut[0])

        net.sim.schedule(0.01, probe)
        net.run()
        assert cut == [["ROADM-I", "ROADM-III"]]
        assert (move.outcome, move.reason) == ("aborted", "bridge is failed")
        assert conn.state is ConnectionState.UP
        assert conn.lightpath_ids == [old_id]
        assert audit_network(net.controller).ok

    def test_a_refused_move_leaves_the_lock_free(self):
        net, conn = up_testbed_connection()
        net.controller.auto_restore = False
        net.controller.cut_link("ROADM-I", "ROADM-III")
        net.controller.cut_link("ROADM-I", "ROADM-II")
        with pytest.raises(NoPathError):
            net.controller.migrations.move(conn.connection_id, "operator")
        assert net.controller.migrations.holder(conn.connection_id) is None


# -- every driver on one connection --------------------------------------------

DRIVERS = ("maintenance", "regroom", "optimize")


@st.composite
def interleavings(draw):
    """An SLO drift on the connection's trunk, driver actions at drawn
    times, and the n-th move's bridge cut at a drawn span and delay."""
    return {
        "drift": (
            draw(st.integers(0, 60)) * 10.0,
            draw(st.integers(60, 240)) * 10.0,
        ),
        "actions": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(DRIVERS),
                    st.integers(0, 300).map(lambda t: t * 10.0),
                    st.integers(0, 7),
                ),
                min_size=1,
                max_size=6,
            )
        ),
        "cut": (
            draw(st.integers(0, 3)),
            draw(st.integers(0, 7)),
            draw(st.integers(0, 80)) * 1.0,
        ),
    }


def current_lightpath(net, conn):
    if conn.state is not ConnectionState.UP or len(conn.lightpath_ids) != 1:
        return None
    return net.inventory.lightpaths.get(conn.lightpath_ids[0])


def rewavelength(net, conn, pick):
    """A one-move plan: the connection's route on other free channels."""
    lightpath = current_lightpath(net, conn)
    if lightpath is None:
        return None
    plant = net.inventory.plant
    channels = []
    for segment in lightpath.segments:
        taken = set()
        for link in plant.links_on_path(segment.nodes):
            taken |= link.occupied_channels
        free = [c for c in range(plant.grid.size) if c not in taken]
        channels.append(free[pick % len(free)])
    return MigrationPlan(moves=[MigrationMove(
        index=0,
        connection_id=conn.connection_id,
        rate_bps=lightpath.rate_bps,
        old_path=tuple(lightpath.path),
        old_channels=tuple(lightpath.channels),
        new_path=tuple(lightpath.path),
        new_channels=tuple(channels),
        cost_before=1.0,
        cost_after=0.5,
    )])


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(interleavings())
def test_every_driver_moves_one_connection_through_one_lock(scenario):
    net = build_slo_network(0)
    service = net.service_for("t", max_connections=8, max_total_rate_gbps=1000)
    conn = service.request_connection("DC-CENTRAL", "DC-SOUTH", 10)
    net.run()
    controller = net.controller
    migrations = controller.migrations
    started, settled, audits, reports = [], [], [], []
    cut_index, cut_pick, cut_delay = scenario["cut"]

    real_move = migrations.move

    def move(connection_id, holder, plan=None, exclude=(), on_settled=None):
        def counted(m):
            settled.append(m)
            assert migrations.holder(m.connection_id) is None
            audits.append(audit_network(controller))
            if on_settled is not None:
                on_settled(m)

        before = set(net.inventory.lightpaths)
        m = real_move(connection_id, holder, plan, exclude, counted)
        if len(started) == cut_index:
            (bridge_id,) = set(net.inventory.lightpaths) - before
            path = net.inventory.lightpaths[bridge_id].path
            span = path[cut_pick % (len(path) - 1):][:2]
            net.sim.schedule(cut_delay, controller.cut_link, *span)
            net.sim.schedule(cut_delay + 300.0, controller.repair_link, *span)
        started.append(m)
        return m

    migrations.move = move

    def act(driver, pick):
        if driver == "maintenance":
            lightpath = current_lightpath(net, conn)
            if lightpath is not None:
                path = lightpath.path
                a, b = path[pick % (len(path) - 1):][:2]
                net.maintenance.schedule(
                    a, b, start_in=300.0, duration=600.0, lead_time=300.0
                )
        elif driver == "regroom":
            RegroomingEngine(controller, improvement_threshold=0.0).run_pass()
        else:
            plan = rewavelength(net, conn, pick)
            if plan is not None:
                reports.append(MigrationExecutor(controller).execute(plan))

    for driver, at, pick in scenario["actions"]:
        net.sim.schedule(at, act, driver, pick)
    drift = DegradationPlan()
    start_s, duration_s = scenario["drift"]
    drift.add(DegradationSpec(
        link="ATL=DFW", mode="osnr-drift", start_s=start_s,
        duration_s=duration_s, magnitude_db=8.0,
    ))
    runtime = net.enable_slo(
        plan=drift, policies=(SloPolicy(name="osnr-margin"),),
        audit_each_action=True,
    )
    while net.sim.step():
        moving = [m for m in started if not m.settled]
        assert len(moving) <= 1
        assert migrations.holder(conn.connection_id) == (
            moving[0].holder if moving else None
        )
    assert len(settled) == len(started)
    assert {id(m) for m in settled} == {id(m) for m in started}
    assert all(report.ok for report in audits)
    assert runtime.engine.audit_ok
    assert all(not report.audit_failures for report in reports)
    assert audit_network(controller).ok
