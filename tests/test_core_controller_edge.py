"""Edge-case tests for the controller: odd orders, race-y operations."""

import pytest

from repro.core.connection import ConnectionKind, ConnectionState
from repro.errors import (
    ConnectionStateError,
    MigrationLockedError,
    ResourceError,
)
from repro.facade import build_griphon_testbed


@pytest.fixture
def net():
    return build_griphon_testbed(seed=71, latency_cv=0.0)


@pytest.fixture
def svc(net):
    return net.service_for("csp")


class TestOddOrders:
    def test_same_premises_blocked(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-A", 10)
        assert conn.state is ConnectionState.BLOCKED
        assert conn.blocked_reason

    def test_unknown_premises_blocked(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-X", 10)
        assert conn.state is ConnectionState.BLOCKED

    def test_rate_above_any_wavelength_composite(self, net, svc):
        # 52G = 40G + 10G + 2 x 1G circuits.
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 52)
        net.run()
        assert conn.state is ConnectionState.UP
        assert conn.kind is ConnectionKind.COMPOSITE
        assert len(conn.lightpath_ids) == 2
        assert len(conn.circuit_ids) == 2

    def test_forced_wavelength_above_max_blocked(self, net, svc):
        conn = svc.request_connection(
            "PREMISES-A", "PREMISES-B", 52, kind=ConnectionKind.WAVELENGTH
        )
        assert conn.state is ConnectionState.BLOCKED
        assert "single wavelength" in conn.blocked_reason

    def test_tiny_rate_is_packet(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 0.05)
        net.run()
        assert conn.state is ConnectionState.UP
        assert conn.kind is ConnectionKind.PACKET


class TestRaceyOperations:
    def test_teardown_during_setup_rejected(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        # Still SETTING_UP (or REQUESTED) — teardown is not legal yet.
        with pytest.raises(ConnectionStateError):
            svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.UP

    def test_double_teardown_rejected(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        svc.teardown_connection(conn.connection_id)
        with pytest.raises(ConnectionStateError):
            svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED

    def test_teardown_of_blocked_connection_rejected(self, net):
        tiny = net.service_for("tiny", max_connections=0)
        conn = tiny.request_connection("PREMISES-A", "PREMISES-C", 10)
        assert conn.state is ConnectionState.BLOCKED
        with pytest.raises(ConnectionStateError):
            tiny.teardown_connection(conn.connection_id)

    def test_teardown_of_failed_connection_works(self, net, svc):
        net.controller.auto_restore = False
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        net.controller.cut_link(lightpath.path[0], lightpath.path[1])
        assert conn.state is ConnectionState.FAILED
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert net.inventory.lightpaths == {}

    def test_cut_during_setup_recovers(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        # Cut the direct span 30 simulated seconds into the setup.
        net.sim.schedule(
            30.0, net.controller.cut_link, "ROADM-I", "ROADM-IV"
        )
        net.run()
        assert conn.state is ConnectionState.UP
        path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
        keys = {tuple(sorted(p)) for p in zip(path, path[1:])}
        assert ("ROADM-I", "ROADM-IV") not in keys

    def test_bridge_and_roll_during_restoration_rejected(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        net.controller.cut_link(lightpath.path[0], lightpath.path[1])
        # Restoration is in flight; the connection is not UP.
        assert conn.state is ConnectionState.RESTORING
        with pytest.raises(ResourceError):
            net.controller.migrations.move(conn.connection_id, "operator")
        net.run()
        assert conn.state is ConnectionState.UP

    def test_repeated_cut_repair_cycles(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        for _ in range(4):
            lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
            a, b = lightpath.path[0], lightpath.path[1]
            net.controller.cut_link(a, b)
            net.run()
            net.controller.repair_link(a, b)
            net.run()
        assert conn.state is ConnectionState.UP
        # Exactly one lightpath remains registered for this connection.
        owned = [
            lp
            for lp_id, lp in net.inventory.lightpaths.items()
            if net.controller._lightpath_conn.get(lp_id)
            == conn.connection_id
        ]
        assert len(owned) == 1


class TestBridgeRollRaces:
    def test_teardown_during_bridge_aborts_roll(self, net, svc):
        """A teardown landing mid-bridge must release the bridge cleanly
        (regression: used to crash and strand the bridge lightpath)."""
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        events = []
        net.controller.observers.append(
            lambda name, payload: events.append(name)
        )
        net.controller.migrations.move(conn.connection_id, "operator")
        net.sim.schedule(10.0, svc.teardown_connection, conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert net.inventory.lightpaths == {}
        assert "bridge-and-roll-aborted" in events
        for pool in net.inventory.transponders.values():
            assert not pool.held()

    def test_teardown_during_roll_hit_aborts_roll(self, net, svc):
        """A teardown landing inside the ~50 ms roll hit must leave the
        old path to the teardown and release the bridge (regression:
        used to re-tear the old lightpath and crash the workflow)."""
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        events = []
        net.controller.observers.append(
            lambda name, payload: events.append(name)
        )
        net.controller.migrations.move(conn.connection_id, "operator")
        fired = []

        def probe():
            if conn.outage_started_at is not None:  # inside the roll hit
                fired.append(net.sim.now)
                svc.teardown_connection(conn.connection_id)
            else:
                net.sim.schedule(0.01, probe)

        net.sim.schedule(0.01, probe)
        net.run()
        assert fired
        assert conn.state is ConnectionState.RELEASED
        assert net.inventory.lightpaths == {}
        assert "bridge-and-roll-aborted" in events
        for pool in net.inventory.transponders.values():
            assert not pool.held()

    def test_concurrent_bridge_and_roll_single_winner(self, net, svc):
        """Two overlapping bridge-and-rolls: the second is refused at the
        migration lock and builds no bridge (regression: the loser used
        to orphan the winner's bridge and re-tear the old lightpath)."""
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        events = []
        net.controller.observers.append(
            lambda name, payload: events.append(name)
        )
        net.controller.migrations.move(conn.connection_id, "operator")
        with pytest.raises(MigrationLockedError):
            net.controller.migrations.move(conn.connection_id, "operator")
        net.run()
        assert conn.state is ConnectionState.UP
        assert events.count("bridge-and-roll") == 1
        assert events.count("bridge-and-roll-aborted") == 0
        # Exactly one lightpath survives, and the connection owns it.
        assert set(net.inventory.lightpaths) == set(conn.lightpath_ids)
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert net.inventory.lightpaths == {}
        for pool in net.inventory.transponders.values():
            assert not pool.held()

    def test_cut_during_bridge_aborts_roll(self, net, svc):
        """A failure of the old path mid-bridge hands the connection to
        restoration; the half-built bridge must not survive as a ghost."""
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        old = net.inventory.lightpaths[conn.lightpath_ids[0]]
        net.controller.migrations.move(conn.connection_id, "operator")
        net.sim.schedule(
            10.0, net.controller.cut_link, old.path[0], old.path[1]
        )
        net.run()
        assert conn.state is ConnectionState.UP  # restoration won
        # Exactly one lightpath serves the connection; nothing stranded.
        lightpath_ids = set(net.inventory.lightpaths)
        owned = set(conn.lightpath_ids) | set(
            net.controller._line_lightpath.values()
        )
        assert lightpath_ids <= owned


class TestManualWorldRevival:
    def test_failed_connection_revives_on_repair(self, net, svc):
        net.controller.auto_restore = False
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        a, b = lightpath.path[0], lightpath.path[1]
        net.controller.cut_link(a, b)
        net.run(until=net.sim.now + 3600)
        assert conn.state is ConnectionState.FAILED
        net.controller.repair_link(a, b)
        assert conn.state is ConnectionState.UP
        assert conn.total_outage_s == pytest.approx(3600, rel=0.01)
