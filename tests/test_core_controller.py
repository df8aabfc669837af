"""Integration tests for the GRIPhoN controller on the Fig. 4 testbed."""

import pytest

from repro.core.connection import (
    CLAIM_NTE,
    CLAIM_NTE_SUB,
    ConnectionKind,
    ConnectionState,
)
from repro.errors import ResourceError
from repro.facade import build_griphon_testbed
from repro.optical import LightpathState
from repro.units import MINUTE, WEEK, gbps


@pytest.fixture
def net():
    """Deterministic testbed network."""
    return build_griphon_testbed(seed=1, latency_cv=0.0)


@pytest.fixture
def svc(net):
    return net.service_for("csp-alpha")


def bring_up(net, svc, a="PREMISES-A", b="PREMISES-C", rate=10, kind=None):
    conn = svc.request_connection(a, b, rate_gbps=rate, kind=kind)
    net.run()
    return conn


class TestWavelengthOrders:
    def test_setup_in_about_a_minute(self, net, svc):
        conn = bring_up(net, svc)
        assert conn.state is ConnectionState.UP
        assert conn.kind is ConnectionKind.WAVELENGTH
        assert 55 <= conn.setup_duration <= 75
        assert conn.setup_duration < 5 * MINUTE < WEEK

    def test_one_lightpath_allocated(self, net, svc):
        conn = bring_up(net, svc)
        assert len(conn.lightpath_ids) == 1
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        assert lightpath.state is LightpathState.UP
        assert lightpath.rate_bps == gbps(10)

    def test_nte_interfaces_claimed_both_ends(self, net, svc):
        conn = bring_up(net, svc)
        nte_claims = [
            entry for entry in conn.claims
            if entry[1] in (CLAIM_NTE, CLAIM_NTE_SUB)
        ]
        assert len(nte_claims) == 2
        for component, kind, premises, index in nte_claims:
            assert component == conn.lightpath_ids[0]
            assert kind == CLAIM_NTE
            nte = net.inventory.ntes[premises]
            assert nte.owner_of(index) == conn.connection_id
        assert {entry[2] for entry in nte_claims} == {"PREMISES-A", "PREMISES-C"}

    def test_teardown_about_ten_seconds(self, net, svc):
        conn = bring_up(net, svc)
        start = net.sim.now
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert 8 <= net.sim.now - start <= 15
        assert conn.lightpath_ids[0] not in net.inventory.lightpaths

    def test_forty_gig_wavelength(self, net, svc):
        conn = bring_up(net, svc, rate=40)
        assert conn.kind is ConnectionKind.WAVELENGTH
        assert conn.state is ConnectionState.UP

    def test_concurrent_orders_get_distinct_channels(self, net, svc):
        first = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        second = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        assert first.state is second.state is ConnectionState.UP
        lp1 = net.inventory.lightpaths[first.lightpath_ids[0]]
        lp2 = net.inventory.lightpaths[second.lightpath_ids[0]]
        if lp1.path == lp2.path:
            assert lp1.channels != lp2.channels


class TestSubWavelengthAndComposite:
    def test_one_gig_is_subwavelength(self, net, svc):
        conn = bring_up(net, svc, rate=1)
        assert conn.kind is ConnectionKind.SUBWAVELENGTH
        assert len(conn.circuit_ids) == 1
        assert not conn.lightpath_ids

    def test_subwavelength_faster_than_wavelength_once_lines_exist(
        self, net, svc
    ):
        # First 1G order stands up an OTN line (costs a wavelength setup).
        bring_up(net, svc, rate=1)
        start = net.sim.now
        second = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        assert second.state is ConnectionState.UP
        # Electronic-only reconfiguration: a few seconds, not a minute.
        assert net.sim.now - start < 10

    def test_paper_example_12g_composite(self, net, svc):
        """12G = one 10G wavelength + two 1G OTN circuits (paper §2.2)."""
        conn = bring_up(net, svc, rate=12)
        assert conn.kind is ConnectionKind.COMPOSITE
        assert len(conn.lightpath_ids) == 1
        assert len(conn.circuit_ids) == 2

    def test_forced_wavelength_kind(self, net, svc):
        conn = bring_up(net, svc, rate=3, kind=ConnectionKind.WAVELENGTH)
        assert conn.kind is ConnectionKind.WAVELENGTH
        assert not conn.circuit_ids

    def test_forced_subwavelength_kind(self, net, svc):
        conn = bring_up(net, svc, rate=3, kind=ConnectionKind.SUBWAVELENGTH)
        assert conn.kind is ConnectionKind.SUBWAVELENGTH
        assert len(conn.circuit_ids) == 3

    def test_composite_teardown_releases_all(self, net, svc):
        conn = bring_up(net, svc, rate=12)
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert all(c not in net.inventory.circuits for c in conn.circuit_ids)


class TestBlocking:
    def test_quota_block(self, net):
        svc = net.service_for("csp-tiny", max_connections=1)
        first = bring_up(net, svc)
        second = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
        assert second.state is ConnectionState.BLOCKED
        assert "quota" in second.blocked_reason
        assert first.state is ConnectionState.UP

    def test_resource_block_returns_quota(self, net):
        svc = net.service_for("csp-big", max_connections=64,
                              max_total_rate_gbps=10000)
        blocked = None
        for _ in range(40):
            conn = bring_up(net, svc, rate=10)
            if conn.state is ConnectionState.BLOCKED:
                blocked = conn
                break
        assert blocked is not None
        assert blocked.blocked_reason
        # Quota was refunded, so usage equals only the UP connections.
        ups = [
            c
            for c in svc.connections()
            if c.state is ConnectionState.UP
        ]
        assert svc.usage()["connections"] == len(ups)

    def test_unknown_connection(self, net):
        with pytest.raises(ResourceError):
            net.controller.connection("conn-999")


class TestRestoration:
    def test_fiber_cut_restores_in_about_a_minute(self, net, svc):
        conn = bring_up(net, svc)
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        a, b = lightpath.path[0], lightpath.path[1]
        cut_at = net.sim.now
        net.controller.cut_link(a, b)
        net.run()
        assert conn.state is ConnectionState.UP
        assert 30 <= conn.total_outage_s <= 120
        new_lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        assert new_lightpath.path != lightpath.path

    def test_restoration_avoids_failed_links(self, net, svc):
        conn = bring_up(net, svc)
        net.controller.cut_link("ROADM-I", "ROADM-IV")
        net.run()
        new_lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        keys = [
            tuple(sorted(pair))
            for pair in zip(new_lightpath.path, new_lightpath.path[1:])
        ]
        assert ("ROADM-I", "ROADM-IV") not in keys

    def test_no_restore_when_disabled(self):
        net = build_griphon_testbed(seed=1, latency_cv=0.0, auto_restore=False)
        svc = net.service_for("csp")
        conn = bring_up(net, svc)
        net.controller.cut_link("ROADM-I", "ROADM-IV")
        net.run()
        assert conn.state is ConnectionState.FAILED

    def test_repair_triggers_retry(self, net, svc):
        conn = bring_up(net, svc)
        # Cut every route so restoration blocks...
        net.controller.cut_link("ROADM-I", "ROADM-IV")
        net.controller.cut_link("ROADM-I", "ROADM-III")
        net.controller.cut_link("ROADM-I", "ROADM-II")
        net.run()
        assert conn.state is ConnectionState.FAILED
        # ...then repair one route and watch it come back.
        net.controller.repair_link("ROADM-I", "ROADM-III")
        net.run()
        assert conn.state is ConnectionState.UP

    def test_outage_far_shorter_than_manual_repair(self, net, svc):
        """Table 1: automated restoration vs 4-12 h manual outage."""
        conn = bring_up(net, svc)
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        net.controller.cut_link(lightpath.path[0], lightpath.path[1])
        net.run()
        assert conn.total_outage_s < (4 * 3600) / 100

    def test_subwavelength_restores_subsecond(self, net, svc):
        conn = bring_up(net, svc, rate=1)
        circuit = net.inventory.circuits[conn.circuit_ids[0]]
        line = net.inventory.otn_lines[circuit.line_ids[0]]
        lightpath_id = net.controller._line_lightpath[line.line_id]
        lightpath = net.inventory.lightpaths[lightpath_id]
        net.controller.cut_link(lightpath.path[0], lightpath.path[1])
        net.run()
        assert conn.total_outage_s < 1.0


class TestBridgeAndRoll:
    def test_hit_is_milliseconds(self, net, svc):
        conn = bring_up(net, svc)
        results = []
        net.controller.bridge_and_roll(
            conn.connection_id, on_settled=results.append
        )
        net.run()
        assert len(results) == 1
        assert results[0]["outcome"] == "completed"
        assert results[0]["hit_s"] == pytest.approx(0.050)
        assert conn.total_outage_s == pytest.approx(0.050)
        assert conn.state is ConnectionState.UP

    def test_new_path_is_disjoint(self, net, svc):
        conn = bring_up(net, svc)
        old = net.inventory.lightpaths[conn.lightpath_ids[0]]
        old_links = set(
            tuple(sorted(pair)) for pair in zip(old.path, old.path[1:])
        )
        results = []
        net.controller.bridge_and_roll(
            conn.connection_id, on_settled=results.append
        )
        net.run()
        new_path = results[0]["new_path"]
        new_links = set(
            tuple(sorted(pair)) for pair in zip(new_path, new_path[1:])
        )
        assert not (old_links & new_links)

    def test_old_lightpath_released(self, net, svc):
        conn = bring_up(net, svc)
        old_id = conn.lightpath_ids[0]
        net.controller.bridge_and_roll(conn.connection_id)
        net.run()
        assert old_id not in net.inventory.lightpaths
        assert conn.lightpath_ids[0] != old_id

    def test_rejects_non_up_connection(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        with pytest.raises(ResourceError):
            net.controller.bridge_and_roll(conn.connection_id)

    def test_rejects_subwavelength(self, net, svc):
        conn = bring_up(net, svc, rate=1)
        with pytest.raises(ResourceError):
            net.controller.bridge_and_roll(conn.connection_id)


class TestObservers:
    def test_events_emitted(self, net, svc):
        events = []
        net.controller.observers.append(lambda name, payload: events.append(name))
        conn = bring_up(net, svc)
        net.controller.cut_link("ROADM-I", "ROADM-IV")
        net.run()
        assert "up" in events
        assert "fiber-cut" in events
