"""Tests for the IP layer: adjacencies, EVC routing, reroute, and the
controller's cross-layer integration."""

import pytest

from repro.core.connection import ConnectionKind, ConnectionState
from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    NoPathError,
    ResourceError,
)
from repro.facade import build_griphon_testbed
from repro.iplayer.evc import EvcState
from repro.iplayer.network import IpLayer
from repro.units import gbps, mbps


@pytest.fixture
def ip():
    """A triangle A-B-C plus a spur C-D."""
    layer = IpLayer()
    for node in "ABCD":
        layer.add_router(node)
    layer.add_adjacency("A", "B", capacity_bps=gbps(10))
    layer.add_adjacency("B", "C", capacity_bps=gbps(10))
    layer.add_adjacency("A", "C", capacity_bps=gbps(10))
    layer.add_adjacency("C", "D", capacity_bps=gbps(10))
    return layer


class TestConstruction:
    def test_duplicate_router(self, ip):
        with pytest.raises(ConfigurationError):
            ip.add_router("A")

    def test_adjacency_needs_routers(self):
        layer = IpLayer()
        layer.add_router("A")
        with pytest.raises(ConfigurationError):
            layer.add_adjacency("A", "B", capacity_bps=gbps(1))

    def test_self_adjacency_rejected(self, ip):
        with pytest.raises(ConfigurationError):
            ip.add_adjacency("A", "A", capacity_bps=gbps(1))

    def test_duplicate_adjacency_rejected(self, ip):
        with pytest.raises(ConfigurationError):
            ip.add_adjacency("B", "A", capacity_bps=gbps(1))

    def test_bad_parameters(self, ip):
        with pytest.raises(ConfigurationError):
            ip.add_adjacency("A", "D", capacity_bps=0)
        with pytest.raises(ConfigurationError):
            ip.add_adjacency("A", "D", capacity_bps=gbps(1),
                             oversubscription=0.5)

    def test_oversubscription_multiplies_sellable(self, ip):
        adjacency = ip.adjacency("A", "B")
        assert adjacency.sellable_bps == gbps(20)


class TestRouting:
    def test_shortest_by_hops(self, ip):
        assert ip.route("A", "C", mbps(100)) == ["A", "C"]

    def test_detour_when_direct_full(self, ip):
        ip.adjacency("A", "C").reserve("hog", gbps(20))
        assert ip.route("A", "C", mbps(100)) == ["A", "B", "C"]

    def test_no_path_when_everything_full(self, ip):
        ip.adjacency("A", "C").reserve("hog1", gbps(20))
        ip.adjacency("A", "B").reserve("hog2", gbps(20))
        with pytest.raises(NoPathError):
            ip.route("A", "C", mbps(100))

    def test_unknown_router(self, ip):
        with pytest.raises(ConfigurationError):
            ip.route("A", "Z", mbps(1))

    def test_widest_tiebreak(self, ip):
        # Two 2-hop routes... make direct full and load B differently.
        ip.adjacency("A", "C").reserve("hog", gbps(20))
        ip.adjacency("A", "B").reserve("partial", gbps(15))
        # Only one 2-hop option here, but the bottleneck logic must not
        # crash and must still find it.
        assert ip.route("A", "C", mbps(100)) == ["A", "B", "C"]


class TestEvcs:
    def test_provision_reserves_per_hop(self, ip):
        evc = ip.provision_evc("A", "C", mbps(200))
        assert evc.state is EvcState.UP
        assert ip.adjacency("A", "C").reserved_bps == mbps(200)

    def test_release_returns_bandwidth(self, ip):
        evc = ip.provision_evc("A", "C", mbps(200))
        ip.release_evc(evc.evc_id)
        assert ip.adjacency("A", "C").reserved_bps == 0
        assert evc.state is EvcState.RELEASED

    def test_release_unknown(self, ip):
        with pytest.raises(ResourceError):
            ip.release_evc("evc-ghost")

    def test_rate_must_be_positive(self, ip):
        with pytest.raises(ConfigurationError):
            ip.provision_evc("A", "C", 0)

    def test_double_reserve_same_owner_rejected(self, ip):
        adjacency = ip.adjacency("A", "B")
        adjacency.reserve("x", mbps(1))
        with pytest.raises(ResourceError):
            adjacency.reserve("x", mbps(1))

    def test_capacity_exceeded(self, ip):
        adjacency = ip.adjacency("A", "B")
        with pytest.raises(CapacityExceededError):
            adjacency.reserve("x", gbps(25))

    def test_release_without_reservation(self, ip):
        with pytest.raises(ResourceError):
            ip.adjacency("A", "B").release("ghost")


class TestFailureHandling:
    def test_fail_adjacency_lists_riders(self, ip):
        evc = ip.provision_evc("A", "C", mbps(200))
        affected = ip.fail_adjacency("A", "C")
        assert affected == [evc]

    def test_reroute_is_fast_and_moves_path(self, ip):
        evc = ip.provision_evc("A", "C", mbps(200))
        ip.fail_adjacency("A", "C")
        outage = ip.reroute_evc(evc.evc_id)
        assert outage < 1.0
        assert evc.path == ["A", "B", "C"]
        assert evc.reroute_count == 1
        assert ip.adjacency("A", "C").reserved_bps == 0

    def test_reroute_without_capacity_goes_down(self, ip):
        evc = ip.provision_evc("A", "C", mbps(200))
        ip.fail_adjacency("A", "C")
        ip.adjacency("A", "B").reserve("hog", gbps(20))
        with pytest.raises(NoPathError):
            ip.reroute_evc(evc.evc_id)
        assert evc.state is EvcState.DOWN

    def test_repair_and_reroute_recovers(self, ip):
        evc = ip.provision_evc("A", "C", mbps(200))
        ip.fail_adjacency("A", "C")
        ip.adjacency("A", "B").reserve("hog", gbps(20))
        with pytest.raises(NoPathError):
            ip.reroute_evc(evc.evc_id)
        ip.repair_adjacency("A", "C")
        ip.reroute_evc(evc.evc_id)
        assert evc.state is EvcState.UP


class TestControllerIntegration:
    @pytest.fixture
    def net(self):
        return build_griphon_testbed(seed=41, latency_cv=0.0)

    def test_sub_gig_order_becomes_evc(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 0.2)
        net.run()
        assert conn.state is ConnectionState.UP
        assert conn.kind is ConnectionKind.PACKET
        assert len(conn.evc_ids) == 1
        assert not conn.lightpath_ids and not conn.circuit_ids

    def test_evc_setup_is_seconds_not_minutes(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 0.2)
        net.run()
        assert conn.setup_duration < 10

    def test_forced_packet_kind(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection(
            "PREMISES-A", "PREMISES-C", 0.5, kind=ConnectionKind.PACKET
        )
        net.run()
        assert conn.kind is ConnectionKind.PACKET

    def test_packet_without_ip_layer_blocked(self):
        net = build_griphon_testbed(seed=41, latency_cv=0.0, with_ip=False)
        svc = net.service_for("csp")
        conn = svc.request_connection(
            "PREMISES-A", "PREMISES-C", 0.5, kind=ConnectionKind.PACKET
        )
        assert conn.state is ConnectionState.BLOCKED

    def test_teardown_releases_evc(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 0.2)
        net.run()
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert net.controller.ip_layer.evcs == []

    def test_fiber_cut_reroutes_evc_subsecond(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 0.2)
        net.run()
        evc = net.controller.ip_layer.evcs[0]
        a, b = evc.path[0], evc.path[1]
        net.controller.cut_link(a, b)
        net.run()
        assert conn.state is ConnectionState.UP
        assert 0 < conn.total_outage_s < 1.0
        assert evc.reroute_count == 1

    def test_total_isolation_failure_then_repair(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 0.2)
        net.run()
        net.controller.auto_restore = False
        for pair in (
            ("ROADM-I", "ROADM-IV"),
            ("ROADM-I", "ROADM-III"),
            ("ROADM-I", "ROADM-II"),
        ):
            net.controller.cut_link(*pair)
        net.run()
        assert conn.state is ConnectionState.FAILED
        net.controller.repair_link("ROADM-I", "ROADM-III")
        net.run()
        assert conn.state is ConnectionState.UP
