"""Tests for the FXC steering state recorded per connection (Fig. 3)."""

import pytest

from repro.core.connection import CLAIM_FXC, CLAIM_OTN_PORT, ConnectionState
from repro.facade import build_griphon_testbed


def held(conn, kind):
    """``(site, port)`` of each ledger entry of ``kind``, in claim order."""
    return [entry[2:] for entry in conn.claims if entry[1] == kind]


def components(conn, kind):
    return [entry[0] for entry in conn.claims if entry[1] == kind]


@pytest.fixture
def net():
    return build_griphon_testbed(seed=81, latency_cv=0.0)


@pytest.fixture
def svc(net):
    return net.service_for("csp")


class TestWavelengthSteering:
    def test_fxc_connects_access_to_ot(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        # At each end PoP the FXC holds one cross-connect whose far port
        # is labeled with the transponder serving this lightpath.
        assert len(held(conn, CLAIM_FXC)) == 2
        assert components(conn, CLAIM_FXC) == [lightpath.lightpath_id] * 2
        for (site, port), ot_id in zip(held(conn, CLAIM_FXC), lightpath.ot_ids):
            fxc = net.inventory.fxcs[site]
            peer = fxc.peer_of(port)
            assert peer is not None
            assert fxc.port_label(peer) == ot_id
            assert fxc.port_label(port) == f"access:{conn.connection_id}"

    def test_teardown_frees_fxc_ports(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        svc.teardown_connection(conn.connection_id)
        net.run()
        for fxc in net.inventory.fxcs.values():
            assert fxc.connections() == []
        assert conn.claims == []


class TestSubWavelengthSteering:
    def test_fxc_connects_access_to_otn_client_port(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        assert len(held(conn, CLAIM_OTN_PORT)) == 2
        assert components(conn, CLAIM_OTN_PORT) == conn.circuit_ids * 2
        for node, port in held(conn, CLAIM_OTN_PORT):
            switch = net.inventory.otn_switches[node]
            assert port not in switch.free_client_ports()

    def test_teardown_frees_otn_client_ports(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        svc.teardown_connection(conn.connection_id)
        net.run()
        for switch in net.inventory.otn_switches.values():
            assert len(switch.free_client_ports()) == switch.client_port_count
        assert conn.claims == []


class TestSteeringFollowsMigrations:
    def test_bridge_and_roll_relabels_to_new_ots(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        old = net.inventory.lightpaths[conn.lightpath_ids[0]]
        old_ots = list(old.ot_ids)
        net.controller.migrations.move(conn.connection_id, "operator")
        net.run()
        new = net.inventory.lightpaths[conn.lightpath_ids[0]]
        assert new.ot_ids != old_ots
        assert {entry[0] for entry in conn.claims} == {new.lightpath_id}
        for (site, port), new_ot in zip(held(conn, CLAIM_FXC), new.ot_ids):
            fxc = net.inventory.fxcs[site]
            assert fxc.port_label(fxc.peer_of(port)) == new_ot

    def test_restoration_relabels_to_new_ots(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        net.controller.cut_link(lightpath.path[0], lightpath.path[1])
        net.run()
        assert conn.state is ConnectionState.UP
        replacement = net.inventory.lightpaths[conn.lightpath_ids[0]]
        assert {entry[0] for entry in conn.claims} == {replacement.lightpath_id}
        for (site, port), ot_id in zip(
            held(conn, CLAIM_FXC), replacement.ot_ids
        ):
            fxc = net.inventory.fxcs[site]
            assert fxc.port_label(fxc.peer_of(port)) == ot_id

    def test_composite_uses_both_steering_targets(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 12)
        net.run()
        # One wavelength cross-connect pair per end + one OTN pair per
        # end per circuit (2 circuits) = 2 + 4 FXC records.
        assert len(held(conn, CLAIM_FXC)) == 6
        assert len(held(conn, CLAIM_OTN_PORT)) == 4
