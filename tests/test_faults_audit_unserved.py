"""The auditor flags a connection in service that nothing carries.

A connection that reads UP or DEGRADED while every lightpath it holds is
FAILED, and no circuit or EVC carries it, promises the customer a service
the network is not delivering.  No resource leaks in that state, so the
hardware passes alone cannot see it; ``unserved-connection`` does.  A
real fiber cut fails the lightpath and its connection in the same
instant, so a cut — restored or not — never trips the rule.

Two states of a connection with several lightpaths hid a restoration
that replaced only the first of them: one of its lightpaths FAILED
while it reads UP (``failed-lightpath-in-service``), and a registered
lightpath the cut index assigns to a connection that no longer lists
it (``misindexed-lightpath``).
"""

import pytest

from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.faults.audit import audit_network
from repro.faults.plan import FaultPlan, FaultSpec
from repro.optical.lightpath import LightpathState


def _up_connection(auto_restore=True):
    net = build_griphon_testbed(seed=1, latency_cv=0.0, auto_restore=auto_restore)
    conn = net.service_for("acme").request_connection(
        "PREMISES-A", "PREMISES-C", 10
    )
    net.run()
    assert conn.state is ConnectionState.UP
    return net, conn


def _kinds(net):
    return [violation.kind for violation in audit_network(net.controller).violations]


def test_up_connection_on_a_failed_lightpath_is_unserved():
    net, conn = _up_connection()
    assert conn.lightpath_ids == ["lp-0"]
    net.controller.inventory.lightpaths["lp-0"].transition(LightpathState.FAILED)
    report = audit_network(net.controller)
    assert [(v.kind, v.owner) for v in report.violations] == [
        ("unserved-connection", conn.connection_id)
    ]
    assert "every lightpath FAILED" in str(report)


@pytest.mark.parametrize("auto_restore", [True, False])
def test_a_cut_fails_the_connection_with_its_lightpath(auto_restore):
    net, conn = _up_connection(auto_restore)
    lightpath = net.controller.inventory.lightpaths[conn.lightpath_ids[0]]
    net.controller.cut_link(*lightpath.path[:2])
    assert conn.state is not ConnectionState.UP
    assert _kinds(net) == []
    net.run()
    assert _kinds(net) == []


def _twenty_gig_connection():
    net = build_griphon_testbed(seed=1, latency_cv=0.0)
    conn = net.service_for("acme").request_connection(
        "PREMISES-A", "PREMISES-B", 20
    )
    net.run()
    assert conn.state is ConnectionState.UP
    assert conn.lightpath_ids == ["lp-0", "lp-1"]
    assert _kinds(net) == []
    return net, conn


def test_up_connection_naming_one_failed_lightpath_is_flagged():
    net, conn = _twenty_gig_connection()
    net.controller.inventory.lightpaths["lp-1"].transition(LightpathState.FAILED)
    report = audit_network(net.controller)
    assert [(v.kind, v.owner) for v in report.violations] == [
        ("failed-lightpath-in-service", conn.connection_id)
    ]
    assert "naming FAILED lightpath lp-1" in str(report)


def test_a_lightpath_indexed_to_a_connection_that_does_not_list_it_is_flagged():
    net, conn = _twenty_gig_connection()
    conn.lightpath_ids.remove("lp-1")
    report = audit_network(net.controller)
    assert [(v.kind, v.resource, v.owner) for v in report.violations] == [
        ("misindexed-lightpath", "lightpath lp-1", conn.connection_id)
    ]



def test_a_cut_during_a_composite_partial_setup_fails_and_restores():
    """A 12G order whose OTN circuit aborts settles DEGRADED on its
    wavelength; if a cut took that wavelength while the circuit was
    setting up, it fails at settle and is restored like any cut."""
    net = build_griphon_testbed(
        seed=7, fault_plan=FaultPlan([FaultSpec(ems="otn_ems", mode="fail")])
    )
    conn = net.service_for("acme").request_connection("PREMISES-A", "PREMISES-B", 12)
    lightpaths = net.controller.inventory.lightpaths
    while not (
        conn.lightpath_ids
        and lightpaths[conn.lightpath_ids[-1]].state is LightpathState.UP
    ):
        assert net.sim.step()
    assert conn.state is ConnectionState.SETTING_UP
    net.controller.cut_link(*lightpaths[conn.lightpath_ids[-1]].path[:2])
    net.run()
    assert net.metrics.counters()["otn.circuit.setup_aborted"] >= 1
    assert _kinds(net) == []
    assert conn.state is ConnectionState.UP
    assert net.metrics.counters()["restoration.success"] == 1
