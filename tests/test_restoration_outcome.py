"""The restoration span says why a restoration left its connection FAILED.

A restoration that does not bring its connection back UP tags its
``restoration`` span with one ``outcome``: ``aborted`` (a replacement's
setup saga rolled it back), ``re-failed`` (a replacement was cut while
it was set up) or ``blocked`` (a component found no replacement while a
sibling's was set up).  The state and counters these paths leave are
checked elsewhere; this file pins the tag that names which one ran.
"""

from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.faults.plan import FaultPlan, FaultSpec

from tests.test_restoration_blocked_claim import detour_network, twenty_gig


def outcomes(net):
    """Each ``restoration`` span's ``outcome`` tag, in start order."""
    return [span.tags["outcome"] for span in net.tracer.spans("restoration")]


def cut_first_span(net, conn):
    """Cut the first link of the connection's first lightpath."""
    path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
    net.controller.cut_link(path[0], path[1])


def test_a_rolled_back_replacement_is_aborted():
    # Every EMS command fails hard for ten minutes from when the order
    # is up, a time a fault-free twin of the same seed supplies.
    twin = build_griphon_testbed(seed=7)
    twin.service_for("acme").request_connection("PREMISES-A", "PREMISES-B", 10)
    twin.run()
    up = twin.sim.now
    plan = FaultPlan([FaultSpec(mode="fail", after_s=up, until_s=up + 600.0)])
    net = build_griphon_testbed(seed=7, fault_plan=plan, tracing=True)
    conn = net.service_for("acme").request_connection("PREMISES-A", "PREMISES-B", 10)
    net.run()
    assert conn.state is ConnectionState.UP
    assert net.sim.now == up
    path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
    net.controller.cut_link(
        *next(
            (a, b) for a, b in zip(path, path[1:])
            if not (a.startswith("PREMISES") or b.startswith("PREMISES"))
        )
    )
    net.run()
    assert conn.state is ConnectionState.FAILED
    assert outcomes(net) == ["aborted"]


def test_a_replacement_cut_while_restoring_re_failed():
    net = build_griphon_testbed(seed=1, tracing=True)
    conn = net.service_for("csp").request_connection("PREMISES-A", "PREMISES-B", 10)
    net.run()
    cut_first_span(net, conn)
    net.run(until=net.sim.now + 5.0)
    assert conn.state is ConnectionState.RESTORING
    cut_first_span(net, conn)  # the replacement, midway through setup
    net.run()
    assert outcomes(net)[0] == "re-failed"


def test_a_sibling_without_a_replacement_leaves_the_restoration_blocked():
    net = detour_network()
    net.tracer.enable()
    _, conn = twenty_gig(net, "DC-A", "DC-B", ("A", "B"))
    net.controller.cut_link("A", "B")
    net.run()
    assert conn.state is ConnectionState.FAILED
    assert net.metrics.counter("restoration.blocked") == 1
    assert outcomes(net) == ["blocked"]
