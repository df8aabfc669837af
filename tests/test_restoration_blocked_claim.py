"""A restoration blocked at *claim* must stay restorable.

The controller plans the replacement route, releases the dead lightpath
(the replacement may need its transponders and channels), and only then
claims.  When that claim is refused — here the only alternative route
needs a regenerator at a site with none free — the connection used to
be left FAILED naming a lightpath the inventory no longer had: every
later repair returned early, the connection could never come back, and
the auditor reported ``dangling-lightpath``.  Found on ``mono-churn
--seed 11 --scale 1.0`` (conn-1490, conn-1754).
"""

from repro.core.connection import CLAIM_FXC, ConnectionState
from repro.facade import GriphonNetwork, build_griphon_testbed
from repro.faults import FaultPlan, FaultSpec, audit_network
from repro.topo import Link, NetworkGraph, Node
from repro.units import gbps

POPS = ("A", "B", "C", "D", "M")


def detour_network(with_otn=False):
    """A-B direct, or A-M-B over two 2000 km spans: a 10G regen at M.

    M has one regenerator, and C-M-D (the only C-D route, also two
    2000 km spans) needs it too.
    """
    graph = NetworkGraph()
    for pop in POPS:
        graph.add_node(Node(pop, kind="roadm"))
        graph.add_node(Node(f"DC-{pop}", kind="premises"))
    graph.add_link(Link("A", "B", length_km=500.0))
    for end in ("A", "B", "C", "D"):
        graph.add_link(Link(end, "M", length_km=2000.0))
    for pop in POPS:
        graph.add_link(Link(f"DC-{pop}", pop, length_km=1.0))
    net = GriphonNetwork(graph, seed=3, grid_size=8, latency_cv=0.0)
    inv = net.inventory
    for pop in POPS:
        inv.install_roadm(pop, add_drop_ports=8)
        inv.install_transponders(pop, gbps(10), 4)
        inv.install_fxc(pop, port_count=8)
        if with_otn:
            inv.install_otn_switch(pop, client_ports=8)
        inv.install_nte(
            f"DC-{pop}", pop, interface_rate_bps=gbps(10), interface_count=4
        )
    inv.install_regens("M", gbps(10), 1)
    return net.finish_build()


def fxc_claims(connection):
    """``(site, port)`` of each FXC pair in the connection's ledger."""
    return [entry[2:] for entry in connection.claims if entry[1] == CLAIM_FXC]


def ot_labels(net, connection):
    """The transponder-side FXC labels of a connection's steering."""
    labels = []
    for site, port in fxc_claims(connection):
        fxc = net.inventory.fxcs[site]
        labels.append(fxc.port_label(fxc.peer_of(port)))
    return labels


def block_restoration_at_claim(net, svc):
    """Light C-D (takes M's regen) and A-B, then cut A-B."""
    regen_holder = svc.request_connection("DC-C", "DC-D", 10)
    victim = svc.request_connection("DC-A", "DC-B", 10)
    net.run()
    assert regen_holder.state is ConnectionState.UP
    assert victim.state is ConnectionState.UP
    assert net.inventory.lightpaths[victim.lightpath_ids[0]].path == ["A", "B"]
    net.controller.cut_link("A", "B")
    net.run()
    assert net.metrics.counter("restoration.blocked") == 1
    assert victim.state is ConnectionState.FAILED
    return regen_holder, victim


def test_blocked_claim_leaves_a_clean_restorable_connection():
    net = detour_network()
    svc = net.service_for("csp")
    regen_holder, victim = block_restoration_at_claim(net, svc)
    # Nothing dangling, nothing leaked: the dead path is released and
    # the refused claim rolled back.
    report = audit_network(net.controller)
    assert report.ok, str(report)
    assert victim.lightpath_ids == []
    assert list(net.inventory.lightpaths) == regen_holder.lightpath_ids
    # Free the regenerator; the next repair retries and succeeds.  The
    # repaired link is not the victim's, so it has to take the detour.
    svc.teardown_connection(regen_holder.connection_id)
    net.run()
    net.controller.cut_link("C", "M")
    net.controller.repair_link("C", "M")
    assert victim.state is ConnectionState.RESTORING
    net.run()
    assert victim.state is ConnectionState.UP
    lightpath = net.inventory.lightpaths[victim.lightpath_ids[0]]
    assert lightpath.path == ["A", "M", "B"]
    assert lightpath.regen_sites == ["M"]
    assert ot_labels(net, victim) == lightpath.ot_ids
    assert net.metrics.counter("restoration.success") == 1
    assert victim.outage_started_at is None
    assert audit_network(net.controller).ok
    svc.teardown_connection(victim.connection_id)
    net.run()
    assert victim.state is ConnectionState.RELEASED
    assert audit_network(net.controller).ok


def test_blocked_connection_tears_down_clean():
    net = detour_network()
    svc = net.service_for("csp")
    _, victim = block_restoration_at_claim(net, svc)
    svc.teardown_connection(victim.connection_id)
    net.run()
    assert victim.state is ConnectionState.RELEASED
    assert audit_network(net.controller).ok
    # A released connection is not retried by a later repair.
    net.controller.repair_link("A", "B")
    net.run()
    assert victim.state is ConnectionState.RELEASED
    assert net.metrics.counter("restoration.success") == 0


def test_retry_relabels_its_own_steering_only():
    """While the victim holds nothing its old transponders are free for
    others; the retry must not relabel a stranger's FXC port that now
    names one of them."""
    net = detour_network(with_otn=True)
    svc = net.service_for("csp")
    # A 1G circuit takes A's first FXC pair but no transponder of its
    # own (the OTN lines it rides hold theirs without steering), so
    # once it is gone the low ports are free and the low OTs are not.
    early = svc.request_connection("DC-A", "DC-M", 1)
    net.run()
    regen_holder, victim = block_restoration_at_claim(net, svc)
    victim_ports = fxc_claims(victim)
    old_labels = ot_labels(net, victim)
    svc.teardown_connection(early.connection_id)
    net.run()
    # The stranger gets the victim's old OT at A on a lower FXC port.
    stranger = svc.request_connection("DC-A", "DC-M", 10)
    net.run()
    assert stranger.state is ConnectionState.UP
    stranger_ots = net.inventory.lightpaths[stranger.lightpath_ids[0]].ot_ids
    assert stranger_ots[0] == old_labels[0]
    assert fxc_claims(stranger)[0] < victim_ports[0]
    assert ot_labels(net, stranger) == stranger_ots
    svc.teardown_connection(regen_holder.connection_id)
    net.run()
    net.controller.repair_link("A", "B")
    net.run()
    assert victim.state is ConnectionState.UP
    lightpath = net.inventory.lightpaths[victim.lightpath_ids[0]]
    assert ot_labels(net, victim) == lightpath.ot_ids
    assert ot_labels(net, stranger) == stranger_ots
    assert audit_network(net.controller).ok


def test_aborted_restoration_is_retried_by_the_next_repair():
    """The other way a restoration leaves FAILED with no lightpath: the
    replacement's setup saga gave up and rolled it back.  The rolled-back
    record waits in ``_unrestored`` like a blocked claim's dead path, so
    the next repair retries instead of returning at "names nothing"."""
    net = build_griphon_testbed(seed=7, fault_plan=FaultPlan())
    svc = net.service_for("acme")
    victim = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
    net.run()
    assert victim.state is ConnectionState.UP
    path = net.inventory.lightpaths[victim.lightpath_ids[0]].path
    cut = next(
        (a, b) for a, b in zip(path, path[1:])
        if not (a.startswith("PREMISES") or b.startswith("PREMISES"))
    )
    # Every EMS command fails hard for the next ten minutes.
    now = net.sim.now
    net.controller.fault_plan.add(
        FaultSpec(mode="fail", after_s=now, until_s=now + 600.0)
    )
    net.controller.cut_link(*cut)
    net.run()
    assert net.metrics.counter("restoration.aborted") == 1
    assert victim.state is ConnectionState.FAILED
    assert victim.lightpath_ids == []
    assert not net.inventory.lightpaths
    assert audit_network(net.controller).ok
    # The faults are over by the time the fiber is spliced.
    net.sim.schedule(700.0, net.controller.repair_link, *cut)
    net.run()
    assert victim.state is ConnectionState.UP
    assert net.metrics.counter("restoration.success") == 1
    lightpath = net.inventory.lightpaths[victim.lightpath_ids[0]]
    assert ot_labels(net, victim) == lightpath.ot_ids
    assert victim.outage_started_at is None
    assert audit_network(net.controller).ok
    svc.teardown_connection(victim.connection_id)
    net.run()
    assert victim.state is ConnectionState.RELEASED
    assert svc.usage()["connections"] == 0
    assert audit_network(net.controller).ok
