"""Property-based integration tests: no resource leaks, ever.

Drives the controller with random sequences of operations — orders at
random rates, teardowns, fiber cuts, repairs, time advancement — then
releases everything and checks the global conservation invariant: apart
from the OTN lines the carrier keeps as infrastructure, every wavelength
channel, transponder, regenerator, NTE interface, and tributary slot is
back in the free pool, and every customer's quota reads zero.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed

#: Links of the testbed core that operations may cut/repair.
CORE_LINKS = [
    ("ROADM-I", "ROADM-IV"),
    ("ROADM-I", "ROADM-III"),
    ("ROADM-III", "ROADM-IV"),
    ("ROADM-I", "ROADM-II"),
    ("ROADM-II", "ROADM-III"),
]

PAIRS = [
    ("PREMISES-A", "PREMISES-B"),
    ("PREMISES-A", "PREMISES-C"),
    ("PREMISES-B", "PREMISES-C"),
]

operation = st.one_of(
    st.tuples(
        st.just("request"),
        st.integers(min_value=0, max_value=2),  # pair index
        st.sampled_from([0.3, 1, 3, 10, 12, 40]),  # rate in Gbps
    ),
    st.tuples(st.just("teardown"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("cut"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("repair"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=600)),
    st.tuples(st.just("bridge"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("maintenance"), st.integers(min_value=0, max_value=4)),
)


def teardown_everything(net, svc):
    """Settle the sim, tear down all live connections, repair all links."""
    net.run()
    for a, b in CORE_LINKS:
        net.controller.repair_link(a, b)
    net.run()
    closable = (
        ConnectionState.UP,
        ConnectionState.DEGRADED,
        ConnectionState.FAILED,
        ConnectionState.RESTORING,
    )
    for conn in list(svc.connections()):
        if conn.state in closable:
            svc.teardown_connection(conn.connection_id)
    net.run()


def assert_no_leaks(net):
    """All resources free except those held by carrier OTN lines."""
    controller = net.controller
    # The lightpaths carrying standing OTN lines are infrastructure.
    line_lightpath_ids = set(controller._line_lightpath.values())
    assert set(net.inventory.lightpaths) == line_lightpath_ids
    # Channels: every lit channel belongs to a line lightpath.
    for link in net.inventory.graph.links:
        dwdm = net.inventory.plant.dwdm_link(link.a, link.b)
        for channel in dwdm.occupied_channels:
            assert dwdm.owner_of(channel) in line_lightpath_ids
    # Transponders and regens.
    for pool in net.inventory.transponders.values():
        for ot in pool.held():
            assert ot.owner in line_lightpath_ids
    for pool in net.inventory.regens.values():
        for regen in pool.held():
            assert regen.owner in line_lightpath_ids
    # OTN tributary slots: no released circuit may hold any.
    for line in net.inventory.otn_lines.values():
        assert line.owners() <= set(net.inventory.circuits)
    assert net.inventory.circuits == {}
    # NTE interfaces.
    for nte in net.inventory.ntes.values():
        assert len(nte.free_interfaces()) == nte.interface_count
    # FXC steering and OTN client ports.
    for fxc in net.inventory.fxcs.values():
        assert fxc.connections() == []
    for switch in net.inventory.otn_switches.values():
        assert len(switch.free_client_ports()) == switch.client_port_count


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(operation, max_size=25))
def test_random_operations_never_leak_resources(ops):
    net = build_griphon_testbed(seed=1234, latency_cv=0.0, nte_interfaces=12)
    svc = net.service_for("csp", max_connections=64, max_total_rate_gbps=10000)
    for op in ops:
        kind = op[0]
        if kind == "request":
            _, pair_index, rate = op
            a, b = PAIRS[pair_index]
            svc.request_connection(a, b, rate)
        elif kind == "teardown":
            _, index = op
            net.run()
            live = [
                c
                for c in svc.connections()
                if c.state is ConnectionState.UP
            ]
            if live:
                svc.teardown_connection(
                    live[index % len(live)].connection_id
                )
        elif kind == "cut":
            _, index = op
            a, b = CORE_LINKS[index % len(CORE_LINKS)]
            if (tuple(sorted((a, b)))) not in net.inventory.plant.failed_links():
                net.controller.cut_link(a, b)
        elif kind == "repair":
            _, index = op
            a, b = CORE_LINKS[index % len(CORE_LINKS)]
            net.controller.repair_link(a, b)
        elif kind == "advance":
            _, seconds = op
            net.run(until=net.sim.now + seconds)
        elif kind == "bridge":
            _, index = op
            from repro.errors import GriphonError

            live = [
                c
                for c in svc.connections()
                if c.state is ConnectionState.UP and len(c.lightpath_ids) == 1
                and not c.circuit_ids and not c.evc_ids
            ]
            if live:
                try:
                    net.controller.migrations.move(
                        live[index % len(live)].connection_id, "operator"
                    )
                except GriphonError:
                    pass  # no disjoint path right now: fine
        elif kind == "maintenance":
            _, index = op
            a, b = CORE_LINKS[index % len(CORE_LINKS)]
            if tuple(sorted((a, b))) not in net.inventory.plant.failed_links():
                net.maintenance.schedule(
                    a, b, start_in=300.0, duration=600.0
                )
    teardown_everything(net, svc)
    assert_no_leaks(net)


@settings(max_examples=10, deadline=None)
@given(
    rates=st.lists(
        st.sampled_from([1, 3, 10, 12, 40]), min_size=1, max_size=6
    )
)
def test_sequential_orders_always_settle(rates):
    """Any mix of rates either comes UP or is cleanly BLOCKED."""
    net = build_griphon_testbed(seed=77, latency_cv=0.0, nte_interfaces=12)
    svc = net.service_for("csp", max_connections=64, max_total_rate_gbps=10000)
    for i, rate in enumerate(rates):
        a, b = PAIRS[i % len(PAIRS)]
        svc.request_connection(a, b, rate)
    net.run()
    for conn in svc.connections():
        assert conn.state in (ConnectionState.UP, ConnectionState.BLOCKED)
        if conn.state is ConnectionState.BLOCKED:
            assert conn.blocked_reason
        else:
            assert conn.setup_duration > 0


@settings(max_examples=10, deadline=None)
@given(
    cut_order=st.permutations([0, 1, 2, 3, 4]),
    repair_order=st.permutations([0, 1, 2, 3, 4]),
)
def test_cut_all_repair_all_restores_service(cut_order, repair_order):
    """After any cut/repair ordering, a connection ends up UP again."""
    net = build_griphon_testbed(seed=88, latency_cv=0.0)
    svc = net.service_for("csp")
    conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
    net.run()
    for index in cut_order:
        net.controller.cut_link(*CORE_LINKS[index])
    net.run()
    for index in repair_order:
        net.controller.repair_link(*CORE_LINKS[index])
    net.run()
    assert conn.state is ConnectionState.UP
    lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
    assert net.inventory.plant.path_is_up(lightpath.path)
