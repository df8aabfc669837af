"""A teardown ordered during a restoration takes effect when it settles.

``teardown_connection`` on a RESTORING connection used to start the
teardown workflow at once; the replacement lightpath was midway through
its EMS steps, so the workflow raised ``ConnectionStateError: lightpath
lp-1: cannot go setting_up -> tearing_down`` out of the kernel.  The
order is now held until the restoration workflow settles — restored,
aborted or cut again — and the teardown starts from there.
"""

import pytest

from repro.core.connection import ConnectionState
from repro.errors import ConnectionStateError
from repro.facade import build_griphon_testbed
from repro.faults.audit import audit_network
from repro.faults.plan import FaultPlan, FaultSpec

PAIR = ("PREMISES-A", "PREMISES-B")


def restoring_connection(plan=None):
    """An UP connection whose route was just cut: 5 s into RESTORING."""
    net = build_griphon_testbed(seed=1, fault_plan=plan)
    svc = net.service_for("csp")
    conn = svc.request_connection(*PAIR, 10)
    net.run()
    assert conn.state is ConnectionState.UP
    path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
    net.controller.cut_link(path[0], path[1])
    net.run(until=net.sim.now + 5.0)
    assert conn.state is ConnectionState.RESTORING
    return net, svc, conn


def assert_released_clean(net, svc, conn):
    assert conn.state is ConnectionState.RELEASED
    assert not net.inventory.lightpaths
    report = audit_network(net.controller)
    assert report.ok, str(report)
    usage = svc.usage()
    assert usage["connections"] == 0
    assert usage["committed_gbps"] == 0


def test_teardown_while_restoring_ends_released_and_clean():
    net, svc, conn = restoring_connection()
    observed = []
    net.controller.observers.append(lambda event, _: observed.append(event))
    assert svc.teardown_connection(conn.connection_id) is conn
    # Ordering it twice while it waits is the same order.
    svc.teardown_connection(conn.connection_id)
    assert conn.state is ConnectionState.RESTORING
    net.run()
    assert_released_clean(net, svc, conn)
    assert observed.count("restored") == 1
    assert observed.count("released") == 1
    assert observed.index("restored") < observed.index("released")


def test_teardown_while_restoring_survives_an_aborted_restoration():
    # Every EMS command fails from 5 s into the restoration on, a time
    # a fault-free twin of the same seed supplies.
    at = restoring_connection()[0].sim.now
    net, svc, conn = restoring_connection(
        FaultPlan([FaultSpec(mode="fail", after_s=at)])
    )
    assert net.sim.now == at
    svc.teardown_connection(conn.connection_id)
    net.run()
    assert net.metrics.counter("restoration.aborted") == 1
    assert_released_clean(net, svc, conn)


def test_teardown_while_restoring_does_not_retry_after_a_second_cut():
    net, svc, conn = restoring_connection()
    svc.teardown_connection(conn.connection_id)
    replacement = net.inventory.lightpaths[conn.lightpath_ids[0]]
    net.controller.cut_link(replacement.path[0], replacement.path[1])
    net.run()
    assert net.metrics.counter("restoration.success") == 0
    assert_released_clean(net, svc, conn)


def test_a_released_connection_still_refuses_teardown():
    net, svc, conn = restoring_connection()
    svc.teardown_connection(conn.connection_id)
    net.run()
    with pytest.raises(ConnectionStateError):
        svc.teardown_connection(conn.connection_id)
