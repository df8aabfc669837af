"""A stitched order is a connection: the same outcomes, events and faults.

Each test runs one fault on a stitched order through a
:class:`~repro.shard.intake.ShardIntake`, in both deployments, and the same
fault on one connection through the Fig. 4 testbed's
:class:`~repro.pipeline.engine.OrderPipeline`, and expects the same typed
outcome and ticket events from both backends:

* a setup step that fails for good rolls the order back as
  :class:`~repro.api.SetupFailed`;
* a cut of an UP order's segment fails the order (``Accepted``, outage
  open) until the repair brings it back UP, with no second ``active``;
  a FAILED order can be torn down, leaving every unit clean and dark.

``audit_shards`` flags a child whose state contradicts its order's, and
a child of a settled order that a unit controller still registers.
"""

import pytest

from repro import api
from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.faults.plan import FaultPlan, FaultSpec
from repro.shard.intake import ShardIntake
from repro.shard.network import build_sharded_network
from repro.topo.hierarchy import EXPRESS
from repro.units import GBPS

ORDER = ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS)
MODES = ("sharded", "monolithic")


def verify_fails():
    """One hard failure of the end-to-end verify step: no retry wins."""
    return FaultPlan([
        FaultSpec(command="verify", element="end-to-end verify",
                  mode="fail", count=1)
    ])


def shard_order(mode, fault_plans=None):
    """``(network, intake, ticket, ticket events)`` for ORDER."""
    net = build_sharded_network(
        seed=7, regions=2, pops_per_region=6, mode=mode,
        fault_plans=fault_plans,
    )
    net.register_customer(
        CustomerProfile("csp", max_connections=64,
                        max_total_rate_bps=10000 * GBPS)
    )
    intake = ShardIntake(net)
    events = []
    intake.add_listener(lambda ticket, event: events.append(event))
    return net, intake, intake.submit(*ORDER), events


def pipeline_order(fault_plan=None):
    """The same, for one 10G connection on the Fig. 4 testbed."""
    net = build_griphon_testbed(seed=7, auto_restore=False,
                                fault_plan=fault_plan)
    net.service_for("csp")
    pipeline = net.enable_pipeline()
    events = []
    pipeline.add_listener(lambda ticket, event: events.append(event))
    ticket = pipeline.submit("csp", "PREMISES-A", "PREMISES-C", 10 * GBPS)
    return net, pipeline, ticket, events


def assert_clean_and_dark(net):
    for unit, report in net.audit_shards().items():
        assert report.ok, f"{unit}: {[str(v) for v in report.violations]}"
    for unit, controller in net.controllers.items():
        assert controller.inventory.lightpaths == {}, unit
        assert controller.inventory.plant.occupancy_snapshot() == {}, unit
    assert net.admission.usage("csp") == {"connections": 0, "rate_bps": 0}


@pytest.mark.parametrize("mode", MODES)
def test_a_saga_rollback_reaches_the_ticket_as_setup_failed(mode):
    mono, pipeline, mono_ticket, mono_events = pipeline_order(verify_fails())
    mono.run()
    expected = pipeline.outcome(mono_ticket)
    assert isinstance(expected, api.SetupFailed)

    net, intake, ticket, events = shard_order(mode, {EXPRESS: verify_fails()})
    net.run()
    outcome = intake.outcome(ticket)
    assert type(outcome) is type(expected)
    assert outcome.connection_id == ticket.connection_id
    assert str(outcome.error) == str(expected.error)
    assert events == mono_events == ["settled", "failed"]
    assert_clean_and_dark(net)


@pytest.mark.parametrize("mode", MODES)
def test_a_cut_segment_fails_its_up_order_until_the_repair(mode):
    mono, pipeline, mono_ticket, mono_events = pipeline_order()
    mono.run()
    connection = mono.controller.connection(mono_ticket.connection_id)
    hop = mono.controller.inventory.lightpaths[connection.lightpath_ids[0]].path
    mono.controller.cut_link(hop[0], hop[1])
    assert connection.state is ConnectionState.FAILED
    assert isinstance(pipeline.outcome(mono_ticket), api.Accepted)
    assert connection.outage_started_at == mono.sim.now

    net, intake, ticket, events = shard_order(mode)
    net.run()
    order = net.orders[ticket.connection_id]
    assert isinstance(intake.outcome(ticket), api.Active)
    child = order.children["R00"]
    path = order.plan_record[0]["path"]
    cut_at = net.sim.now
    net.cut_fiber(path[0], path[1])
    assert child.state is ConnectionState.FAILED
    assert order.state is ConnectionState.FAILED
    assert isinstance(intake.outcome(ticket), api.Accepted)
    assert order.outage_started_at == child.outage_started_at == cut_at

    for network, repair in (
        (mono, lambda: mono.controller.repair_link(hop[0], hop[1])),
        (net, lambda: net.repair_fiber(path[0], path[1])),
    ):
        network.run(until=network.sim.now + 500.0)
        repair()
    assert connection.state is ConnectionState.UP
    assert order.state is ConnectionState.UP
    assert order.outage_started_at is None
    assert order.total_outage_s == child.total_outage_s == 500.0
    assert isinstance(intake.outcome(ticket), api.Active)
    # One setup conclusion per ticket: the revival sends no second one.
    assert events == mono_events == ["settled", "active"]

    # A FAILED order can be torn down, as a FAILED connection can.
    mono.controller.cut_link(hop[0], hop[1])
    net.cut_fiber(path[0], path[1])
    assert order.state is ConnectionState.FAILED
    pipeline.teardown(mono_ticket)
    intake.teardown(ticket)
    mono.run()
    net.run()
    assert connection.state is ConnectionState.RELEASED
    assert order.state is ConnectionState.RELEASED
    assert events == mono_events == ["settled", "active", "released"]
    net.repair_fiber(path[0], path[1])
    assert_clean_and_dark(net)


@pytest.mark.parametrize("mode", MODES)
def test_the_audit_flags_a_child_that_contradicts_its_order(mode):
    net, _intake, ticket, _events = shard_order(mode)
    net.run()
    order = net.orders[ticket.connection_id]
    child = order.children["R00"]
    key = "R00" if mode == "sharded" else "mono"

    def flagged():
        return {
            unit: [(v.kind, v.resource, v.owner) for v in report.violations]
            for unit, report in net.audit_shards().items()
            if not report.ok
        }

    assert flagged() == {}
    planted = [
        # An UP order over a child that is not UP.
        (ConnectionState.UP, ConnectionState.FAILED),
        # A FAILED order none of whose children is FAILED.
        (ConnectionState.FAILED, ConnectionState.UP),
        # A BLOCKED / RELEASED order over a child in another state.
        (ConnectionState.BLOCKED, ConnectionState.UP),
        (ConnectionState.RELEASED, ConnectionState.UP),
    ]
    for order_state, child_state in planted:
        order.state, child.state = order_state, child_state
        found = flagged()[key]
        assert ("order-state", f"connection {child.connection_id}",
                order.connection_id) in found, (order_state, found)
    order.state = child.state = ConnectionState.UP
    assert flagged() == {}


@pytest.mark.parametrize("mode", MODES)
def test_the_audit_flags_a_stale_child_of_a_settled_order(mode):
    net, intake, ticket, _events = shard_order(mode)
    net.run()
    order = net.orders[ticket.connection_id]
    child = order.children["R00"]
    intake.teardown(ticket)
    net.run()
    assert order.state is ConnectionState.RELEASED
    assert_clean_and_dark(net)
    # Put the retired child's record back into its unit's controller.
    connections = net.controllers["R00"].connections
    connections[child.connection_id] = child
    found = {
        unit: [(v.kind, v.resource, v.owner) for v in report.violations]
        for unit, report in net.audit_shards().items()
        if not report.ok
    }
    assert found == {"R00" if mode == "sharded" else "mono": [
        ("stale-child", f"connection {child.connection_id}", order.connection_id)
    ]}
    del connections[child.connection_id]
    assert_clean_and_dark(net)
