"""The cross-shard order saga, with the shard audit as its oracle.

A stitched order's segments are child connections that each unit's
controller claims, puts into service and gives back.  An order that
aborts at any segment, by a fault rule at any step or by a cut during
that segment's setup, must leave every unit's ledger empty and its plant
dark; a segment cut between its own UP and the order's UP must enter
service FAILED, and its order with it, so the repair revives both; and
``audit_shards`` must flag a lightpath that no live child holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.faults import FaultPlan, FaultSpec
from repro.optical import LightpathState
from repro.shard import build_sharded_network
from repro.topo.hierarchy import EXPRESS
from repro.units import GBPS

ORDER = ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS)
#: The order's segments, in path order.
UNITS = ("R00", EXPRESS, "R01")


def make_net(fault_plans=None):
    net = build_sharded_network(
        seed=7, regions=2, pops_per_region=6, fault_plans=fault_plans
    )
    net.register_customer(
        CustomerProfile(
            "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
        )
    )
    return net


def setup_windows():
    """Sim-time ``(start, end)`` of each segment's setup, fault-free."""
    net = make_net()
    windows = {}
    for unit, controller in net.controllers.items():
        provisioner = controller.provisioner
        setup = provisioner.setup_workflow

        def timed(lightpath, *args, _unit=unit, _setup=setup, **kwargs):
            start = net.sim.now
            result = yield from _setup(lightpath, *args, **kwargs)
            windows[_unit] = (start, net.sim.now)
            return result

        provisioner.setup_workflow = timed
    order = net.place_orders([ORDER])[0]
    net.run()
    assert order.state is ConnectionState.UP
    return windows, order.plan_record


WINDOWS, FRESH_PLAN = setup_windows()


def setup_steps(unit):
    """``(command, element)`` of each EMS step of ``unit``'s segment
    setup, in order — what a fault rule can name to fail that step."""
    path = next(r["path"] for r in FRESH_PLAN if r["unit"] == unit)
    source, destination = path[0], path[-1]
    steps = [("order", "controller.order")]
    if unit != EXPRESS:
        steps += [("fxc", source), ("fxc", destination)]
    steps += [("tune", source), ("tune", destination)]
    steps += [("roadm", node) for node in path]
    steps += [("equalize", f"{u}={v}") for u, v in zip(path, path[1:])]
    return steps + [("verify", "end-to-end verify")]


def assert_dark_and_empty(net):
    for unit, report in net.audit_shards().items():
        assert report.ok, f"{unit}: {[str(v) for v in report.violations]}"
    for unit, controller in net.controllers.items():
        assert controller.inventory.lightpaths == {}, unit
        assert controller.inventory.plant.occupancy_snapshot() == {}, unit
    assert net.admission.usage("csp") == {"connections": 0, "rate_bps": 0}


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    unit=st.sampled_from(UNITS),
    by_cut=st.booleans(),
    step=st.integers(0, 63),
    at=st.floats(0.0, 0.95),
)
def test_an_aborted_segment_leaves_every_unit_empty(unit, by_cut, step, at):
    if by_cut:
        # A cut of one of the segment's links while it is setting up.
        net = make_net()
        path = next(r["path"] for r in FRESH_PLAN if r["unit"] == unit)
        hop = step % (len(path) - 1)
        cut = (path[hop], path[hop + 1])
    else:
        # One hard failure of one setup step: no retry can win.
        steps = setup_steps(unit)
        command, element = steps[step % len(steps)]
        net = make_net({unit: FaultPlan([
            FaultSpec(command=command, element=element, mode="fail", count=1)
        ])})
    order = net.place_orders([ORDER])[0]
    if by_cut:
        start, end = WINDOWS[unit]
        net.run(until=start + max(at * (end - start), 0.001))
        net.cut_fiber(*cut)
    net.run()
    assert order.state is ConnectionState.BLOCKED, order.state
    assert order.blocked_reason.startswith("setup failed")
    for child in order.children.values():
        assert child.state is ConnectionState.BLOCKED
        assert child.lightpath_ids == [] and child.claims == []
    if by_cut:
        net.repair_fiber(*cut)
    assert_dark_and_empty(net)
    # Nothing is left behind to push the retry onto other channels.
    retry = net.place_orders([ORDER])[0]
    net.run()
    assert retry.state is ConnectionState.UP
    assert retry.plan_record == FRESH_PLAN


class TestSegmentCutBeforeOrderUp:
    def test_cut_segment_enters_service_failed_and_repair_revives_it(self):
        net = make_net()
        order = net.place_orders([ORDER])[0]
        region_a = order.children["R00"]
        path = FRESH_PLAN[0]["path"]
        start, _end = WINDOWS["express"]
        assert start < 100.0 < WINDOWS["R01"][0]
        net.run(until=100.0)
        # R00's segment is up; express is still setting up.
        assert region_a.state is ConnectionState.SETTING_UP
        net.cut_fiber(path[0], path[1])
        net.run()
        # The order enters service FAILED with its segment, as a
        # connection cut during setup does on one controller.
        assert order.state is ConnectionState.FAILED
        assert order.outage_started_at == order.up_at
        controller = net.controllers["R00"]
        lightpath = controller.inventory.lightpaths[region_a.lightpath_ids[0]]
        assert lightpath.state is LightpathState.FAILED
        assert region_a.state is ConnectionState.FAILED
        assert region_a.outage_started_at == order.up_at
        net.run(until=600.0)
        net.repair_fiber(path[0], path[1])
        net.run()
        assert lightpath.state is LightpathState.UP
        assert region_a.state is ConnectionState.UP
        assert region_a.total_outage_s == 600.0 - order.up_at
        assert order.state is ConnectionState.UP
        assert order.total_outage_s == region_a.total_outage_s
        net.teardown_order(order)
        net.run()
        assert order.state is ConnectionState.RELEASED
        assert_dark_and_empty(net)


class TestOrphanAudit:
    def test_a_claimed_but_unattached_lightpath_is_flagged(self):
        net = make_net()
        controller = net.controllers["R00"]
        plan = controller.rwa.plan("R00-P03", "R00-P01", 10 * GBPS)
        lightpath = controller.provisioner.claim(plan)
        report = net.audit_shards()["R00"]
        assert [(v.kind, v.owner) for v in report.violations] == [
            ("orphan-lightpath", lightpath.lightpath_id)
        ]
        assert all(r.ok for u, r in net.audit_shards().items() if u != "R00")
        controller.provisioner.release(lightpath)
        assert net.audit_shards()["R00"].ok
