"""Whole-system check: coalesced EMS step runs ≡ one event per step.

An untraced, fault-free provisioner hands each stretch of setup /
teardown steps to the kernel as one ``StepRun``; with tracing on, every
workflow opens spans and takes the general loop — one kernel event per
step.  The traced run is therefore the reference, and no knob is
needed.  On three systems — a small sharded hierarchy, a monolithic OTN
backbone under fiber cuts with auto-restoration, and the Fig. 4 testbed
at ``latency_cv=0.0`` with bursts of simultaneous orders — every
connection's state and sim times and every random substream must be
equal, and the untraced run must fire fewer kernel events.  The counts
are pinned: a change that splits steps again shows up here.

Equal-time FIFO order between *different* processes is the one thing
coalescing can change (a run's event takes its sequence number when the
run starts, not when its last step does); the testbed case builds a
pair of setups that finish at the same instant and shows their
completion order flip while every outcome stays equal.

Then up-front rules that start at a step boundary: a rule whose
``after_s`` is exactly a boundary applies from the step that starts
there, one whose ``after_s`` falls inside a step waits for the next
step, and once a counted rule is spent the remaining steps coalesce
again.  A run ends at the sequential sum of its durations, and a bad
duration inside a run raises ``SimulationError``.
"""

import math
import random

import pytest

from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.errors import GriphonError, SimulationError
from repro.facade import build_griphon_testbed
from repro.faults.audit import audit_network
from repro.faults.plan import FaultPlan, FaultSpec
from repro.optical.lightpath import LightpathState
from repro.shard.network import build_sharded_network
from repro.sim.kernel import Simulator
from repro.sim.process import Process, StepRun
from repro.sweep.studies import build_waxman_network
from repro.topo.hierarchy import build_hierarchy
from repro.units import GBPS, gbps

#: A connection may be torn down from these states (RESTORING is held
#: until its restoration settles).
TEARABLE = (
    ConnectionState.UP,
    ConnectionState.DEGRADED,
    ConnectionState.FAILED,
    ConnectionState.RESTORING,
)


def stream_states(*families):
    """Every named substream's ``getstate()``, per family."""
    return [
        {name: rng.getstate() for name, rng in sorted(streams._streams.items())}
        for streams in families
    ]


def connection_rows(controller):
    return [
        (
            cid,
            conn.state,
            conn.up_at,
            conn.released_at,
            conn.total_outage_s,
            tuple(conn.lightpath_ids),
        )
        for cid, conn in sorted(controller.connections.items())
    ]


# -- the three systems -----------------------------------------------------------


def run_sharded(traced):
    """2 regions x 6 PoPs: six rounds of six orders, staggered teardowns."""
    hierarchy = build_hierarchy(
        seed=11, regions=2, pops_per_region=6, with_premises=True
    )
    net = build_sharded_network(
        seed=11, hierarchy=hierarchy, transponders_10g=16
    )
    if traced:
        for controller in net.controllers.values():
            controller.tracer.enable()
    net.register_customer(
        CustomerProfile("csp", max_connections=64, max_total_rate_bps=10000 * GBPS)
    )
    premises = sorted(
        name for info in hierarchy.regions.values() for name in info.premises
    )
    rng = random.Random(5)
    rounds = [
        [("csp", *rng.sample(premises, 2), 10 * GBPS) for _ in range(6)]
        for _ in range(6)
    ]
    orders = []

    def release(order):
        if order.state is ConnectionState.UP:
            net.teardown_order(order)

    def place(batch):
        placed = net.place_orders(batch)
        orders.extend(placed)
        for index, order in enumerate(placed):
            net.sim.schedule(180.0 + 37.0 * index, release, order)

    for number, batch in enumerate(rounds):
        net.sim.schedule_at(25.0 * number, place, batch)
    events = net.run()
    observed = {
        "orders": [
            (order.order_id, order.state, order.up_at, order.blocked_reason)
            for order in orders
        ],
        "connections": [
            connection_rows(controller) for controller in net.controllers.values()
        ],
        "streams": stream_states(
            *(controller.streams for controller in net.controllers.values())
        ),
        "now": net.sim.now,
        "audit": [report.ok for report in net.audit_shards().values()],
    }
    return observed, events


def run_mono_churn(traced):
    """A 16-PoP OTN Waxman backbone: mixed-rate orders, cuts, repairs."""
    net = build_waxman_network(
        7, node_count=16, with_otn=True,
        transponders_10g=24, regens_10g=8, add_drop_ports=32,
        fxc_ports=64, nte_interfaces=16, premises_fxc_ports=32,
        otn_client_ports=64,
    )
    if traced:
        net.tracer.enable()
    svc = net.service_for("csp", max_connections=256, max_total_rate_gbps=8000)
    graph = net.inventory.graph
    premises = sorted(n.name for n in graph.nodes if n.kind == "premises")
    core = sorted(
        link.key for link in graph.links
        if link.a not in premises and link.b not in premises
    )
    rng = random.Random(9)
    requests = []
    clock = 0.0
    for _ in range(40):
        clock += rng.expovariate(1 / 20.0)
        a, b = rng.sample(premises, 2)
        requests.append((clock, a, b, rng.choice((1, 1, 10, 12)),
                         rng.expovariate(1 / 400.0)))
    cuts = [(40.0 + 90.0 * k, *rng.choice(core)) for k in range(8)]

    def release(connection):
        if connection.state in TEARABLE:
            svc.teardown_connection(connection.connection_id)
        elif connection.state is ConnectionState.SETTING_UP:
            net.sim.schedule(30.0, release, connection)

    def order(a, b, rate, hold):
        try:
            connection = svc.request_connection(a, b, rate)
        except GriphonError:
            return
        net.sim.schedule(hold, release, connection)

    def cut(a, b):
        if not net.inventory.plant.dwdm_link(a, b).failed:
            net.controller.cut_link(a, b)
            net.sim.schedule(600.0, net.controller.repair_link, a, b)

    for at, a, b, rate, hold in requests:
        net.sim.schedule_at(at, order, a, b, rate, hold)
    for at, a, b in cuts:
        net.sim.schedule_at(at, cut, a, b)
    events = net.run()
    observed = {
        "connections": connection_rows(net.controller),
        "streams": stream_states(net.controller.streams),
        "restored": net.metrics.counter("restoration.success"),
        "now": net.sim.now,
        "audit": audit_network(net.controller).ok,
    }
    return observed, events


#: The coinciding pair: I->IV direct (62.35 s of steps) and I->II->III->IV
#: (two express hops, 71.05 s), whose last two steps are the same
#: lengths but whose third-last differ.
DIRECT, LONG_WAY = (), (("ROADM-I", "ROADM-IV"), ("ROADM-I", "ROADM-III"))


def run_testbed(traced, pair_offset):
    """Bursts of simultaneous orders at cv=0, then the coinciding pair."""
    net = build_griphon_testbed(seed=3, latency_cv=0.0)
    if traced:
        net.tracer.enable()
    svc = net.service_for("csp", max_connections=32)
    bursts = {
        0.0: [("PREMISES-A", "PREMISES-B"), ("PREMISES-A", "PREMISES-C"),
              ("PREMISES-B", "PREMISES-C"), ("PREMISES-A", "PREMISES-B")],
        40.0: [("PREMISES-B", "PREMISES-A"), ("PREMISES-C", "PREMISES-A")],
        300.0: [("PREMISES-A", "PREMISES-C"), ("PREMISES-C", "PREMISES-B")],
    }
    connections = []

    def burst(pairs):
        for a, b in pairs:
            connections.append(svc.request_connection(a, b, 10))

    def tear_down_all():
        for connection in connections:
            if connection.state in TEARABLE:
                svc.teardown_connection(connection.connection_id)

    for at, pairs in bursts.items():
        net.sim.schedule_at(at, burst, pairs)
    net.sim.schedule_at(250.0, tear_down_all)
    net.sim.schedule_at(500.0, tear_down_all)

    controller = net.controller
    finished = []

    def launch(name, exclusions):
        plan = controller.rwa.plan(
            "ROADM-I", "ROADM-IV", gbps(10), excluded_links=list(exclusions)
        )
        lightpath = controller.provisioner.claim(plan)
        Process(
            net.sim,
            controller.provisioner.setup_workflow(
                lightpath, on_up=lambda lp: finished.append((name, net.sim.now))
            ),
            label=f"pair:{name}",
        )

    net.sim.schedule_at(1000.0, launch, "long", LONG_WAY)
    net.sim.schedule_at(1000.0 + pair_offset, launch, "direct", DIRECT)
    events = net.run()
    observed = {
        "connections": connection_rows(controller),
        "lightpaths": sorted(
            (lp.lightpath_id, lp.state, tuple(lp.path))
            for lp in net.inventory.lightpaths.values()
        ),
        "finished_at": sorted(finished),
        "streams": stream_states(controller.streams),
        "now": net.sim.now,
        "audit": audit_network(controller).ok,
    }
    return observed, events, finished


def coinciding_offset():
    """The start offset at which the direct setup ends on the exact
    float instant the long-way setup does (both summed step by step)."""
    direct = [2.0, 1.5, 1.5, 14.0, 14.0, 9.5, 9.5, 2.35, 8.0]
    long_way = [2.0, 1.5, 1.5, 14.0, 14.0, 9.5, 9.5, 2.0, 2.0,
                2.35, 2.35, 2.35, 8.0]

    def end(start, steps):
        for step in steps:
            start += step
        return start

    target = end(1000.0, long_way)
    start = target - sum(direct)
    for _ in range(64):
        if end(start, direct) == target:
            return start - 1000.0
        start = math.nextafter(
            start, math.inf if end(start, direct) < target else -math.inf
        )
    raise AssertionError("no start time makes the two setups coincide")


# -- whole-system differentials --------------------------------------------------


def test_sharded_hierarchy_traced_equals_coalesced():
    reference, traced_events = run_sharded(traced=True)
    observed, events = run_sharded(traced=False)
    assert observed == reference
    states = {row[1] for row in reference["orders"]}
    assert {ConnectionState.RELEASED, ConnectionState.UP} <= states
    assert all(reference["audit"])
    assert (traced_events, events) == (994, 214)


def test_monolithic_churn_under_cuts_traced_equals_coalesced():
    reference, traced_events = run_mono_churn(traced=True)
    observed, events = run_mono_churn(traced=False)
    assert observed == reference
    assert reference["restored"] > 0
    assert reference["audit"]
    assert (traced_events, events) == (850, 399)


def test_testbed_bursts_and_a_coinciding_pair_traced_equal_coalesced():
    offset = coinciding_offset()
    reference, traced_events, traced_order = run_testbed(True, offset)
    observed, events, order = run_testbed(False, offset)
    assert observed == reference
    # The pair really coincides, and only its FIFO order differs: one
    # event per step lets the direct setup's last steps be scheduled
    # first; coalesced, the run started first completes first.
    (_, end), (_, other_end) = traced_order
    assert end == other_end
    assert [name for name, _ in traced_order] == ["direct", "long"]
    assert [name for name, _ in order] == ["long", "direct"]
    assert reference["audit"]
    assert (traced_events, events) == (164, 46)


# -- up-front rules from a step boundary ---------------------------------------------


class FaultBed:
    """The Fig. 4 testbed at cv=0 with ``specs`` planned up front."""

    def __init__(self, *specs):
        self.net = build_griphon_testbed(
            seed=1, latency_cv=0.0, fault_plan=FaultPlan(specs)
        )
        self.net.sim.enable_trace()
        self.plan = self.net.controller.fault_plan
        self.lightpaths = {}

    def launch(self, name, exclusions=DIRECT):
        controller = self.net.controller
        plan = controller.rwa.plan(
            "ROADM-I", "ROADM-IV", gbps(10), excluded_links=list(exclusions)
        )
        lightpath = controller.provisioner.claim(plan)
        self.lightpaths[name] = lightpath
        return Process(
            self.net.sim,
            controller.provisioner.setup_workflow(lightpath),
            label=name,
        )

    def resumes(self, name):
        return [t for t, label in self.net.sim.trace if label == name]


class TestRuleFromABoundary:
    # cv=0, I->IV direct: order 2, fxc 1.5 + 1.5, tune 14 + 14, add-drop
    # 9.5 + 9.5, equalize 2.35, verify 8 — boundaries 2, 3.5, 5, 19, 33,
    # 42.5, 52, 54.35, 62.35.

    def test_a_rule_from_a_boundary_applies_to_the_step_starting_there(self):
        bed = FaultBed(
            FaultSpec(command="tune", mode="timeout", count=1, after_s=19.0)
        )
        bed.launch("lp")
        bed.net.run()
        # The second tune starts at 19 s: it burns the 30 s timeout,
        # backs off and is retried; the first (5 → 19 s) finished
        # untouched.  The rule is then spent, so the four steps left
        # (add-drop 9.5 + 9.5, equalize 2.35, verify 8) wait on one event.
        assert bed.plan.injected_counts == [1]
        assert bed.plan.empty
        assert bed.net.metrics.counter("ems.retry") == 1
        assert bed.lightpaths["lp"].state is LightpathState.UP
        resumes = bed.resumes("lp")
        assert resumes[:6] == [0.0, 2.0, 3.5, 5.0, 19.0, 49.0]
        backoff_end, retried, end = resumes[6:]
        assert retried == backoff_end + 14.0
        for step in (9.5, 9.5, 2.35, 8.0):
            retried += step
        assert end == retried

    def test_a_rule_from_inside_a_step_waits_for_the_next_one(self):
        bed = FaultBed(
            FaultSpec(command="tune", mode="timeout", count=1, after_s=19.5)
        )
        bed.launch("lp")
        bed.net.run()
        # No tune starts at or after 19.5 s; the unspent rule keeps
        # every step on its own event.
        assert bed.plan.injected_counts == [0]
        assert not bed.plan.empty
        assert bed.resumes("lp") == [
            0.0, 2.0, 3.5, 5.0, 19.0, 33.0, 42.5, 52.0, 54.35, 62.35
        ]
        assert bed.lightpaths["lp"].state is LightpathState.UP

    def test_steps_after_the_last_window_closes_go_as_one_run(self):
        bed = FaultBed(FaultSpec(command="tune", mode="timeout", until_s=3.0))
        bed.launch("lp")
        bed.net.run()
        # The tune rule closes at 3 s, before any tune starts: after the
        # step that ends at 3.5 s nothing can fire, so the rest (though
        # the rule is unspent) wait on one event, as with no rule at all.
        assert bed.plan.injected_counts == [0]
        assert not bed.plan.empty
        assert bed.resumes("lp") == [0.0, 2.0, 3.5, 62.35]
        assert bed.lightpaths["lp"].state is LightpathState.UP

    def test_an_order_placed_after_every_window_closed_runs_as_if_unplanned(self):
        events = []
        for specs in ([FaultSpec(until_s=1.0)], []):
            net = build_griphon_testbed(seed=7, fault_plan=FaultPlan(specs))
            net.sim.run(until=5.0)
            connection = net.service_for("csp").request_connection(
                "PREMISES-A", "PREMISES-C", rate_gbps=10
            )
            events.append(
                (net.sim.run(), connection.state, round(connection.up_at, 2))
            )
        assert events[0] == events[1]
        assert events[0][0] == 2 and events[0][1] is ConnectionState.UP


class TestRunKernel:
    def test_end_time_is_the_sequential_sum(self):
        sim = Simulator(start_time=0.1)
        steps = [0.2, 0.3, 1e-17, 0.7]
        seen = []

        def workflow():
            yield StepRun(steps)
            seen.append(sim.now)

        Process(sim, workflow())
        assert sim.run() == 2
        expected = 0.1
        for step in steps:
            expected += step
        assert seen == [expected]

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, "3"])
    def test_a_bad_duration_inside_a_run_raises(self, bad):
        sim = Simulator()

        def workflow():
            yield StepRun([1.0, bad, 2.0])

        process = Process(sim, workflow())
        with pytest.raises(SimulationError, match="invalid delay"):
            sim.run()
        assert process.done
        assert sim.pending == 0
