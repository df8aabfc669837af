"""Lifecycle tracing integration: nesting invariants and completeness.

Builds real networks with ``tracing=True`` and checks that the span
tree the tracer collects is structurally sound (children nested within
their parents, sim-time monotone, everything finished) and complete
(every phase the paper's workflows go through shows up) across setup,
fiber-cut restoration, and bridge-and-roll.
"""

import pytest

from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed

EPS = 1e-9


@pytest.fixture
def net():
    return build_griphon_testbed(seed=2, tracing=True)


@pytest.fixture
def svc(net):
    return net.service_for("csp-trace")


def assert_tree_invariants(tracer):
    """Every span finished, inside its parent, and clock-ordered."""
    spans = tracer.spans()
    assert spans, "expected at least one span"
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        assert span.finished, f"{span.name} never finished"
        assert span.end >= span.start
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert span.trace_id == parent.trace_id
            assert span.start >= parent.start - EPS, (
                f"{span.name} starts before parent {parent.name}"
            )
            assert span.end <= parent.end + EPS, (
                f"{span.name} ends after parent {parent.name}"
            )
    # The sim clock never runs backwards, so spans recorded later can
    # never start earlier.
    starts = [s.start for s in spans]
    assert starts == sorted(starts)


class TestSetupTrace:
    def test_wavelength_setup_completeness(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
        net.run()
        assert conn.state is ConnectionState.UP
        tracer = net.tracer
        assert_tree_invariants(tracer)
        root = next(
            s for s in tracer.roots() if s.name == "connection.request"
        )
        assert conn.trace_id == root.trace_id
        assert root.tags["outcome"] == "up"
        child_names = {c.name for c in tracer.children_of(root)}
        assert {"order.admit", "order.claim", "connection.setup"} <= child_names
        # The claim phase planned a route.
        claim = next(
            c for c in tracer.children_of(root) if c.name == "order.claim"
        )
        assert [c.name for c in tracer.children_of(claim)] == ["rwa.plan"]
        # The EMS phases of the setup: order, tune, roadm, equalize, verify.
        setup = next(s for s in tracer.spans("lightpath.setup"))
        stages = {c.name for c in tracer.children_of(setup)}
        assert {
            "ems.order", "ems.fxc", "ems.tune", "ems.roadm",
            "ems.equalize", "ems.verify",
        } <= stages

    def test_phase_durations_sum_to_workflow_duration(self, net, svc):
        """Acceptance: per-phase spans sum to end-to-end setup (±1%)."""
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        assert conn.state is ConnectionState.UP
        tracer = net.tracer
        for setup in tracer.spans("lightpath.setup"):
            children = tracer.children_of(setup)
            assert children
            total = sum(c.duration for c in children)
            assert total == pytest.approx(setup.duration, rel=0.01)

    def test_composite_order_traces_circuits(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 12)
        net.run()
        assert conn.state is ConnectionState.UP
        tracer = net.tracer
        assert_tree_invariants(tracer)
        trace = tracer.by_trace(conn.trace_id)
        names = [s.name for s in trace]
        assert names.count("otn.circuit.setup") == 2  # two 1G circuits
        # The OTN-line wavelengths ride the same trace.
        assert names.count("lightpath.setup") >= 2

    def test_blocked_order_trace(self, net):
        svc = net.service_for("csp-zero", max_connections=0)
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
        assert conn.state is ConnectionState.BLOCKED
        tracer = net.tracer
        root = next(
            s
            for s in tracer.roots()
            if s.tags.get("connection") == conn.connection_id
        )
        assert root.tags["outcome"] == "blocked"
        assert root.finished
        admit = next(
            c for c in tracer.children_of(root) if c.name == "order.admit"
        )
        assert admit.tags["error"] == "AdmissionError"

    def test_teardown_trace_joins_connection_trace(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
        net.run()
        svc.teardown_connection(conn.connection_id)
        net.run()
        tracer = net.tracer
        assert_tree_invariants(tracer)
        teardown = next(iter(tracer.spans("connection.teardown")))
        assert teardown.trace_id == conn.trace_id
        lp_teardowns = tracer.children_of(teardown)
        assert any(s.name == "lightpath.teardown" for s in lp_teardowns)
        assert net.metrics.counter("connection.released") == 1


class TestRestorationTrace:
    def test_fiber_cut_restoration_completeness(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
        net.controller.cut_link(path[0], path[1])
        net.run()
        assert conn.state is ConnectionState.UP
        tracer = net.tracer
        assert_tree_invariants(tracer)
        # The cut itself is an instantaneous event.
        cut = next(iter(tracer.spans("failure.fiber_cut")))
        assert cut.duration == 0.0
        # Restoration joins the connection's trace and walks detect →
        # localize → plan → claim → re-provision.
        restoration = next(iter(tracer.spans("restoration")))
        assert restoration.trace_id == conn.trace_id
        assert restoration.tags["outcome"] == "restored"
        phases = [s.name for s in tracer.children_of(restoration)]
        assert phases[:3] == [
            "restoration.localize",
            "restoration.plan",
            "restoration.claim",
        ]
        assert "lightpath.setup" in phases
        assert net.metrics.counter("restoration.success") == 1
        assert net.metrics.counter("failure.fiber_cut") == 1

    def test_otn_mesh_restore_recorded(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 2)
        net.run()
        assert conn.state is ConnectionState.UP
        circuit = net.inventory.circuits[conn.circuit_ids[0]]
        line = net.inventory.otn_lines[circuit.line_ids[0]]
        lp_id = net.controller._line_lightpath[line.line_id]
        lp = net.inventory.lightpaths[lp_id]
        net.controller.cut_link(lp.path[0], lp.path[1])
        net.run()
        tracer = net.tracer
        mesh = next(iter(tracer.spans("otn.mesh_restore")))
        assert mesh.trace_id == conn.trace_id
        assert 0.0 < mesh.duration < 1.0  # sub-second shared-mesh switch
        assert net.metrics.counter("otn.mesh.restored") >= 1
        assert net.metrics.samples("otn.mesh.switch_s")


class TestBridgeAndRollTrace:
    def test_bridge_and_roll_completeness(self, net, svc):
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        net.controller.migrations.move(conn.connection_id, "operator")
        net.run()
        tracer = net.tracer
        assert_tree_invariants(tracer)
        roll = next(iter(tracer.spans("bridge_and_roll")))
        assert roll.trace_id == conn.trace_id
        assert roll.tags["outcome"] == "completed"
        phases = [s.name for s in tracer.children_of(roll)]
        assert phases == [
            "roll.plan",
            "roll.claim",
            "lightpath.setup",
            "roll.hit",
            "lightpath.teardown",
        ]
        hit = next(s for s in tracer.children_of(roll) if s.name == "roll.hit")
        assert hit.duration == pytest.approx(0.050)
        assert net.metrics.counter("bridge_and_roll.completed") == 1
        assert net.metrics.samples("bridge_and_roll.bridge_s")


class TestDisabledTracing:
    def test_no_spans_by_default(self):
        net = build_griphon_testbed(seed=2)
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
        net.run()
        assert conn.state is ConnectionState.UP
        assert len(net.tracer) == 0
        assert conn.trace_id is None
        # Metrics still aggregate (they are cheap and always on).
        assert net.metrics.counter("connection.up") == 1


class TestRegistryMerge:
    def test_state_is_lossless_and_gauge_free(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("orders", 3)
        registry.observe("setup_s", 61.0)
        registry.observe("setup_s", 67.0)
        registry.register_gauge("live", lambda: 1)
        state = registry.state()
        assert state == {
            "counters": {"orders": 3.0},
            "samples": {"setup_s": [61.0, 67.0]},
        }

    def test_merge_sums_counters_and_pools_samples(self):
        from repro.obs.registry import MetricsRegistry

        a = MetricsRegistry()
        a.inc("orders", 2)
        a.observe("setup_s", 60.0)
        b = MetricsRegistry()
        b.inc("orders", 3)
        b.inc("blocked")
        b.observe("setup_s", 70.0)
        b.observe("repair_s", 5.0)

        a.merge(b)
        assert a.counter("orders") == 5.0
        assert a.counter("blocked") == 1.0
        assert a.samples("setup_s") == [60.0, 70.0]
        # Summaries of the merged registry equal summaries of the
        # pooled raw samples — nothing was pre-aggregated away.
        assert a.summary("setup_s").mean == 65.0

    def test_merge_accepts_state_dicts(self):
        from repro.obs.registry import MetricsRegistry

        merged = MetricsRegistry()
        for _ in range(3):
            worker = MetricsRegistry()
            worker.inc("trials")
            worker.observe("draw", 0.5)
            merged.merge(worker.state())
        assert merged.counter("trials") == 3.0
        assert len(merged.samples("draw")) == 3

    def test_merge_round_trips_through_snapshot_shape(self):
        from repro.obs.registry import MetricsRegistry

        worker = MetricsRegistry()
        worker.inc("connection.up", 4)
        worker.observe("setup_s", 62.0)
        merged = MetricsRegistry()
        merged.merge(worker.state())
        snap = merged.snapshot()
        assert snap["counters"] == {"connection.up": 4.0}
        assert snap["histograms"]["setup_s"]["count"] == 1
        assert snap["gauges"] == {}
