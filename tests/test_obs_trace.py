"""Unit tests for the tracing + metrics subsystem (repro.obs)."""

import json

import pytest

from repro.obs import NULL_SPAN, MetricsRegistry, Span, Tracer


class FakeClock:
    """A settable clock standing in for the simulator's."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock, enabled=True)


class TestTracerBasics:
    def test_disabled_by_default(self, clock):
        tracer = Tracer(clock)
        assert not tracer.enabled
        assert tracer.span("x") is NULL_SPAN
        assert len(tracer) == 0

    def test_null_span_is_inert(self, clock):
        tracer = Tracer(clock)
        span = tracer.span("x", foo=1)
        assert span.trace_id is None
        assert span.child("y") is span
        assert span.set_tag("k", "v") is span
        with span as s:
            assert s is span
        assert span.duration == 0.0

    def test_enable_disable(self, clock):
        tracer = Tracer(clock)
        tracer.enable()
        assert tracer.span("a") is not NULL_SPAN
        tracer.disable()
        assert tracer.span("b") is NULL_SPAN
        assert len(tracer) == 1  # "a" was kept

    def test_span_times_from_clock(self, tracer, clock):
        clock.t = 5.0
        span = tracer.span("work")
        clock.t = 12.5
        span.finish()
        assert span.start == 5.0
        assert span.end == 12.5
        assert span.duration == 7.5

    def test_finish_is_idempotent(self, tracer, clock):
        span = tracer.span("work")
        clock.t = 3.0
        span.finish()
        clock.t = 9.0
        span.finish()
        assert span.end == 3.0

    def test_context_manager_finishes_and_tags_errors(self, tracer, clock):
        with pytest.raises(ValueError):
            with tracer.span("bad") as span:
                clock.t = 1.0
                raise ValueError("boom")
        assert span.finished
        assert span.tags["error"] == "ValueError"

    def test_parenting_and_trace_ids(self, tracer):
        root = tracer.span("root")
        child = root.child("child")
        grandchild = child.child("grandchild")
        assert child.trace_id == root.trace_id
        assert grandchild.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert tracer.children_of(root) == [child]
        assert tracer.children_of(child) == [grandchild]
        other_root = tracer.span("other")
        assert other_root.trace_id != root.trace_id
        assert set(tracer.roots()) == {root, other_root}

    def test_adopted_trace_id(self, tracer):
        root = tracer.span("setup")
        adopted = tracer.span("restoration", trace_id=root.trace_id)
        assert adopted.parent_id is None
        assert adopted.trace_id == root.trace_id
        assert set(tracer.by_trace(root.trace_id)) == {root, adopted}

    def test_event_and_record(self, tracer, clock):
        clock.t = 4.0
        event = tracer.event("cut", link="A=B")
        assert event.start == event.end == 4.0
        recorded = tracer.record("switch", start=4.0, end=4.2)
        assert recorded.duration == pytest.approx(0.2)

    def test_json_export_roundtrip(self, tracer, clock, tmp_path):
        with tracer.span("outer", kind="demo"):
            clock.t = 2.0
        path = tmp_path / "trace.json"
        tracer.dump(str(path))
        data = json.loads(path.read_text())
        assert len(data) == 1
        assert data[0]["name"] == "outer"
        assert data[0]["duration"] == 2.0
        assert data[0]["tags"] == {"kind": "demo"}

    def test_clear_keeps_id_sequence(self, tracer):
        first = tracer.span("a")
        tracer.clear()
        assert len(tracer) == 0
        second = tracer.span("b")
        assert second.span_id != first.span_id


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        assert reg.counter("x") == 0.0
        reg.inc("x")
        reg.inc("x", 2.5)
        assert reg.counter("x") == 3.5
        assert reg.counters() == {"x": 3.5}

    def test_histograms(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("lat", v)
        assert reg.samples("lat") == [1.0, 2.0, 3.0]
        summary = reg.summary("lat")
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert reg.histograms() == ["lat"]

    def test_gauges_pull_at_snapshot(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.register_gauge("depth", lambda: state["v"])
        assert reg.gauge("depth") == 1
        state["v"] = 7
        assert reg.snapshot()["gauges"]["depth"] == 7

    def test_snapshot_shape_and_gauge_errors(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.observe("h", 1.5)
        reg.register_gauge("depth", lambda: 3)
        snap = reg.snapshot()
        assert snap["counters"] == {"n": 1.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["mean"] == 1.5
        assert snap["gauges"] == {"depth": 3}
        json.dumps(snap)  # must be JSON-serializable
        # A gauge that raises is a bug: it surfaces, it is not read as None.
        reg.register_gauge("broken", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            reg.snapshot()

    def test_span_type_exported(self):
        # The public surface used by instrumentation sites.
        assert Span is not None
