"""The async service frontend: edge gates, backpressure, streaming.

Pins the tentpole properties of :mod:`repro.frontend`:

* futures resolve as kernel events, never inline (same seed → same
  interleaving);
* the three edge gates in order — token-bucket rate limit, *non-mutating*
  quota probe, hysteresis load shedding — every refusal a typed
  :class:`repro.api.Rejected`, never an exception or unbounded queue;
* conservation: ``submitted == admitted + shed + throttled`` for every
  seed (a hypothesis property);
* no starvation: a noisy tenant at 100x its budget cannot degrade a
  compliant tenant's p99 order-to-ACTIVE beyond 2x.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import AdmissionError, ConfigurationError, SimulationError
from repro.facade import build_griphon_testbed
from repro.frontend import (
    STATE_OPEN,
    STATE_SHEDDING,
    BucketSet,
    SimFuture,
    TokenBucket,
)
from repro.sim.kernel import Simulator


def _p99(samples):
    ordered = sorted(samples)
    return ordered[max(0, int(len(ordered) * 0.99) - 1)]


# -- the deterministic async runtime ----------------------------------------


class TestSimFuture:
    def test_callbacks_fire_as_kernel_events_not_inline(self):
        sim = Simulator()
        future = SimFuture(sim)
        fired = []
        future.add_done_callback(fired.append)
        future.resolve("value")
        assert fired == []  # scheduled, never inline
        sim.run()
        assert fired == ["value"]

    def test_double_resolve_rejected(self):
        future = SimFuture(Simulator())
        future.resolve(1)
        with pytest.raises(SimulationError):
            future.resolve(2)

    def test_result_before_resolve_rejected(self):
        with pytest.raises(SimulationError):
            SimFuture(Simulator()).result()

    def test_callback_after_resolve_still_fires(self):
        sim = Simulator()
        future = SimFuture(sim)
        future.resolve(7)
        fired = []
        future.add_done_callback(fired.append)
        sim.run()
        assert fired == [7]


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert bucket.try_take(1.0)  # one token refilled
        assert not bucket.try_take(1.0)

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        assert bucket.available(100.0) == 3.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.0, now=0.0)

    def test_bucket_set_is_lazy(self):
        buckets = BucketSet(rate=1.0, burst=1.0)
        assert len(buckets) == 0
        assert buckets.try_take("tenant-a", 0.0)
        assert len(buckets) == 1  # only the touched tenant materialized


# -- the edge gates ----------------------------------------------------------


@pytest.fixture
def net():
    return build_griphon_testbed(seed=3, latency_cv=0.0)


def _frontend(net, **kwargs):
    kwargs.setdefault("round_interval", 0.01)
    return net.enable_frontend(**kwargs)


class TestEdgeGates:
    def test_rate_limit_throttles_burst_with_typed_rejection(self, net):
        frontend = _frontend(net, bucket_rate=1.0, bucket_burst=2.0)
        net.service_for("csp", max_connections=64)
        tickets = [
            frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
            for _ in range(3)
        ]
        assert not tickets[0].rejected and not tickets[1].rejected
        assert tickets[2].rejected
        outcome = tickets[2].outcome
        assert isinstance(outcome, api.Rejected)
        assert outcome.code == api.REJECT_RATE_LIMIT
        assert outcome.tenant == "csp"
        counters = net.metrics.counters()
        assert counters["frontend.throttled"] == 1
        assert counters["frontend.throttled.rate_limit"] == 1

    def test_quota_refusal_is_typed_and_counted(self, net):
        frontend = _frontend(net)
        net.service_for("tiny", max_connections=0)
        ticket = frontend.submit("tiny", "PREMISES-A", "PREMISES-B", 1e9)
        assert ticket.rejected
        assert ticket.outcome.code == api.REJECT_QUOTA
        assert "quota" in ticket.outcome.reason
        assert net.metrics.counters()["frontend.throttled.quota"] == 1

    def test_unknown_tenant_is_a_caller_bug(self, net):
        frontend = _frontend(net)
        with pytest.raises(AdmissionError):
            frontend.submit("nobody", "PREMISES-A", "PREMISES-B", 1e9)

    def test_quota_probe_never_mutates_the_ledger(self, net):
        """Regression: the edge probe must behave like ``admission.check``
        — refused (and admitted-but-queued) requests spend no quota."""
        frontend = _frontend(net, bucket_rate=1000.0, bucket_burst=1000.0)
        net.service_for("probe", max_connections=2, max_total_rate_gbps=100.0)
        admission = net.controller.admission
        before = admission.usage("probe")
        # Many probes, including refusals, all at the same instant.
        for _ in range(50):
            frontend.submit("probe", "PREMISES-A", "PREMISES-B", 1e9)
        assert admission.usage("probe") == before
        # The mutating path stays with the backend: run the sim and only
        # then does accepted work appear in the ledger.
        net.run()
        usage = admission.usage("probe")
        assert usage["connections"] <= 2

    def test_shedding_hysteresis_and_hard_bound(self, net):
        frontend = _frontend(
            net,
            queue_capacity=8,
            shed_high=4,
            shed_low=1,
            bucket_rate=1000.0,
            bucket_burst=1000.0,
        )
        net.service_for("csp", max_connections=256,
                        max_total_rate_gbps=10000.0)
        tickets = [
            frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
            for _ in range(10)
        ]
        # Depth hit shed_high=4 → SHEDDING; everything after is refused.
        assert frontend.state == STATE_SHEDDING
        shed = [t for t in tickets if t.rejected]
        assert all(t.outcome.code == api.REJECT_SHED for t in shed)
        assert len(shed) == 10 - 4
        assert frontend.queue_depth() <= frontend.capacity
        counters = net.metrics.counters()
        assert counters["frontend.shed"] == len(shed)
        assert counters["frontend.shed_transitions"] == 1
        # Draining below shed_low reopens the edge.
        net.run()
        assert frontend.queue_depth() == 0
        assert frontend.state == STATE_OPEN
        late = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        assert not late.rejected

    def test_gauges_report_edge_state(self, net):
        frontend = _frontend(net, queue_capacity=8, shed_high=4, shed_low=1,
                             bucket_rate=1000.0, bucket_burst=1000.0)
        net.service_for("csp", max_connections=256,
                        max_total_rate_gbps=10000.0)
        for _ in range(6):
            frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        gauges = net.metrics.snapshot()["gauges"]
        assert gauges["frontend.queue_depth"] == 4
        assert gauges["frontend.shedding"] == 1
        assert gauges["frontend.tenants"] == 1

    def test_invalid_edge_configuration_rejected(self, net):
        with pytest.raises(ConfigurationError):
            _frontend(net, queue_capacity=0)
        net2 = build_griphon_testbed(seed=3)
        with pytest.raises(ConfigurationError):
            net2.enable_frontend(shed_high=2, shed_low=2, queue_capacity=4)

    def test_enable_frontend_requires_finished_build(self):
        from repro.facade import GriphonNetwork
        from repro.topo.testbed import build_testbed_graph

        net = GriphonNetwork(build_testbed_graph())
        with pytest.raises(ConfigurationError):
            net.enable_frontend()

    def test_enable_frontend_rejects_pipeline_kwargs_when_enabled(self, net):
        net.enable_pipeline()
        with pytest.raises(ConfigurationError):
            net.enable_frontend(round_size=4)


# -- streaming outcomes ------------------------------------------------------


class TestStatusStream:
    def test_await_order_resolves_to_active_without_polling(self, net):
        frontend = _frontend(net)
        net.service_for("csp", max_connections=8)
        seen = []
        ticket = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 10e9)
        ticket.future.add_done_callback(seen.append)
        assert ticket.outcome is None
        net.run()
        assert isinstance(ticket.outcome, api.Active)
        assert seen == [ticket.outcome]
        assert net.metrics.counters()["frontend.active"] == 1

    def test_event_stream_vocabulary(self, net):
        frontend = _frontend(net)
        net.service_for("csp", max_connections=8)
        events = []
        frontend.add_listener(
            lambda ticket, event: events.append((ticket.request_id, event))
        )
        ticket = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 10e9)
        net.run()
        assert events == [
            ("req-1", "admitted"),
            ("req-1", "settled"),
            ("req-1", "active"),
        ]
        frontend._intake.teardown(ticket.order_ticket)
        net.run()
        assert events[-1] == ("req-1", "released")

    def test_order_to_active_histogram_has_p99(self, net):
        frontend = _frontend(net)
        net.service_for("csp", max_connections=8)
        frontend.submit("csp", "PREMISES-A", "PREMISES-B", 10e9)
        net.run()
        histogram = net.metrics.snapshot()["histograms"][
            "frontend.order_to_active_s"
        ]
        assert histogram["count"] == 1
        assert histogram["p99"] >= histogram["p50"] > 0

    def test_blocked_order_resolves_with_typed_blocked(self, net):
        frontend = _frontend(net)
        net.service_for("csp", max_connections=8)
        # An endpoint with no NTE → the planner blocks the order.
        ticket = frontend.submit("csp", "PREMISES-A", "ROADM-II", 10e9)
        net.run()
        assert isinstance(ticket.outcome, api.Blocked)


# -- conservation and fairness ----------------------------------------------


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_every_submission_is_accounted_for(self, seed):
        """shed + admitted + throttled == submitted, for every seed."""
        from repro.frontend.clients import ClientFleet
        from repro.workload.tenants import TenantPopulation

        net = build_griphon_testbed(seed=seed, latency_cv=0.0)
        frontend = net.enable_frontend(
            queue_capacity=16, round_interval=0.01, bucket_rate=2.0
        )
        population = TenantPopulation(50)
        fleet = ClientFleet(
            frontend,
            population,
            net.controller.admission,
            premises=["PREMISES-A", "PREMISES-B", "PREMISES-C"],
            streams=net.streams.spawn("fleet"),
            arrival_rate=30.0,
            duration=5.0,
        )
        fleet.start()
        net.run()
        counters = net.metrics.counters()
        assert counters.get("frontend.submitted", 0) == (
            counters.get("frontend.admitted", 0)
            + counters.get("frontend.shed", 0)
            + counters.get("frontend.throttled", 0)
        )
        # Every admitted order eventually resolves to a typed outcome.
        assert fleet.stats.resolved() == fleet.stats.submitted


def _compliant_latencies(seed, with_noisy):
    """p99 harness: one compliant tenant at a steady trickle, optionally
    a noisy tenant submitting at 100x its request-rate budget."""
    net = build_griphon_testbed(seed=seed, latency_cv=0.0)
    frontend = net.enable_frontend(
        queue_capacity=64, round_interval=0.01, bucket_rate=1.0,
        bucket_burst=4.0,
    )
    net.service_for("compliant", max_connections=2,
                    max_total_rate_gbps=100.0)
    latencies = []
    tickets = []

    def submit_compliant():
        ticket = frontend.submit("compliant", "PREMISES-A", "PREMISES-B", 1e9)
        tickets.append(ticket)
        ticket.future.add_done_callback(
            lambda outcome, _t=ticket: _settle(_t, outcome)
        )

    def _settle(ticket, outcome):
        if isinstance(outcome, api.Active):
            latencies.append(net.sim.now - ticket.submitted_at)
            frontend._intake.teardown(ticket.order_ticket)

    for index in range(6):
        net.sim.schedule_at(100.0 * index, submit_compliant)
    if with_noisy:
        net.service_for("noisy", max_connections=2,
                        max_total_rate_gbps=100.0)

        def flood():
            # 100 submissions per second against a 1/s budget.
            for _ in range(100):
                frontend.submit("noisy", "PREMISES-A", "PREMISES-C", 1e9)

        for tick in range(600):
            net.sim.schedule_at(float(tick), flood)
    net.run()
    return latencies


class TestNoStarvation:
    def test_noisy_tenant_cannot_degrade_compliant_p99(self):
        """A tenant at 100x its budget burns its own bucket (gate 1) and
        its own quota (gate 2) before it can touch the shared queue, so
        the compliant tenant's p99 order-to-ACTIVE stays within 2x."""
        baseline = _compliant_latencies(seed=5, with_noisy=False)
        contended = _compliant_latencies(seed=5, with_noisy=True)
        assert len(baseline) == 6
        # Every compliant order still completes under the flood.
        assert len(contended) == len(baseline)
        assert _p99(contended) <= 2.0 * _p99(baseline)


class TestOverload:
    def test_admitted_p99_at_10x_stays_within_2x_of_unloaded(self):
        """Ten times the offered load is refused at the edge, not queued:
        the orders that are admitted come up as fast as when unloaded."""
        from repro.sweep.studies import frontend_load_spec

        unloaded, overloaded = (
            trial.runner(trial).values
            for trial in frontend_load_spec(
                arrival_rates=(10.0, 100.0), duration_s=20.0
            ).trials()
        )
        assert unloaded["conserved"] and overloaded["conserved"]
        assert overloaded["submitted"] > 5 * unloaded["submitted"]
        assert overloaded["shed"] + overloaded["throttled"] > 0
        assert unloaded["active"] > 0 and overloaded["active"] > 0
        assert (
            overloaded["p99_order_to_active_s"]
            <= 2.0 * unloaded["p99_order_to_active_s"]
        )
