"""What an edge decision costs, and what it must keep meaning.

The service edge counts each decision in one ``inc_each`` call, reads
its queue depth from the intake's one heap, takes a token in one frame
and emits to a listener tuple.  These tests pin the meaning those
shortcuts must keep:

* across random interleavings of submits (both priority classes),
  stretches of simulated time and teardowns, ``queue_depth()`` equals
  the admitted tickets still waiting for a round, and
  ``submitted == admitted + shed + throttled`` holds overall and per
  class after every step;
* ``MetricsRegistry.inc_each`` is the same names passed to ``inc`` one
  by one — values and first-insertion order;
* ``BucketSet.try_take`` decides exactly as one ``TokenBucket`` per
  tenant;
* a listener added during an emit first hears the next event, on both
  ``BodFrontend`` and ``RoundIntake``;
* an unknown tenant's submission raises and leaves nothing behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import AdmissionError
from repro.facade import build_griphon_testbed
from repro.frontend import PRIORITY_CLASSES, BucketSet, TokenBucket
from repro.obs.registry import MetricsRegistry
from repro.pipeline import TicketState

TENANTS = ("vip", "csp-1", "csp-2", "tiny")
PREMISES = ("PREMISES-A", "PREMISES-B", "PREMISES-C")


def _edge(seed=5, **kwargs):
    net = build_griphon_testbed(seed=seed, latency_cv=0.0)
    kwargs.setdefault("premium_tenants", ("vip",))
    frontend = net.enable_frontend(round_interval=0.01, **kwargs)
    for tenant in TENANTS:
        net.service_for(
            tenant,
            max_connections=0 if tenant == "tiny" else 64,
            max_total_rate_gbps=1000.0,
        )
    return net, frontend


def _frontend_counters(net):
    return {
        name: value for name, value in net.metrics.counters().items()
        if name.startswith("frontend.")
    }


def _conserved(counters, suffix=""):
    return counters.get(f"frontend.submitted{suffix}", 0) == (
        counters.get(f"frontend.admitted{suffix}", 0)
        + counters.get(f"frontend.shed{suffix}", 0)
        + counters.get(f"frontend.throttled{suffix}", 0)
    )


_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(TENANTS),
            st.integers(min_value=1, max_value=6),
        ),
        st.tuples(st.just("run"), st.sampled_from((0.0, 0.01, 0.2, 5.0))),
        st.tuples(st.just("teardown"), st.integers(min_value=0, max_value=7)),
    ),
    min_size=1,
    max_size=25,
)


class TestEdgeInterleavings:
    @settings(max_examples=25, deadline=None)
    @given(steps=_steps)
    def test_depth_and_conservation_hold_after_every_step(self, steps):
        net, frontend = _edge(
            queue_capacity=6, shed_high=4, shed_low=1, bucket_rate=2.0,
            bucket_burst=4.0, capacity=2,
        )
        tickets, torn = [], set()
        for step in steps:
            if step[0] == "submit":
                _, tenant, count = step
                for index in range(count):
                    tickets.append(frontend.submit(
                        tenant, PREMISES[index % 3], PREMISES[(index + 1) % 3],
                        1e9,
                    ))
            elif step[0] == "run":
                net.run(until=net.sim.now + step[1])
            else:
                active = [
                    t for t in tickets
                    if isinstance(t.outcome, api.Active) and t not in torn
                ]
                if active:
                    ticket = active[step[1] % len(active)]
                    torn.add(ticket)
                    net.pipeline.teardown(ticket.order_ticket)
            waiting = {level: 0 for level in PRIORITY_CLASSES}
            for ticket in tickets:
                order = ticket.order_ticket
                if order is not None and order.state is TicketState.QUEUED:
                    waiting[ticket.priority] += 1
            assert frontend.queue_depth() == sum(waiting.values())
            assert frontend.queue_depth() <= frontend.capacity
            assert net.metrics.gauge("frontend.queue_depth.premium") == (
                waiting["premium"]
            )
            counters = net.metrics.counters()
            assert counters.get("frontend.submitted", 0) == len(tickets)
            assert _conserved(counters)
            for level in PRIORITY_CLASSES:
                assert _conserved(counters, f".{level}")


_names = st.lists(
    st.sampled_from(("a", "b", "c", "d.x", "d.y")), max_size=8
).map(tuple)


class TestIncEach:
    @given(before=_names, names=_names)
    def test_same_as_inc_one_by_one(self, before, names):
        batched, single = MetricsRegistry(), MetricsRegistry()
        for registry in (batched, single):
            for name in before:
                registry.inc(name)
        batched.inc_each(names)
        for name in names:
            single.inc(name)
        assert batched.counters() == single.counters()
        assert list(batched.counters()) == list(single.counters())


class TestBucketSet:
    @given(
        takes=st.lists(
            st.tuples(
                st.sampled_from(("t1", "t2", "t3")),
                st.floats(min_value=0.0, max_value=3.0),
            ),
            max_size=40,
        ),
        rate=st.sampled_from((0.5, 1.0, 2.5)),
        burst=st.sampled_from((1.0, 2.0, 8.0)),
    )
    def test_decides_like_one_token_bucket_per_tenant(self, takes, rate, burst):
        buckets = BucketSet(rate, burst)
        reference = {}
        now = 0.0
        for tenant, gap in takes:
            now += gap
            if tenant not in reference:
                reference[tenant] = TokenBucket(rate, burst, now)
            assert buckets.try_take(tenant, now) == (
                reference[tenant].try_take(now)
            )
        assert len(buckets) == len(reference)


class TestListenerSnapshot:
    def test_frontend_listener_added_mid_emit_misses_that_event(self):
        net, frontend = _edge()
        late = []
        seen = []

        def first(ticket, event):
            seen.append((ticket.request_id, event))
            if len(seen) == 1:
                frontend.add_listener(
                    lambda t, e: late.append((t.request_id, e))
                )

        frontend.add_listener(first)
        frontend.submit("csp-1", "PREMISES-A", "PREMISES-B", 1e9)
        assert seen == [("req-1", "admitted")]
        assert late == []
        frontend.submit("tiny", "PREMISES-A", "PREMISES-B", 1e9)
        assert late == [("req-2", "rejected")]

    def test_intake_listener_added_mid_emit_misses_that_event(self):
        net = build_griphon_testbed(seed=5, latency_cv=0.0)
        intake = net.enable_pipeline(capacity=1)
        late = []
        seen = []

        def first(ticket, event):
            seen.append((ticket.order_id, event))
            if len(seen) == 1:
                intake.add_listener(
                    lambda t, e: late.append((t.order_id, e))
                )

        intake.add_listener(first)
        intake.submit("c", "PREMISES-A", "PREMISES-B", 1e9)
        # The queue holds one order: the next two settle QUEUE_FULL inline.
        intake.submit("c", "PREMISES-A", "PREMISES-B", 1e9)
        assert seen == [("order-2", "settled")]
        assert late == []
        intake.submit("c", "PREMISES-A", "PREMISES-B", 1e9)
        assert late == [("order-3", "settled")]


class TestUnknownTenant:
    def test_raises_and_leaves_nothing_behind(self):
        net, frontend = _edge()
        frontend.submit("csp-1", "PREMISES-A", "PREMISES-B", 1e9)
        counters = net.metrics.counters()
        with pytest.raises(AdmissionError):
            frontend.submit("ghost", "PREMISES-A", "PREMISES-B", 1e9)
        assert net.metrics.counters() == counters
        assert net.metrics.gauge("frontend.tenants") == 1
        assert _conserved(counters)
        after = frontend.submit("csp-1", "PREMISES-A", "PREMISES-B", 1e9)
        assert after.request_id == "req-2"

    def test_raises_every_time_even_past_a_burst(self):
        """A ghost's refusals spend no tokens, so it never turns into a
        rate-limit outcome."""
        net, frontend = _edge(bucket_burst=2.0)
        for _ in range(5):
            with pytest.raises(AdmissionError):
                frontend.submit("ghost", "PREMISES-A", "PREMISES-B", 1e9)
        assert _frontend_counters(net) == {}
        assert net.metrics.gauge("frontend.tenants") == 0
