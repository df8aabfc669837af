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
* an unknown tenant's submission raises and leaves nothing behind;
* a refusal nobody follows allocates no ``SimFuture``, and following a
  ticket later or earlier fires its callback once, at the time the
  order's outcome is known;
* ``api.Rejected`` is a tuple, yet keeps the other outcomes' record
  contract: immutable, equal and hashed by its fields, never equal to a
  plain tuple or to another outcome type, the same ``repr`` and ``str``,
  and it pickles.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import AdmissionError
from repro.facade import build_griphon_testbed
from repro.frontend.aio import SimFuture
from repro.frontend.ratelimit import BucketSet, TokenBucket
from repro.frontend.service import PRIORITY_CLASSES
from repro.obs.registry import MetricsRegistry
from repro.pipeline.engine import TicketState

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


def _live_futures():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is SimFuture)


def _refusals(frontend):
    """100 shed, 100 rate-limited and 100 over-quota tickets.

    On an edge from :func:`_shedding_edge`, ``csp-1``'s next 100
    submissions are shed, and that spends the last of its 104 tokens.
    """
    refused = {}
    for code, tenant in (
        (api.REJECT_SHED, "csp-1"),
        (api.REJECT_RATE_LIMIT, "csp-1"),
        (api.REJECT_QUOTA, "tiny"),
    ):
        refused[code] = [
            frontend.submit(tenant, "PREMISES-A", "PREMISES-B", 1e9)
            for _ in range(100)
        ]
        assert {ticket.outcome.code for ticket in refused[code]} == {code}
    return refused


def _shedding_edge():
    """An edge whose four admissions from ``csp-1`` brought the heap to
    ``shed_high``."""
    net, frontend = _edge(
        queue_capacity=6, shed_high=4, shed_low=1, bucket_burst=104.0
    )
    for _ in range(4):
        ticket = frontend.submit("csp-1", "PREMISES-A", "PREMISES-B", 1e9)
        assert not ticket.rejected
    assert frontend.state == "shedding"
    return net, frontend


class TestUnfollowedTickets:
    def test_a_refusal_nobody_follows_allocates_no_future(self):
        net, frontend = _shedding_edge()
        before = _live_futures()
        refused = _refusals(frontend)
        assert _live_futures() == before
        assert sum(len(tickets) for tickets in refused.values()) == 300

    def test_following_a_refusal_later_fires_once_at_zero_delay(self):
        net, frontend = _shedding_edge()
        refused = _refusals(frontend)
        net.run(until=5.0)
        for tickets in refused.values():
            ticket = tickets[-1]
            outcome, status = ticket.outcome, repr(ticket)
            assert ticket.rejected and "Rejected" in status
            fired, followed_at = [], net.sim.now
            ticket.future.add_done_callback(
                lambda value: fired.append((net.sim.now, value))
            )
            assert fired == []
            assert ticket.future is ticket.future
            assert ticket.future.done and ticket.future.result() is outcome
            net.run(until=net.sim.now)
            assert fired == [(followed_at, outcome)]
            net.run(until=net.sim.now + 5.0)
            assert len(fired) == 1
            assert ticket.outcome is outcome
            assert ticket.rejected
            assert repr(ticket) == status

    def test_following_an_admitted_ticket_fires_once_when_it_settles(self):
        net, frontend = _edge()
        settled = {}
        frontend.add_listener(
            lambda t, event: settled.setdefault(t.request_id, net.sim.now)
            if event in ("active", "degraded", "failed") else None
        )
        ticket = frontend.submit("csp-2", "PREMISES-A", "PREMISES-B", 1e9)
        assert repr(ticket) == f"FrontendTicket({ticket.request_id}, csp-2, pending)"
        fired = []
        ticket.future.add_done_callback(
            lambda value: fired.append((net.sim.now, value))
        )
        assert ticket.outcome is None and not ticket.rejected
        assert not ticket.future.done
        net.run()
        assert isinstance(ticket.outcome, api.Active)
        assert fired == [(settled[ticket.request_id], ticket.outcome)]
        assert not ticket.rejected
        assert repr(ticket) == f"FrontendTicket({ticket.request_id}, csp-2, Active)"


def _rejected(**changes):
    fields = dict(
        request_id="req-7", code=api.REJECT_SHED, reason="edge shedding",
        tenant="csp-1",
    )
    fields.update(changes)
    return api.Rejected(**fields)


class TestRejectedRecord:
    def test_fields_cannot_be_assigned(self):
        rejected = _rejected()
        with pytest.raises(AttributeError):
            rejected.code = api.REJECT_QUOTA
        with pytest.raises(AttributeError):
            rejected.extra = 1
        assert rejected.code == api.REJECT_SHED

    def test_equal_only_to_a_rejected_with_equal_fields(self):
        rejected = _rejected()
        assert rejected == _rejected() and not rejected != _rejected()
        assert rejected != _rejected(tenant="csp-2")
        plain = ("req-7", api.REJECT_SHED, "edge shedding", "csp-1")
        assert rejected != plain and plain != rejected
        assert not rejected == plain and not plain == rejected
        queue_full = api.QueueFull("req-7", api.REJECT_SHED, "edge shedding")
        three = _rejected(tenant="")
        assert three != queue_full and queue_full != three
        assert not three == queue_full and not queue_full == three

    def test_hashes_by_its_fields(self):
        assert hash(_rejected()) == hash(_rejected())
        assert {_rejected(), _rejected()} == {_rejected()}
        assert _rejected(code=api.REJECT_QUOTA) not in {_rejected()}

    def test_repr_and_str(self):
        rejected = _rejected()
        assert repr(rejected) == (
            "Rejected(request_id='req-7', code='shed', "
            "reason='edge shedding', tenant='csp-1')"
        )
        assert str(rejected) == "req-7: rejected (shed) - edge shedding"
        assert api.Rejected("req-8", api.REJECT_QUOTA, "over quota").tenant == ""

    def test_pickles(self):
        rejected = _rejected()
        copy = pickle.loads(pickle.dumps(rejected))
        assert type(copy) is api.Rejected and copy == rejected

    def test_is_a_terminal_outcome(self):
        assert api.Rejected in api.TERMINAL_OUTCOMES
        assert isinstance(_rejected(), api.TERMINAL_OUTCOMES)
        net, frontend = _edge()
        ticket = frontend.submit("tiny", "PREMISES-A", "PREMISES-B", 1e9)
        assert type(ticket.outcome) is api.Rejected
        assert ticket.outcome.code == api.REJECT_QUOTA
        assert ticket.outcome.tenant == "tiny"
