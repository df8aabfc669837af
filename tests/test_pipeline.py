"""Unit tests for the concurrent order pipeline.

Covers intake backpressure (bounded queue, QueueFull outcomes), the
defer/retry policy under wavelength contention, deterministic ordering
(arrival order and the seeded tiebreak), ticket introspection, the
typed `BodService` surface, the batched RWA entry point, and the
same-instant last-wavelength race the serial path resolves by call
order only.
"""

import pytest

from repro.api import Deferred, QueueFull
from repro.core.connection import ConnectionKind, ConnectionState
from repro.core.rwa import PlanRequest
from repro.errors import ConfigurationError
from repro.facade import build_griphon_testbed
from repro.faults import audit_network
from repro.pipeline import TicketState
from repro.units import GBPS


def _pipeline_net(seed=0, **kwargs):
    net = build_griphon_testbed(seed=seed)
    net.enable_pipeline(**kwargs)
    return net


# -- construction & configuration -------------------------------------------


def test_enable_pipeline_requires_finished_build():
    from repro.facade import GriphonNetwork
    from repro.topo.testbed import build_testbed_graph

    net = GriphonNetwork(build_testbed_graph())
    with pytest.raises(ConfigurationError):
        net.enable_pipeline()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"capacity": 0},
        {"round_size": 0},
        {"round_interval": -1.0},
        {"max_defers": -1},
    ],
)
def test_invalid_pipeline_parameters_rejected(kwargs):
    net = build_griphon_testbed()
    with pytest.raises(ConfigurationError):
        net.enable_pipeline(**kwargs)


def test_submit_without_pipeline_is_a_configuration_error():
    net = build_griphon_testbed()
    service = net.service_for("csp")
    with pytest.raises(ConfigurationError, match="no order pipeline"):
        service.submit_connection("PREMISES-A", "PREMISES-B", 10)


# -- intake & backpressure ---------------------------------------------------


def test_full_queue_settles_queue_full_without_spending_quota():
    net = _pipeline_net(capacity=2)
    service = net.service_for("csp")
    tickets = [
        service.submit_connection("PREMISES-A", "PREMISES-B", 10)
        for _ in range(3)
    ]
    assert [t.state for t in tickets[:2]] == [TicketState.QUEUED] * 2
    refused = tickets[2]
    assert refused.state is TicketState.QUEUE_FULL
    assert refused.settled
    assert refused.connection_id is None
    outcome = service.order_outcome(refused)
    assert isinstance(outcome, QueueFull)
    assert outcome.capacity == 2
    assert "queue is full" in outcome.reason
    # Backpressure must not touch the admission ledger.
    assert net.controller.admission.usage("csp")["connections"] == 0
    assert net.metrics.counters()["pipeline.queue_full"] == 1


def test_queued_outcome_is_none_until_the_round_runs():
    net = _pipeline_net()
    service = net.service_for("csp")
    ticket = service.submit_connection("PREMISES-A", "PREMISES-C", 10)
    assert service.order_outcome(ticket) is None
    net.run()
    connection = service.order_outcome(ticket)
    assert ticket.state is TicketState.ACCEPTED
    assert connection.state is ConnectionState.UP
    assert ticket.settled_at is not None


def test_ticket_lookup_and_listing():
    net = _pipeline_net()
    service = net.service_for("csp")
    ticket = service.submit_connection("PREMISES-A", "PREMISES-B", 10)
    assert net.pipeline.ticket(ticket.order_id) is ticket
    assert net.pipeline.tickets() == [ticket]
    with pytest.raises(ConfigurationError):
        net.pipeline.ticket("order-999")


def test_queue_drains_and_gauge_returns_to_zero():
    net = _pipeline_net(round_size=2)
    service = net.service_for("csp", max_connections=64)
    for _ in range(5):
        service.submit_connection("PREMISES-A", "PREMISES-C", 1)
    assert net.pipeline.queue_depth() == 5
    assert net.metrics.gauge("pipeline.queue_depth") == 5
    net.run()
    assert net.pipeline.queue_depth() == 0
    assert net.metrics.gauge("pipeline.queue_depth") == 0
    assert net.pipeline.rounds == 3


def test_late_submission_restarts_the_round_loop():
    net = _pipeline_net()
    service = net.service_for("csp")
    first = service.submit_connection("PREMISES-A", "PREMISES-B", 10)
    net.run()
    assert first.state is TicketState.ACCEPTED
    second = service.submit_connection("PREMISES-B", "PREMISES-C", 10)
    net.run()
    assert second.state is TicketState.ACCEPTED
    # The second burst arrived after the first round finished setting up.
    assert second.submitted_at > first.submitted_at


def test_blocked_reason_matches_serial_path():
    serial = build_griphon_testbed(seed=0)
    serial_service = serial.service_for("csp", premises=["PREMISES-A"])
    piped = _pipeline_net()
    piped_service = piped.service_for("csp", premises=["PREMISES-A"])

    conn = serial_service.request_connection("PREMISES-A", "PREMISES-B", 10)
    serial.run()
    ticket = piped_service.submit_connection("PREMISES-A", "PREMISES-B", 10)
    piped.run()
    assert ticket.state is TicketState.BLOCKED
    assert ticket.reason == conn.blocked_reason
    assert piped_service.order_outcome(ticket).blocked_reason == ticket.reason


# -- determinism -------------------------------------------------------------


def _burst_states(seed, seeded_tiebreak):
    net = _pipeline_net(seed=seed, seeded_tiebreak=seeded_tiebreak)
    service = net.service_for("csp", max_connections=64)
    pairs = [
        ("PREMISES-A", "PREMISES-B"),
        ("PREMISES-A", "PREMISES-C"),
        ("PREMISES-B", "PREMISES-C"),
    ]
    tickets = [
        service.submit_connection(*pairs[i % 3], rate_gbps=10)
        for i in range(9)
    ]
    net.run()
    return [(t.state.value, t.connection_id, t.rounds_deferred) for t in tickets]


@pytest.mark.parametrize("seeded_tiebreak", [False, True])
def test_same_seed_same_outcome(seeded_tiebreak):
    assert _burst_states(3, seeded_tiebreak) == _burst_states(3, seeded_tiebreak)


# -- the batched RWA entry point ---------------------------------------------


def test_plan_batch_single_request_matches_plan():
    net = build_griphon_testbed(seed=0)
    engine = net.controller.rwa
    solo = net.controller.rwa.plan("ROADM-I", "ROADM-IV", 10 * GBPS)
    [item] = engine.plan_batch(
        [PlanRequest("ROADM-I", "ROADM-IV", 10 * GBPS)]
    )
    assert item.ok and item.error is None and not item.contended
    assert item.plan.path == solo.path
    assert [s.channel for s in item.plan.segments] == [
        s.channel for s in solo.segments
    ]
    assert item.plan.regen_sites == solo.regen_sites


def test_plan_batch_empty_round():
    net = build_griphon_testbed(seed=0)
    assert net.controller.rwa.plan_batch([]) == []


# -- the last-wavelength race ------------------------------------------------
#
# Regression for the serial API's order dependence: with one wavelength
# per link and the route pinned, two same-instant orders both get channel
# 0 from back-to-back plan() calls — whichever claims first wins and the
# loser fails at claim time.  plan_batch validates the second plan against
# the round's earlier claims, so the loser is reported as *contended* (a
# defer, not a block) instead of silently double-assigned.

_PIN_ROUTE = (("ROADM-I", "ROADM-IV"), ("ROADM-I", "ROADM-III"))


def test_plan_batch_flags_same_round_wavelength_contention():
    net = build_griphon_testbed(seed=0, grid_size=1)
    engine = net.controller.rwa
    # The serial engine hands both callers the same channel.
    plans = [
        engine.plan(
            "ROADM-I", "ROADM-IV", 10 * GBPS, excluded_links=list(_PIN_ROUTE)
        )
        for _ in range(2)
    ]
    assert [s.channel for s in plans[0].segments] == [
        s.channel for s in plans[1].segments
    ]
    request = PlanRequest(
        "ROADM-I", "ROADM-IV", 10 * GBPS, excluded_links=_PIN_ROUTE
    )
    first, second = net.controller.rwa.plan_batch([request, request])
    assert first.ok
    assert not second.ok
    assert second.contended
    assert "wavelength" in str(second.error)


def test_pipeline_resolves_same_instant_contention_deterministically():
    results = []
    for _ in range(2):
        net = build_griphon_testbed(seed=0, grid_size=1)
        net.enable_pipeline(round_size=4, max_defers=1)
        service = net.service_for(
            "csp", max_connections=64, max_total_rate_gbps=10000
        )
        tickets = [
            service.submit_connection(
                "PREMISES-A", "PREMISES-C", 10, ConnectionKind.WAVELENGTH
            )
            for _ in range(6)
        ]
        net.run()
        assert all(t.settled for t in tickets)
        states = [t.state for t in tickets]
        # Winners took the channel; losers were retried before settling.
        assert states.count(TicketState.ACCEPTED) >= 1
        assert any(t.rounds_deferred >= 1 for t in tickets)
        assert all(t.rounds_deferred <= 1 for t in tickets)
        assert audit_network(net.controller).ok
        results.append([(t.state.value, t.rounds_deferred) for t in tickets])
    assert results[0] == results[1]


def test_terminal_defer_returns_quota_and_typed_outcome():
    net = build_griphon_testbed(seed=0, grid_size=1)
    net.enable_pipeline(round_size=4, max_defers=0)
    service = net.service_for(
        "csp", max_connections=64, max_total_rate_gbps=10000
    )
    tickets = [
        service.submit_connection(
            "PREMISES-A", "PREMISES-C", 10, ConnectionKind.WAVELENGTH
        )
        for _ in range(4)
    ]
    net.run()
    deferred = [t for t in tickets if t.state is TicketState.DEFERRED]
    assert deferred, "max_defers=0 must settle contention losers DEFERRED"
    for ticket in deferred:
        outcome = service.order_outcome(ticket)
        assert isinstance(outcome, Deferred)
        assert "contention" in outcome.reason
        assert ticket.connection_id is None
    # Withdrawn orders must not linger in the ledger or the records.
    usage = net.controller.admission.usage("csp")
    accepted = [t for t in tickets if t.state is TicketState.ACCEPTED]
    assert usage["connections"] == len(accepted)
    assert audit_network(net.controller).ok


# -- fairness / no starvation ------------------------------------------------


def test_no_starvation_under_sustained_overload():
    """Every order settles within a bounded number of rounds.

    A sustained overload (several same-instant bursts, far more demand
    than the testbed holds) must leave no ticket queued forever: each is
    provisioned or typed BLOCKED/DEFERRED, deferred losers retry at most
    ``max_defers`` times, and the queue gauge returns to zero.
    """
    net = build_griphon_testbed(seed=1, grid_size=4)
    net.enable_pipeline(round_size=4, round_interval=5.0, max_defers=2)
    service = net.service_for(
        "csp", max_connections=256, max_total_rate_gbps=100000
    )
    pairs = [
        ("PREMISES-A", "PREMISES-B"),
        ("PREMISES-A", "PREMISES-C"),
        ("PREMISES-B", "PREMISES-C"),
    ]
    tickets = []

    def burst():
        for i in range(8):
            tickets.append(
                service.submit_connection(*pairs[i % 3], rate_gbps=10)
            )

    for at in (0.0, 1.0, 2.0):
        net.sim.schedule(at, burst)
    net.run()

    assert len(tickets) == 24
    assert all(t.settled for t in tickets), [t.state for t in tickets]
    assert all(t.rounds_deferred <= 2 for t in tickets)
    assert net.pipeline.queue_depth() == 0
    assert net.metrics.gauge("pipeline.queue_depth") == 0
    # Deferred retries keep their original priority: nothing settles
    # later than the round budget allows (queue of 24, >=4 per round,
    # plus max_defers retries each).
    assert net.pipeline.rounds <= 24 // 4 * 3 + 3
    assert audit_network(net.controller).ok


# -- observability -----------------------------------------------------------


def test_pipeline_spans_and_metrics():
    net = build_griphon_testbed(seed=0, tracing=True)
    net.enable_pipeline(round_size=2)
    service = net.service_for("csp", max_connections=64)
    for _ in range(3):
        service.submit_connection("PREMISES-A", "PREMISES-C", 10)
    net.run()
    rounds = net.tracer.spans("pipeline.round")
    assert len(rounds) == 2
    assert [s.tags["orders"] for s in rounds] == [2, 1]
    assert net.tracer.spans("rwa.plan_batch")
    counters = net.metrics.counters()
    assert counters["pipeline.submitted"] == 3
    assert counters["pipeline.accepted"] == 3
    assert counters["pipeline.rounds"] == 2
