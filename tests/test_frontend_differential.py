"""Differential: one frontend, two backends, identical outcomes.

The one intake contract, :class:`~repro.pipeline.engine.RoundIntake`,
promises the frontend is deployment-agnostic.  This file proves it twice over:

* the same :class:`~repro.frontend.BodFrontend` drives the sharded and
  the monolithic-twin deployment of one 2-region hierarchy to identical
  typed outcome streams (satellite 2's acceptance gate);
* both the monolithic :class:`~repro.pipeline.OrderPipeline` and the
  :class:`~repro.shard.ShardIntake` adapter are that contract and
  speak the same event vocabulary.
"""

from repro import api
from repro.core.admission import CustomerProfile
from repro.frontend.service import BodFrontend
from repro.pipeline.engine import RoundIntake
from repro.shard import ShardIntake, build_sharded_network
from repro.topo.hierarchy import build_hierarchy
from repro.units import GBPS

#: The frontend submission stream: cross-region orders, an intra-region
#: order, and a repeat pair for contention — same for both deployments.
SUBMISSIONS = [
    ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
    ("csp", "DC-R00-P02", "DC-R00-P05", 10 * GBPS),
    ("csp", "DC-R00-P00", "DC-R01-P03", 10 * GBPS),
    ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
    ("csp", "DC-R01-P01", "DC-R00-P04", 10 * GBPS),
]


def _drive_frontend(mode):
    """Run the same submission stream through a frontend over ``mode``."""
    hierarchy = build_hierarchy(
        seed=11, regions=2, pops_per_region=6, with_premises=True
    )
    network = build_sharded_network(seed=11, mode=mode, hierarchy=hierarchy)
    network.register_customer(
        CustomerProfile(
            "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
        )
    )
    intake = ShardIntake(network, round_size=4, round_interval=0.01)
    frontend = BodFrontend(
        intake,
        network.admission,
        network.sim,
        queue_capacity=32,
        bucket_rate=100.0,
        bucket_burst=100.0,
    )
    events = []
    frontend.add_listener(
        lambda ticket, event: events.append((ticket.request_id, event))
    )
    tickets = [
        frontend.submit(customer, a, b, rate)
        for customer, a, b, rate in SUBMISSIONS
    ]
    network.run()
    return frontend, tickets, events


def _per_request(events):
    """Each request's own event sequence, keyed by request id."""
    sequences = {}
    for request_id, event in events:
        sequences.setdefault(request_id, []).append(event)
    return sequences


def _outcome_signature(tickets):
    """Deployment-independent view of the typed outcomes."""
    signature = []
    for ticket in tickets:
        outcome = ticket.outcome
        entry = {
            "request": ticket.request_id,
            "type": type(outcome).__name__,
        }
        if isinstance(outcome, api.Blocked):
            entry["reason"] = outcome.blocked_reason
        signature.append(entry)
    return signature


class TestFrontendOverBothDeployments:
    def test_sharded_and_monolithic_outcomes_identical(self):
        _, sharded_tickets, sharded_events = _drive_frontend("sharded")
        _, mono_tickets, mono_events = _drive_frontend("monolithic")
        assert _outcome_signature(sharded_tickets) == _outcome_signature(
            mono_tickets
        )
        # Setup *timings* legitimately differ between deployments (the
        # shard fingerprint excludes them too), so concurrent setups may
        # conclude in a different global order — but each request's own
        # event sequence must be identical.
        assert _per_request(sharded_events) == _per_request(mono_events)

    def test_every_submission_resolves_typed(self):
        _, tickets, _ = _drive_frontend("sharded")
        for ticket in tickets:
            assert isinstance(ticket.outcome, api.TERMINAL_OUTCOMES)

    def test_active_orders_stream_released_on_teardown(self):
        frontend, tickets, events = _drive_frontend("sharded")
        active = [
            t for t in tickets if isinstance(t.outcome, api.Active)
        ]
        assert active  # the stream must place at least one order
        frontend._intake.teardown(active[0].order_ticket)
        frontend._sim.run()
        assert (active[0].request_id, "released") in events


class TestIntakeProtocol:
    def test_both_backends_satisfy_order_intake(self):
        from repro.facade import build_griphon_testbed

        net = build_griphon_testbed(seed=2)
        pipeline = net.enable_pipeline()
        assert isinstance(pipeline, RoundIntake)

        hierarchy = build_hierarchy(
            seed=2, regions=2, pops_per_region=4, with_premises=True
        )
        network = build_sharded_network(seed=2, hierarchy=hierarchy)
        assert isinstance(ShardIntake(network), RoundIntake)

    def test_shard_intake_queue_full_is_backpressure(self):
        hierarchy = build_hierarchy(
            seed=3, regions=2, pops_per_region=4, with_premises=True
        )
        network = build_sharded_network(seed=3, hierarchy=hierarchy)
        network.register_customer(
            CustomerProfile(
                "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
            )
        )
        intake = ShardIntake(network, capacity=2)
        tickets = [
            intake.submit("csp", "DC-R00-P00", "DC-R01-P01", 10 * GBPS)
            for _ in range(3)
        ]
        refused = intake.outcome(tickets[2])
        assert isinstance(refused, api.QueueFull)
        assert refused.capacity == 2
