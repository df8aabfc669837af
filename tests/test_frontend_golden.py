"""Golden of the service edge: one overload-shaped run, ticket by ticket.

A checked-in JSON golden (``tests/golden/frontend_edge.json``) pins
down what :class:`repro.frontend.BodFrontend` decides under a thundering
herd on the Fig. 4 testbed:

* per ticket, in submission order: ``request_id``, outcome type,
  refusal ``code``, ``reason`` and the backend ``settled_at`` (None for
  an edge refusal);
* every ``frontend.*`` counter, *in insertion order* — the order
  :meth:`repro.obs.registry.MetricsRegistry.counters` reports them in;
* every ``frontend.*`` gauge at the end of the run.

The stream has the shape of the ``edge-overload`` benchmark workload:
Zipf-popular tenants, submissions in 1-s bursts, one premium tenant,
tenants whose quota is below one order, and a submission queue small enough
that premium traffic reaches the hard capacity bound.  Every edge
decision (rate limit, quota, hysteresis shed, hard-bound shed) and the
backend's ``Active`` / ``Blocked`` outcomes occur in it.

The comparison is exact.  After an *intentional* change to the edge,
regenerate the golden and review the diff::

    PYTHONPATH=src python -c \
        "from tests.test_frontend_golden import regenerate; regenerate()"
"""

import json
import random
from pathlib import Path

from repro import api
from repro.facade import build_griphon_testbed
from repro.topo.testbed import TESTBED_PREMISES

GOLDEN_PATH = Path(__file__).parent / "golden" / "frontend_edge.json"

SEED = 2026
TENANTS = 40
ZIPF_S = 1.1
BURSTS = 20
PER_BURST = 60
PREMIUM = "tenant-1"
CAPACITY = 10


def _schedule(rng):
    """``(at, tenant, premises_a, premises_b)`` per submission."""
    premises = sorted(TESTBED_PREMISES)
    tenants = [f"tenant-{rank}" for rank in range(1, TENANTS + 1)]
    weights = [1.0 / rank**ZIPF_S for rank in range(1, TENANTS + 1)]
    orders = []
    for burst in range(BURSTS):
        for tenant in rng.choices(tenants, weights, k=PER_BURST):
            premises_a, premises_b = rng.sample(premises, 2)
            orders.append((float(burst), tenant, premises_a, premises_b))
    return tenants, orders


def run_edge():
    """Replay the stream; returns ``(tickets, metrics)`` after the run."""
    net = build_griphon_testbed(seed=SEED, latency_cv=0.0)
    frontend = net.enable_frontend(
        queue_capacity=CAPACITY, shed_high=7, shed_low=2,
        bucket_rate=6.0, bucket_burst=8.0, round_interval=0.01,
        premium_tenants=(PREMIUM,),
    )
    tenants, orders = _schedule(random.Random(SEED))
    for rank, tenant in enumerate(tenants, start=1):
        # Every fourth tenant bought less than one 10G order's rate, so
        # each of its submissions that passes its bucket meets gate 2.
        net.service_for(
            tenant,
            max_connections=64 if tenant == PREMIUM else 4,
            max_total_rate_gbps=5.0 if rank % 4 == 0 else 800.0,
        )
    tickets = []

    def submit(tenant, premises_a, premises_b):
        tickets.append(
            frontend.submit(tenant, premises_a, premises_b, 10e9)
        )

    def on_event(ticket, event):
        # Held for no time at all, like the benchmark's overload stream.
        if event == "active":
            net.sim.schedule(0.0, net.pipeline.teardown, ticket.order_ticket)

    frontend.add_listener(on_event)
    net.sim.schedule_many(
        [(at, submit, (tenant, a, b)) for at, tenant, a, b in orders]
    )
    net.run()
    return tickets, net.metrics


def build_payload():
    """Recompute everything the golden file pins down."""
    tickets, metrics = run_edge()
    rows = []
    for ticket in tickets:
        outcome = ticket.outcome
        order = ticket.order_ticket
        rows.append([
            ticket.request_id,
            type(outcome).__name__,
            getattr(outcome, "code", None),
            getattr(outcome, "reason", None),
            None if order is None else order.settled_at,
        ])
    snapshot = metrics.snapshot()
    return {
        "tickets": rows,
        "counters": [
            [name, value] for name, value in snapshot["counters"].items()
            if name.startswith("frontend.")
        ],
        "gauges": {
            name: value for name, value in snapshot["gauges"].items()
            if name.startswith("frontend.")
        },
    }


def regenerate():
    """Rewrite the golden from the current code (review the diff!)."""
    GOLDEN_PATH.write_text(json.dumps(build_payload(), indent=1) + "\n")


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestFrontendEdgeGolden:
    def test_every_ticket_decides_as_pinned(self):
        payload = build_payload()
        golden = _golden()
        assert len(payload["tickets"]) == BURSTS * PER_BURST
        for row, pinned in zip(payload["tickets"], golden["tickets"]):
            assert row == pinned, row[0]
        assert len(payload["tickets"]) == len(golden["tickets"])

    def test_counters_match_in_insertion_order(self):
        assert build_payload()["counters"] == _golden()["counters"]

    def test_gauges_match_at_the_end(self):
        assert build_payload()["gauges"] == _golden()["gauges"]

    def test_stream_exercises_every_edge_decision(self):
        """The golden is only worth its size if each gate fires in it."""
        rows = _golden()["tickets"]
        codes = {row[2] for row in rows if row[1] == "Rejected"}
        assert codes == {
            api.REJECT_RATE_LIMIT, api.REJECT_QUOTA, api.REJECT_SHED
        }
        # The hard bound refuses at full capacity; hysteresis earlier.
        shed = [row[3] for row in rows if row[2] == api.REJECT_SHED]
        assert f"service is shedding load ({CAPACITY} queued)" in shed
        assert any(f"({CAPACITY} queued)" not in reason for reason in shed)
        assert {"Active", "Blocked"} <= {row[1] for row in rows}
        counters = dict(_golden()["counters"])
        assert counters["frontend.shed.premium"] > 0
        assert counters["frontend.submitted"] == (
            counters["frontend.admitted"]
            + counters["frontend.shed"]
            + counters["frontend.throttled"]
        )
