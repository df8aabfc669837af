"""One record per order, from the service edge to its release.

``BodFrontend.submit`` returns the record the intake queued, so the
customer's ticket, the intake's ticket and the heap entry are one
object:

* an admitted order's ``order_ticket`` is the ticket itself, and the
  intake's listeners hear that same object;
* an edge refusal is a record the intake never sees: its
  ``order_ticket`` is None and it spends no ``order-N`` id;
* a deferred premium order goes back into the heap as itself, with the
  key it was queued under, still ahead of every standard order;
* a benchmark run keeps exactly one ticket record per submission.
"""

import gc

import pytest

from bench.driver import Driver
from bench.workloads import BUILDERS
from repro import api
from repro.core.connection import ConnectionKind
from repro.facade import build_griphon_testbed
from repro.frontend.service import FrontendTicket
from repro.pipeline.engine import OrderTicket, TicketState


def _edge(net, **kwargs):
    frontend = net.enable_frontend(
        premium_tenants=("vip",), bucket_rate=1000.0, bucket_burst=1000.0,
        **kwargs,
    )
    for tenant in ("vip", "csp"):
        net.service_for(tenant, max_connections=64, max_total_rate_gbps=10000)
    return frontend


def test_both_names_are_one_class():
    assert FrontendTicket is OrderTicket


def test_an_admitted_ticket_is_the_intakes_ticket():
    net = build_griphon_testbed(seed=5, latency_cv=0.0)
    frontend = _edge(net)
    heard = []
    net.pipeline.add_listener(lambda ticket, event: heard.append(ticket))
    ticket = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
    assert ticket.order_ticket is ticket
    assert net.pipeline.ticket(ticket.order_id) is ticket
    net.run()
    assert isinstance(ticket.outcome, api.Active)
    assert heard and all(order is ticket for order in heard)


def test_a_refusal_spends_no_order_id():
    net = build_griphon_testbed(seed=5, latency_cv=0.0)
    frontend = _edge(net, queue_capacity=1, shed_high=1, shed_low=0)
    first = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
    refused = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
    assert refused.rejected and refused.order_ticket is None
    assert refused.order_id is None and refused.state is None
    net.run()
    admitted = frontend.submit("csp", "PREMISES-A", "PREMISES-C", 1e9)
    assert (first.order_id, admitted.order_id) == ("order-1", "order-2")
    assert net.pipeline.tickets() == [first, admitted]


def test_a_deferred_premium_order_keeps_its_key_ahead_of_standard():
    net = build_griphon_testbed(seed=0, grid_size=1)
    frontend = _edge(net, round_size=4, round_interval=5.0, max_defers=1)
    standard = [
        frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        for _ in range(3)
    ]
    # Four premium wavelengths over one channel per link: the round
    # places the premium orders first, and the later ones lose
    # contention to the earlier ones.
    premium = [
        frontend.submit(
            "vip", "PREMISES-A", "PREMISES-C", 10e9, ConnectionKind.WAVELENGTH
        )
        for _ in range(4)
    ]
    keys = {ticket: ticket._key for ticket in premium}
    net.run(until=0.0)
    deferred = [ticket for ticket in premium if ticket.rounds_deferred]
    assert deferred
    assert all(ticket.state is TicketState.QUEUED for ticket in deferred)
    waiting = sorted(net.pipeline._heap)
    assert waiting == deferred + standard
    assert all(ticket._key == keys[ticket] for ticket in premium)
    assert net.pipeline.premium_depth() == len(deferred)


def _ticket_records():
    kinds = (OrderTicket, FrontendTicket)
    return sum(type(obj) in kinds for obj in gc.get_objects())


@pytest.mark.parametrize("workload", ["edge-overload", "mono-churn"])
def test_a_run_keeps_one_record_per_submission(workload):
    world = BUILDERS[workload](11, 0.02, None)
    try:
        driver = Driver(world)
        gc.collect()
        before = _ticket_records()
        driver.load()
        driver.run()
        admitted = sum(
            ticket.order_ticket is not None for ticket in driver.tickets
        )
        assert 0 < admitted <= driver.submissions
        assert _ticket_records() - before == driver.submissions
    finally:
        world.close()
