"""A cut during setup must still resolve the order's ticket.

A fiber cut that lands while an order's lightpath is SETTING_UP sends
the controller down its ``failed-during-setup`` branch: the connection
never says ``up``, it comes into service through restoration and says
``restored``.  The intake used to re-broadcast nothing for that edge, so
the ``FrontendTicket`` future never resolved — an admitted order the
frontend's conservation counters could not see was lost.  The first of
``up`` / ``restored`` / ``revived`` is now the ticket's one ``active``.
"""

from repro import api
from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.optical.lightpath import LightpathState
from repro.units import GBPS


def _frontend_net():
    net = build_griphon_testbed(seed=4, latency_cv=0.0)
    net.service_for("csp")
    frontend = net.enable_frontend()
    events = []
    frontend.add_listener(lambda ticket, event: events.append((ticket, event)))
    return net, frontend, events


def _cut_route(net, connection):
    lightpath = net.inventory.lightpaths[connection.lightpath_ids[0]]
    net.controller.cut_link(lightpath.path[0], lightpath.path[1])
    return lightpath


def test_cut_during_setup_resolves_the_ticket_with_one_active():
    net, frontend, events = _frontend_net()
    hit = frontend.submit("csp", "PREMISES-A", "PREMISES-C", 10 * GBPS)
    spared = frontend.submit("csp", "PREMISES-B", "PREMISES-C", 10 * GBPS)
    net.run(until=5.0)
    connection = net.controller.connection(hit.order_ticket.connection_id)
    assert connection.state is ConnectionState.SETTING_UP
    lightpath = _cut_route(net, connection)
    assert lightpath.state is LightpathState.SETTING_UP
    net.run()
    # It came up through restoration, not through ``up``.
    assert net.metrics.counter("restoration.success") == 1
    assert connection.state is ConnectionState.UP
    assert hit.future.done
    assert isinstance(hit.outcome, api.Active)
    assert [event for ticket, event in events if ticket is hit] == [
        "admitted", "settled", "active",
    ]
    # Conservation, and every admitted ticket resolved.
    counter = net.metrics.counter
    assert counter("frontend.submitted") == (
        counter("frontend.admitted")
        + counter("frontend.shed")
        + counter("frontend.throttled")
    )
    assert counter("frontend.admitted") == 2
    assert hit.future.done and spared.future.done
    assert counter("frontend.active") == 2


def test_later_restoration_sends_no_second_active():
    net, frontend, events = _frontend_net()
    ticket = frontend.submit("csp", "PREMISES-A", "PREMISES-C", 10 * GBPS)
    net.run()
    assert isinstance(ticket.outcome, api.Active)
    connection = net.controller.connection(ticket.order_ticket.connection_id)
    _cut_route(net, connection)
    net.run()
    assert net.metrics.counter("restoration.success") == 1
    assert connection.state is ConnectionState.UP
    net.pipeline.teardown(ticket.order_ticket)
    net.run()
    assert [event for _, event in events] == [
        "admitted", "settled", "active", "released",
    ]
