"""Per-tenant priority classes at the service edge.

Premium tenants ride the premium class of the intake's one heap: their
orders wait ahead of every standard order, hysteresis shedding never
refuses them (only the hard bound does), and the conservation law
``submitted == admitted + shed + throttled`` holds per class.
"""

import pytest

from repro import api
from repro.facade import build_griphon_testbed
from repro.frontend.service import PRIORITY_CLASSES, STATE_SHEDDING


@pytest.fixture
def net():
    return build_griphon_testbed(seed=5, latency_cv=0.0)


def _frontend(net, **kwargs):
    kwargs.setdefault("round_interval", 0.01)
    kwargs.setdefault("bucket_rate", 1000.0)
    kwargs.setdefault("bucket_burst", 1000.0)
    kwargs.setdefault("premium_tenants", ("vip",))
    return net.enable_frontend(**kwargs)


def _register(net, *tenants):
    for tenant in tenants:
        net.service_for(tenant, max_connections=256,
                        max_total_rate_gbps=10000.0)


class TestPriorityClasses:
    def test_classes_registry_orders_premium_first(self):
        assert PRIORITY_CLASSES == ("premium", "standard")

    def test_tickets_carry_their_class(self, net):
        frontend = _frontend(net)
        _register(net, "vip", "csp")
        assert frontend.priority_of("vip") == "premium"
        assert frontend.priority_of("csp") == "standard"
        vip = frontend.submit("vip", "PREMISES-A", "PREMISES-B", 1e9)
        std = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        assert vip.priority == "premium"
        assert std.priority == "standard"

    def test_premium_rides_through_hysteresis_shedding(self, net):
        frontend = _frontend(net, queue_capacity=8, shed_high=4, shed_low=1)
        _register(net, "vip", "csp")
        for _ in range(6):
            frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        assert frontend.state == STATE_SHEDDING
        std = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        assert std.rejected and std.outcome.code == api.REJECT_SHED
        vip = frontend.submit("vip", "PREMISES-A", "PREMISES-B", 1e9)
        assert not vip.rejected  # shed last
        counters = net.metrics.counters()
        assert counters["frontend.shed.standard"] >= 1
        assert counters.get("frontend.shed.premium", 0) == 0

    def test_hard_capacity_bound_refuses_even_premium(self, net):
        frontend = _frontend(net, queue_capacity=4, shed_high=3, shed_low=1)
        _register(net, "vip")
        tickets = [
            frontend.submit("vip", "PREMISES-A", "PREMISES-B", 1e9)
            for _ in range(6)
        ]
        refused = [t for t in tickets if t.rejected]
        assert len(refused) == 2  # only the two over capacity
        assert all(t.outcome.code == api.REJECT_SHED for t in refused)
        assert net.metrics.counters()["frontend.shed.premium"] == 2
        assert frontend.queue_depth() <= frontend.capacity

    def test_round_places_premium_before_earlier_standard(self, net):
        frontend = _frontend(net)
        _register(net, "vip", "csp")
        forwarded = []
        frontend.add_listener(
            lambda ticket, event: (
                forwarded.append(ticket.tenant)
                if event == "settled" else None
            )
        )
        # Standard submissions land first, premium after — yet the
        # round must pop the premium order first.
        std = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        vip = frontend.submit("vip", "PREMISES-A", "PREMISES-C", 1e9)
        net.run()
        assert forwarded[0] == "vip"
        assert vip.order_ticket is not None and std.order_ticket is not None

    def test_conservation_holds_per_class(self, net):
        frontend = _frontend(net, queue_capacity=6, shed_high=3, shed_low=1,
                             bucket_rate=1.0, bucket_burst=4.0)
        _register(net, "vip", "csp")
        for _ in range(8):
            frontend.submit("vip", "PREMISES-A", "PREMISES-B", 1e9)
            frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        counters = net.metrics.counters()
        for level in PRIORITY_CLASSES:
            submitted = counters.get(f"frontend.submitted.{level}", 0)
            accounted = (
                counters.get(f"frontend.admitted.{level}", 0)
                + counters.get(f"frontend.shed.{level}", 0)
                + counters.get(f"frontend.throttled.{level}", 0)
            )
            assert submitted == accounted > 0
        # The aggregate law still holds over the class split.
        assert counters["frontend.submitted"] == (
            counters["frontend.admitted"]
            + counters["frontend.shed"]
            + counters["frontend.throttled"]
        )

    def test_premium_depth_gauge_reports(self, net):
        frontend = _frontend(net)
        _register(net, "vip")
        frontend.submit("vip", "PREMISES-A", "PREMISES-B", 1e9)
        gauges = net.metrics.snapshot()["gauges"]
        assert gauges["frontend.queue_depth.premium"] == 1
        net.run()
        assert frontend.queue_depth() == 0
