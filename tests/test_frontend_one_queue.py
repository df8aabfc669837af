"""One queue from the edge to the round.

The frontend admits straight into the intake's heap, so what the edge
decides and what waits for a round are one and the same queue:

* the edge's hysteresis and hard bound read the heap's depth, so the
  orders waiting for a round never exceed the edge's bound and a
  backlog there makes the edge shed;
* the heap ranks a premium order ahead of standard orders that were
  admitted before it, so it settles in the round after its submission;
* a rate that is not a positive finite number is refused at the quota
  gate, before the ledger moves, and the intake keeps serving.

The first two use a slow round cadence (one order per round, one round
per 10 sim-seconds), so a backlog forms behind the edge.
"""

import math

import pytest

from repro import api
from repro.errors import AdmissionError
from repro.facade import build_griphon_testbed
from repro.frontend.service import STATE_SHEDDING


@pytest.fixture
def net():
    return build_griphon_testbed(seed=5, latency_cv=0.0)


def _slow_frontend(net, **kwargs):
    frontend = net.enable_frontend(
        bucket_rate=1000.0, bucket_burst=1000.0, round_size=1,
        round_interval=10.0, **kwargs,
    )
    for tenant in ("csp", "vip"):
        net.service_for(tenant, max_connections=256,
                        max_total_rate_gbps=10000.0)
    return frontend


class TestBacklogIsTheEdgeQueue:
    def test_waiting_orders_never_exceed_the_edge_bound(self, net):
        frontend = _slow_frontend(
            net, queue_capacity=8, shed_high=4, shed_low=1
        )
        tickets, depths = [], []

        def submit():
            tickets.append(
                frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
            )
            depths.append(net.pipeline.queue_depth())

        for second in range(12):
            for _ in range(2):
                net.sim.schedule_at(float(second), submit)
        net.run(until=11.5)
        assert len(tickets) == 24
        assert max(depths) <= frontend.capacity == 8
        assert net.pipeline.queue_depth() == frontend.queue_depth()
        assert frontend.state == STATE_SHEDDING
        shed = [
            t for t in tickets
            if t.rejected and t.outcome.code == api.REJECT_SHED
        ]
        assert shed
        assert net.metrics.counter("frontend.shed") == len(shed)

    def test_premium_settles_ahead_of_waiting_standard_orders(self, net):
        frontend = _slow_frontend(net, premium_tenants=("vip",))
        settled = []
        frontend.add_listener(
            lambda ticket, event: (
                settled.append((ticket.tenant, net.sim.now))
                if event == "settled" else None
            )
        )
        for _ in range(4):
            frontend.submit("csp", "PREMISES-A", "PREMISES-B", 1e9)
        net.sim.schedule_at(
            1.0, frontend.submit, "vip", "PREMISES-A", "PREMISES-C", 1e9
        )
        net.run(until=45.0)
        assert [tenant for tenant, _ in settled] == [
            "csp", "vip", "csp", "csp", "csp",
        ]
        # Submitted at t=1, placed by the next round, at t=10.
        assert settled[1] == ("vip", 10.0)


class TestNonFiniteRate:
    def test_refused_at_the_edge_before_the_ledger_moves(self, net):
        frontend = net.enable_frontend(round_interval=0.01)
        net.service_for("csp", max_total_rate_gbps=20.0)
        admission = net.controller.admission
        before = admission.usage("csp")
        bad = frontend.submit("csp", "PREMISES-A", "PREMISES-B", float("nan"))
        assert bad.rejected and bad.outcome.code == api.REJECT_QUOTA
        net.run()
        assert admission.usage("csp") == before
        assert admission.check("csp", "PREMISES-A", "PREMISES-B", 100e9)
        good = frontend.submit("csp", "PREMISES-A", "PREMISES-B", 10e9)
        net.run()
        assert isinstance(good.outcome, api.Active)
        assert frontend.queue_depth() == 0

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1e9])
    def test_admit_raises_for_every_entry_point(self, net, rate):
        net.service_for("csp")
        admission = net.controller.admission
        assert admission.check("csp", "PREMISES-A", "PREMISES-B", rate)
        with pytest.raises(AdmissionError):
            admission.admit("csp", "PREMISES-A", "PREMISES-B", rate)
        assert admission.usage("csp") == {"connections": 0, "rate_bps": 0.0}
