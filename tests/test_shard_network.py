"""ShardedNetwork: cross-region lifecycle, saga unwind, shard audits."""

import multiprocessing

import pytest

from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.shard import build_sharded_network
from repro.topo.hierarchy import EXPRESS
from repro.units import GBPS


def make_net(
    mode="sharded", seed=7, regions=2, pops=6, fault_plans=None,
    backend="inprocess",
):
    net = build_sharded_network(
        seed=seed,
        regions=regions,
        pops_per_region=pops,
        mode=mode,
        fault_plans=fault_plans,
        backend=backend,
    )
    net.register_customer(
        CustomerProfile(
            "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
        )
    )
    return net


def place_order(net, customer, premises_a, premises_b, rate_bps=10 * GBPS):
    """Place one order as a single-order planning round."""
    return net.place_orders([(customer, premises_a, premises_b, rate_bps)])[0]


def assert_all_audits_clean(net):
    for unit, report in net.audit_shards().items():
        assert report.ok, f"{unit}: {[str(v) for v in report.violations]}"


def assert_retired(net, order, children, state):
    """``order`` settled in ``state`` and let go of ``children`` — its
    children as captured before it settled — each settled with it,
    holding nothing and forgotten by its unit's controller."""
    assert children
    assert order.state is state and order.children == {}
    for unit, child in children.items():
        assert child.state is state, unit
        assert child.lightpath_ids == [] and child.claims == [], unit
        assert child.connection_id not in net.controllers[unit].connections


class TestCrossRegionLifecycle:
    def test_cross_region_order_comes_up(self):
        net = make_net()
        order = place_order(net, "csp", "DC-R00-P03", "DC-R01-P04")
        net.run()
        assert order.state is ConnectionState.UP
        # Three stitched segments: region A -> express -> region B.
        assert [r["unit"] for r in order.plan_record] == [
            "R00", EXPRESS, "R01"
        ]
        assert set(order.children) == {"R00", EXPRESS, "R01"}
        for child in order.children.values():
            assert child.state is ConnectionState.UP
        assert_all_audits_clean(net)

    def test_intra_region_order_is_single_segment(self):
        net = make_net()
        order = place_order(net, "csp", "DC-R00-P02", "DC-R00-P04")
        net.run()
        assert order.state is ConnectionState.UP
        assert [r["unit"] for r in order.plan_record] == ["R00"]
        assert_all_audits_clean(net)

    def test_gateway_endpoint_skips_degenerate_segment(self):
        # P00 is a gateway; the region A segment degenerates away but
        # the region child still owns the premises NTE and steering.
        net = make_net()
        order = place_order(net, "csp", "DC-R00-P00", "DC-R01-P03")
        net.run()
        assert order.state is ConnectionState.UP
        assert "R00" not in [r["unit"] for r in order.plan_record]
        assert "R00" in order.children
        assert_all_audits_clean(net)

    def test_teardown_unwinds_every_shard(self):
        net = make_net()
        order = place_order(net, "csp", "DC-R00-P03", "DC-R01-P04")
        net.run()
        children = dict(order.children)
        net.teardown_order(order)
        net.run()
        assert_retired(net, order, children, ConnectionState.RELEASED)
        assert_all_audits_clean(net)
        # Admission quota is back: the same order can be placed again.
        again = place_order(net, "csp", "DC-R00-P03", "DC-R01-P04")
        net.run()
        assert again.state is ConnectionState.UP

    def test_teardown_requires_up(self):
        net = make_net()
        order = place_order(net, "csp", "DC-R00-P03", "DC-R01-P04")
        with pytest.raises(ConfigurationError):
            net.teardown_order(order)

    def test_unknown_customer_blocks(self):
        net = make_net()
        order = place_order(net, "nobody", "DC-R00-P03", "DC-R01-P04")
        assert order.state is ConnectionState.BLOCKED
        assert "unknown customer" in order.blocked_reason
        assert_all_audits_clean(net)


class TestBatchOverlay:
    def test_same_round_orders_never_share_express_channels(self):
        net = make_net()
        orders = net.place_orders(
            [
                ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
                ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
            ]
        )
        net.run()
        assert all(o.state is ConnectionState.UP for o in orders)
        express_records = [
            record
            for order in orders
            for record in order.plan_record
            if record["unit"] == EXPRESS
        ]
        assert len(express_records) == 2
        first, second = express_records
        if first["path"] == second["path"]:
            # Same express route: the shadow-claim overlay must have
            # pushed the second order onto different channels.
            assert first["channels"] != second["channels"]
        assert_all_audits_clean(net)

    def test_batch_claims_audit_clean_in_monolithic_twin(self):
        net = make_net(mode="monolithic")
        orders = net.place_orders(
            [
                ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
                ("csp", "DC-R00-P02", "DC-R01-P05", 10 * GBPS),
            ]
        )
        net.run()
        assert all(o.state is ConnectionState.UP for o in orders)
        assert_all_audits_clean(net)


class TestSagaUnwind:
    def test_mid_setup_express_failure_unwinds_all_shards(self):
        # A hard element failure during the express segment's setup:
        # region A's segment is already up and must be compensated.
        net = make_net(
            fault_plans={
                EXPRESS: FaultPlan([FaultSpec(mode="fail", count=1)])
            }
        )
        order = place_order(net, "csp", "DC-R00-P03", "DC-R01-P04")
        children = dict(order.children)
        net.run()
        assert_retired(net, order, children, ConnectionState.BLOCKED)
        assert "setup failed" in order.blocked_reason
        assert_all_audits_clean(net)
        # The fault budget (count=1) is spent and admission quota was
        # released: the identical order now succeeds end to end.
        retry = place_order(net, "csp", "DC-R00-P03", "DC-R01-P04")
        net.run()
        assert retry.state is ConnectionState.UP
        assert_all_audits_clean(net)

    def test_region_segment_failure_blocks_before_express(self):
        net = make_net(
            fault_plans={"R00": FaultPlan([FaultSpec(mode="fail", count=1)])}
        )
        order = place_order(net, "csp", "DC-R00-P03", "DC-R01-P04")
        net.run()
        assert order.state is ConnectionState.BLOCKED
        assert_all_audits_clean(net)


class TestClosedNetwork:
    """A network whose worker pool is gone refuses work, typed and whole."""

    def test_closed_pool_network_refuses_before_touching_anything(self):
        net = make_net(seed=3, pops=5, backend="pool")
        order = place_order(net, "csp", "DC-R00-P02", "DC-R01-P03")
        net.run()
        assert order.state is ConnectionState.UP
        net.close()

        def held():
            return (
                net.admission.usage("csp"),
                len(net.orders),
                net.plant_fingerprints(),
            )

        before = held()
        for refused in (
            lambda: place_order(net, "csp", "DC-R00-P03", "DC-R01-P04"),
            net.sync_workers,
            net.route_cache_stats,
            net.worker_fingerprints,
            lambda: net.cut_fiber("R00-P01", "R00-P02"),
            lambda: net.repair_fiber("R00-P01", "R00-P02"),
        ):
            with pytest.raises(ConfigurationError, match="closed"):
                refused()
            assert held() == before
        # No id was drawn for the refused order either.
        assert list(net.orders) == [order.order_id]
        assert multiprocessing.active_children() == []

    def test_inprocess_network_has_no_workers_to_sync(self):
        net = make_net()
        with pytest.raises(ConfigurationError, match="backend='pool'"):
            net.sync_workers()
        with pytest.raises(ConfigurationError, match="backend='pool'"):
            net.worker_fingerprints()
        net.close()
        assert place_order(net, "csp", "DC-R00-P02", "DC-R00-P04").order_id
