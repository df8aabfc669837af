"""Networks plan on the hierarchy's own slices, and each needs its own pool.

A :class:`~repro.topo.hierarchy.Hierarchy` keeps the region and express
graphs it was assembled from; every network built from it plans on those
objects (its monolithic twin on ``hierarchy.graph``), so nothing a
network does may change them, and two networks built from one hierarchy
must behave exactly as two built from two equal hierarchies.  A unit
mirrors one plant, so a pool that already hosts units is refused before
any process is forked or asked anything: sharing it would plan one
network against the other's occupancy.
"""

import multiprocessing

import pytest

from repro.core.admission import CustomerProfile
from repro.errors import ConfigurationError
from repro.fingerprint import outcome_fingerprint
from repro.shard.network import MONOLITH, build_sharded_network
from repro.shard.workers import ShardWorkerPool
from repro.topo.hierarchy import EXPRESS, build_hierarchy
from repro.units import GBPS

ROUNDS = [
    [("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
     ("csp", "DC-R00-P02", "DC-R00-P05", 10 * GBPS),
     ("csp", "DC-R02-P01", "DC-R03-P04", 10 * GBPS),
     ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS)],
    [("csp", "DC-R01-P01", "DC-R00-P04", 10 * GBPS),
     ("csp", "DC-R03-P02", "DC-R03-P05", 10 * GBPS)],
    [("csp", "DC-R00-P03", "DC-R02-P05", 10 * GBPS)],
]


def _hierarchy():
    return build_hierarchy(
        seed=5, regions=4, pops_per_region=6, with_premises=True
    )


def _network(hierarchy, mode, backend="inprocess", pool=None):
    net = build_sharded_network(
        seed=5, hierarchy=hierarchy, mode=mode, backend=backend, pool=pool,
        transponders_10g=2,
    )
    net.register_customer(
        CustomerProfile(
            "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
        )
    )
    return net


def _cut_link(hierarchy):
    """R00's first PoP-to-PoP link: a deterministic fiber to cut."""
    return next(
        link.key for link in hierarchy.region_graph("R00").links
        if link.a not in hierarchy.regions["R00"].premises
        and link.b not in hierarchy.regions["R00"].premises
    )


def _drive(nets, cut):
    """Place every round on every network in turn, with a cut before
    the second round and its repair before the third."""
    orders = [[] for _ in nets]
    for index, requests in enumerate(ROUNDS):
        for net, placed in zip(nets, orders):
            if index == 1:
                net.cut_fiber(*cut)
            elif index == 2:
                net.repair_fiber(*cut)
            placed.extend(net.place_orders(requests))
        for net in nets:
            net.run()
    return [
        (outcome_fingerprint(placed), net.plant_fingerprints())
        for net, placed in zip(nets, orders)
    ]


class TestSharedSlices:
    def test_controllers_plan_on_the_hierarchys_own_graphs(self):
        hierarchy = _hierarchy()
        graphs = [hierarchy.graph, hierarchy.express_graph()] + [
            hierarchy.region_graph(region) for region in hierarchy.region_names
        ]
        generations = [graph.generation for graph in graphs]
        sharded = _network(hierarchy, "sharded")
        twin = _network(hierarchy, "monolithic")
        for region in hierarchy.region_names:
            assert (
                sharded.controllers[region].inventory.graph
                is hierarchy.region_graph(region)
            )
            assert twin.controllers[region].inventory.graph is hierarchy.graph
        assert (
            sharded.controllers[EXPRESS].inventory.graph
            is hierarchy.express_graph()
        )
        _drive([sharded, twin], _cut_link(hierarchy))
        assert [graph.generation for graph in graphs] == generations

    @pytest.mark.parametrize("backend", ["inprocess", "pool"])
    def test_one_hierarchy_plans_like_two(self, backend):
        shared = _hierarchy()
        nets = [
            _network(shared, mode, backend)
            for mode in ("sharded", "monolithic")
        ]
        apart = [
            _network(_hierarchy(), mode, backend)
            for mode in ("sharded", "monolithic")
        ]
        try:
            together = _drive(nets, _cut_link(shared))
            separately = _drive(apart, _cut_link(shared))
        finally:
            for net in nets + apart:
                net.close()
        assert together == separately
        (sharded, _), (mono, _) = together
        assert sharded == mono


class TestOnePoolPerNetwork:
    @pytest.mark.parametrize("mode", ["sharded", "monolithic"])
    def test_a_pool_hosting_the_hierarchy_is_refused(self, mode):
        hierarchy = _hierarchy()
        with ShardWorkerPool() as pool:
            _network(hierarchy, mode, "pool", pool)
            children = multiprocessing.active_children()
            hosted = pool.recipes()
            calls = []
            for name in ("ensure", "call", "call_many"):
                def record(*args, _name=name, _call=getattr(pool, name)):
                    calls.append(_name)
                    return _call(*args)
                setattr(pool, name, record)
            with pytest.raises(ConfigurationError, match="pool of its own"):
                _network(hierarchy, mode, "pool", pool)
            assert calls == []
            assert multiprocessing.active_children() == children
            assert pool.recipes() == hosted
        assert multiprocessing.active_children() == []

    def test_a_pool_that_already_hosts_units_is_refused(self):
        with ShardWorkerPool() as pool:
            first = _network(_hierarchy(), "monolithic", "pool", pool)
            children = multiprocessing.active_children()
            # An equal hierarchy names other graph objects, so none of
            # its recipes is hosted: the pool is still not its own.
            with pytest.raises(ConfigurationError, match="pool of its own"):
                _network(_hierarchy(), "monolithic", "pool", pool)
            assert multiprocessing.active_children() == children
            assert [r.unit for r in pool.recipes()] == [MONOLITH]
            [fingerprint] = _drive([first], _cut_link(first.hierarchy))
        assert fingerprint == _drive(
            [_network(_hierarchy(), "monolithic")], _cut_link(first.hierarchy)
        )[0]
        assert multiprocessing.active_children() == []


class TestMergedGraphOnDemand:
    """Only a monolithic controller plans on the merged graph, so only
    building one makes the hierarchy build it."""

    @pytest.mark.parametrize("backend", ["inprocess", "pool"])
    def test_a_sharded_run_never_builds_the_merged_graph(self, backend):
        hierarchy = _hierarchy()
        net = _network(hierarchy, "sharded", backend)
        try:
            _drive([net], _cut_link(hierarchy))
            for order in list(net.orders.values()):
                if order.state.value in ("up", "failed"):
                    net.teardown_order(order)
            net.run()
            assert all(report.ok for report in net.audit_shards().values())
        finally:
            net.close()
        # ``Hierarchy.graph`` keeps what its first read built here.
        assert "graph" not in vars(hierarchy)

    def test_the_monolithic_twin_builds_it_once(self):
        hierarchy = _hierarchy()
        twin = _network(hierarchy, "monolithic")
        assert vars(hierarchy)["graph"] is hierarchy.graph
        for region in hierarchy.region_names:
            assert twin.controllers[region].inventory.graph is hierarchy.graph
