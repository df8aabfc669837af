"""Three-tier hierarchy: determinism, partition, standalone rebuilds."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.shard import ShardUnit, build_express_unit, build_region_unit
from repro.shard.planner import ShardPlanner, _bfs_hops
from repro.topo.hierarchy import (
    EXPRESS,
    build_express_graph,
    build_hierarchy,
    build_region_graph,
    express_link_specs,
    gateway_names,
    region_name,
)
from repro.units import GBPS


def _link_keys(graph):
    return {(link.a, link.b) if link.a <= link.b else (link.b, link.a)
            for link in graph.links}


class TestHierarchyDeterminism:
    def test_same_seed_same_topology(self):
        one = build_hierarchy(seed=5, regions=3, pops_per_region=6,
                              with_premises=True)
        two = build_hierarchy(seed=5, regions=3, pops_per_region=6,
                              with_premises=True)
        assert [n.name for n in one.graph.nodes] == [
            n.name for n in two.graph.nodes
        ]
        assert _link_keys(one.graph) == _link_keys(two.graph)
        assert one.gateways() == two.gateways()
        assert one.express_links == two.express_links

    def test_different_seed_different_mesh(self):
        one = build_hierarchy(seed=5, regions=2, pops_per_region=8)
        two = build_hierarchy(seed=6, regions=2, pops_per_region=8)
        # Node names are positional and identical; the Waxman link sets
        # must differ.
        assert _link_keys(one.graph) != _link_keys(two.graph)

    def test_region_names_and_gateways(self):
        hierarchy = build_hierarchy(seed=0, regions=3, pops_per_region=5,
                                    gateways_per_region=2)
        assert hierarchy.region_names == ["R00", "R01", "R02"]
        assert hierarchy.regions["R01"].gateways == gateway_names(
            "R01", 5, 2
        )
        assert hierarchy.unit_names() == ["R00", "R01", "R02", EXPRESS]


class TestSlicePartition:
    def test_region_and_express_slices_partition_links(self):
        hierarchy = build_hierarchy(seed=9, regions=4, pops_per_region=6,
                                    with_premises=True)
        whole = _link_keys(hierarchy.graph)
        pieces = []
        for name in hierarchy.regions:
            pieces.append(_link_keys(hierarchy.region_graph(name)))
        pieces.append(_link_keys(hierarchy.express_graph()))
        union = set()
        total = 0
        for piece in pieces:
            union |= piece
            total += len(piece)
        assert union == whole
        assert total == len(whole), "a link appeared in two slices"

    def test_express_links_join_distinct_regions(self):
        hierarchy = build_hierarchy(seed=9, regions=4, pops_per_region=6)
        for a, b in hierarchy.express_links:
            assert hierarchy.region_of(a) != hierarchy.region_of(b)


class TestStandaloneRebuild:
    def test_region_graph_rebuilds_identically(self):
        hierarchy = build_hierarchy(seed=13, regions=3, pops_per_region=7)
        for index in range(3):
            name = region_name(index)
            standalone = build_region_graph(13, name, 7)
            sliced = hierarchy.region_graph(name)
            assert {n.name for n in standalone.nodes} == {
                n.name for n in sliced.nodes
            }
            assert _link_keys(standalone) == _link_keys(sliced)

    def test_express_graph_rebuilds_identically(self):
        hierarchy = build_hierarchy(seed=13, regions=3, pops_per_region=7,
                                    gateways_per_region=2)
        standalone = build_express_graph(3, 2, 7)
        sliced = hierarchy.express_graph()
        assert {n.name for n in standalone.nodes} == {
            n.name for n in sliced.nodes
        }
        assert _link_keys(standalone) == _link_keys(sliced)

    def test_single_region_has_no_express(self):
        assert express_link_specs(1, 2, 8) == []
        hierarchy = build_hierarchy(seed=0, regions=1, pops_per_region=4)
        assert hierarchy.unit_names() == ["R00"]

    def test_gateway_count_validation(self):
        with pytest.raises(ConfigurationError):
            gateway_names("R00", 4, 5)


class TestPlannerHopMaps:
    def test_hop_maps_match_a_fresh_region_graph(self):
        """The planner keeps one graph per region; every hop map it
        serves must be what a newly sliced region graph gives."""
        hierarchy = build_hierarchy(seed=5, regions=3, pops_per_region=6,
                                    with_premises=True)
        planner = ShardPlanner(hierarchy)
        # Interleave regions so a map is never served from the graph
        # cached for the region asked about just before.
        starts = [(region, pop)
                  for index in range(6)
                  for region, info in hierarchy.regions.items()
                  for pop in [info.pops[index]]]
        for region, start in starts + starts:
            assert planner._hops_in_region(region, start) == _bfs_hops(
                hierarchy.region_graph(region), start
            )


class TestUnitPicklability:
    def test_region_unit_pickle_round_trip(self):
        unit = build_region_unit(21, "R00", 6)
        clone = pickle.loads(pickle.dumps(unit))
        assert isinstance(clone, ShardUnit)
        nodes = sorted(n.name for n in unit.graph.nodes)
        a, b = nodes[0], nodes[-1]
        original = unit.plan(a, b, 10 * GBPS)
        replayed = clone.plan(a, b, 10 * GBPS)
        assert original.path == replayed.path
        assert [s.channel for s in original.segments] == [
            s.channel for s in replayed.segments
        ]

    def test_express_unit_pickle_round_trip(self):
        unit = build_express_unit(3, 2, 6)
        clone = pickle.loads(pickle.dumps(unit))
        assert clone.name == EXPRESS
        assert _link_keys(clone.graph) == _link_keys(unit.graph)

    def test_occupancy_survives_pickling(self):
        unit = build_region_unit(21, "R00", 6)
        nodes = sorted(n.name for n in unit.graph.nodes)
        plan = unit.plan(nodes[0], nodes[-1], 10 * GBPS)
        for segment in plan.segments:
            for u, v in segment.links:
                unit.inventory.plant.dwdm_link(u, v).occupy(
                    segment.channel, "owner-1"
                )
        clone = pickle.loads(pickle.dumps(unit))
        replay = clone.plan(nodes[0], nodes[-1], 10 * GBPS)
        fresh = build_region_unit(21, "R00", 6).plan(
            nodes[0], nodes[-1], 10 * GBPS
        )
        # The clone must remember the occupied channel and avoid it
        # exactly as the original would.
        assert [s.channel for s in replay.segments] != [
            s.channel for s in fresh.segments
        ] or replay.path != fresh.path
