"""Three-tier hierarchy: determinism, partition, per-tier builders."""

from collections import deque

import pytest

from repro.errors import ConfigurationError
from repro.shard.planner import ShardPlanner
from repro.topo.hierarchy import (
    EXPRESS,
    build_hierarchy,
    express_link_specs,
    gateway_names,
)


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
    """The per-tier helpers, each callable without a built hierarchy."""

    def test_single_region_has_no_express(self):
        assert express_link_specs(1, 2, 8) == []
        hierarchy = build_hierarchy(seed=0, regions=1, pops_per_region=4)
        assert hierarchy.unit_names() == ["R00"]

    def test_gateway_count_validation(self):
        with pytest.raises(ConfigurationError):
            gateway_names("R00", 4, 5)


def _sorted_bfs_hops(graph, start):
    """The reference hop map: BFS over each node's name-sorted neighbours."""
    hops = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in hops:
                hops[neighbor] = hops[node] + 1
                queue.append(neighbor)
    return hops


class TestPlannerHopMaps:
    def test_hop_maps_match_a_fresh_region_graph(self):
        """Every hop map the planner serves — a BFS over the full graph
        kept inside one region, in no neighbour order — is the
        sorted-neighbour BFS over a newly sliced region graph; express
        maps likewise over the express graph."""
        hierarchy = build_hierarchy(seed=5, regions=4, pops_per_region=6,
                                    with_premises=True)
        planner = ShardPlanner(hierarchy)
        starts = [(region, pop)
                  for region, info in hierarchy.regions.items()
                  for pop in info.pops]
        for region, start in starts + starts:  # fresh, then cached
            assert planner._hops_in_region(region, start) == _sorted_bfs_hops(
                hierarchy.region_graph(region), start
            )
        express = hierarchy.express_graph()
        for gateway in hierarchy.gateways():
            assert planner._hops_on_express(gateway) == _sorted_bfs_hops(
                express, gateway
            )
