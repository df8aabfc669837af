"""Tests for the network graph: construction, lookup, and path search."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NoPathError, TopologyError
from repro.topo import Link, NetworkGraph, Node


def ring(n):
    """A ring of n nodes named N0..N{n-1}."""
    graph = NetworkGraph()
    for i in range(n):
        graph.add_node(Node(f"N{i}"))
    for i in range(n):
        graph.add_link(Link(f"N{i}", f"N{(i + 1) % n}", length_km=100.0))
    return graph


@pytest.fixture
def square():
    """A 4-node ring plus one diagonal: N0-N1-N2-N3-N0 and N0-N2."""
    graph = ring(4)
    graph.add_link(Link("N0", "N2", length_km=150.0))
    return graph


class TestConstruction:
    def test_add_and_lookup_node(self):
        graph = NetworkGraph()
        graph.add_node(Node("A", kind="premises"))
        assert graph.node("A").kind == "premises"

    def test_readding_identical_node_is_noop(self):
        graph = NetworkGraph()
        graph.add_node(Node("A"))
        graph.add_node(Node("A"))
        assert len(graph.nodes) == 1

    def test_conflicting_node_rejected(self):
        graph = NetworkGraph()
        graph.add_node(Node("A", kind="roadm"))
        with pytest.raises(TopologyError):
            graph.add_node(Node("A", kind="premises"))

    def test_unknown_node_lookup(self):
        with pytest.raises(TopologyError):
            NetworkGraph().node("ghost")

    def test_link_requires_existing_nodes(self):
        graph = NetworkGraph()
        graph.add_node(Node("A"))
        with pytest.raises(TopologyError):
            graph.add_link(Link("A", "B"))

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "A")

    def test_nonpositive_length_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "B", length_km=0)

    def test_duplicate_link_rejected(self):
        graph = NetworkGraph()
        graph.add_node(Node("A"))
        graph.add_node(Node("B"))
        graph.add_link(Link("A", "B"))
        with pytest.raises(TopologyError):
            graph.add_link(Link("B", "A"))

    def test_link_key_is_order_independent(self):
        assert Link("B", "A").key == Link("A", "B").key == ("A", "B")

    def test_link_other_endpoint(self):
        link = Link("A", "B")
        assert link.other("A") == "B"
        assert link.other("B") == "A"
        with pytest.raises(TopologyError):
            link.other("C")


class TestLookup:
    def test_neighbors_sorted(self, square):
        assert square.neighbors("N0") == ["N1", "N2", "N3"]

    def test_adjacent_is_the_unsorted_neighbor_set(self, square):
        assert sorted(square.adjacent("N0")) == square.neighbors("N0")
        with pytest.raises(TopologyError):
            square.adjacent("ghost")

    def test_degree(self, square):
        assert square.degree("N0") == 3
        assert square.degree("N1") == 2

    def test_link_between_either_order(self, square):
        assert square.link_between("N2", "N0") is square.link_between("N0", "N2")

    def test_link_between_nonadjacent(self, square):
        with pytest.raises(TopologyError):
            square.link_between("N1", "N3")

    def test_links_on_path(self, square):
        links = square.links_on_path(["N0", "N1", "N2"])
        assert [link.key for link in links] == [("N0", "N1"), ("N1", "N2")]

    def test_path_length_km(self, square):
        assert square.path_length_km(["N0", "N2"]) == 150.0
        assert square.path_length_km(["N0", "N1", "N2"]) == 200.0

    def test_srlg_queries(self):
        graph = NetworkGraph()
        for name in "ABC":
            graph.add_node(Node(name))
        graph.add_link(Link("A", "B", srlgs=frozenset({"conduit-1"})))
        graph.add_link(Link("B", "C", srlgs=frozenset({"conduit-1", "conduit-2"})))
        assert graph.srlgs_on_path(["A", "B", "C"]) == {"conduit-1", "conduit-2"}
        assert len(graph.links_in_srlg("conduit-1")) == 2
        assert len(graph.links_in_srlg("conduit-2")) == 1


class TestShortestPath:
    def test_direct_link_wins_by_hops(self, square):
        assert square.shortest_path("N0", "N2") == ["N0", "N2"]

    def test_km_weight_changes_route(self, square):
        path = square.shortest_path(
            "N0", "N2", weight=lambda link: link.length_km
        )
        # Diagonal is 150 km; around the ring is 200 km, so diagonal wins.
        assert path == ["N0", "N2"]

    def test_km_weight_prefers_cheap_detour(self):
        graph = NetworkGraph()
        for name in "ABC":
            graph.add_node(Node(name))
        graph.add_link(Link("A", "C", length_km=500.0))
        graph.add_link(Link("A", "B", length_km=100.0))
        graph.add_link(Link("B", "C", length_km=100.0))
        assert graph.shortest_path(
            "A", "C", weight=lambda link: link.length_km
        ) == ["A", "B", "C"]

    def test_excluded_link_forces_detour(self, square):
        path = square.shortest_path("N0", "N2", excluded_links=[("N0", "N2")])
        assert path in (["N0", "N1", "N2"], ["N0", "N3", "N2"])

    def test_excluded_node_forces_detour(self, square):
        path = square.shortest_path(
            "N0", "N2", excluded_links=[("N0", "N2")], excluded_nodes=["N1"]
        )
        assert path == ["N0", "N3", "N2"]

    def test_source_is_never_excluded(self, square):
        path = square.shortest_path("N0", "N2", excluded_nodes=["N0", "N2"])
        assert path == ["N0", "N2"]

    def test_no_path_raises(self):
        graph = NetworkGraph()
        graph.add_node(Node("A"))
        graph.add_node(Node("B"))
        with pytest.raises(NoPathError):
            graph.shortest_path("A", "B")

    def test_unknown_endpoint_raises(self, square):
        with pytest.raises(TopologyError):
            square.shortest_path("N0", "ghost")

    def test_negative_weight_rejected(self, square):
        with pytest.raises(TopologyError):
            square.shortest_path("N0", "N2", weight=lambda link: -1.0)

    @given(n=st.integers(min_value=3, max_value=12))
    def test_ring_shortest_path_takes_short_side(self, n):
        graph = ring(n)
        path = graph.shortest_path("N0", f"N{n // 2}")
        assert len(path) - 1 == n // 2


class TestKShortestPaths:
    def test_finds_all_simple_paths_in_square(self, square):
        paths = square.k_shortest_paths("N0", "N2", k=5)
        assert paths[0] == ["N0", "N2"]
        assert sorted(map(tuple, paths[1:])) == [
            ("N0", "N1", "N2"),
            ("N0", "N3", "N2"),
        ]

    def test_paths_are_loop_free(self, square):
        for path in square.k_shortest_paths("N0", "N2", k=5):
            assert len(set(path)) == len(path)

    def test_costs_nondecreasing(self, square):
        paths = square.k_shortest_paths(
            "N0", "N2", k=5, weight=lambda link: link.length_km
        )
        costs = [square.path_length_km(path) for path in paths]
        assert costs == sorted(costs)

    def test_k_one_equals_shortest(self, square):
        assert square.k_shortest_paths("N0", "N2", k=1) == [
            square.shortest_path("N0", "N2")
        ]

    def test_k_must_be_positive(self, square):
        with pytest.raises(ValueError):
            square.k_shortest_paths("N0", "N2", k=0)

    def test_no_path_raises(self):
        graph = NetworkGraph()
        graph.add_node(Node("A"))
        graph.add_node(Node("B"))
        with pytest.raises(NoPathError):
            graph.k_shortest_paths("A", "B", k=2)
