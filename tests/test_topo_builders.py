"""Tests for the Fig. 4 testbed and synthetic backbone builders."""

import pytest

from repro.topo.backbone import (
    BACKBONE_CITIES,
    BACKBONE_DATA_CENTERS,
    build_backbone_graph,
)
from repro.topo.testbed import (
    TESTBED_PREMISES,
    TESTBED_ROADMS,
    build_testbed_graph,
    table2_paths,
)


class TestTestbedTopology:
    @pytest.fixture
    def graph(self):
        return build_testbed_graph()

    def test_has_four_roadms(self, graph):
        roadms = [node for node in graph.nodes if node.kind == "roadm"]
        assert sorted(node.name for node in roadms) == sorted(TESTBED_ROADMS)

    def test_two_three_degree_and_two_two_degree(self, graph):
        """The paper: 'two 3-degree ROADMs and two 2-degree ROADMs'."""
        core_degree = {}
        for name in TESTBED_ROADMS:
            inter_roadm = [
                n for n in graph.neighbors(name) if n in TESTBED_ROADMS
            ]
            core_degree[name] = len(inter_roadm)
        degrees = sorted(core_degree.values())
        assert degrees == [2, 2, 3, 3]
        assert core_degree["ROADM-I"] == 3
        assert core_degree["ROADM-III"] == 3

    def test_three_premises_attached(self, graph):
        for premises, pop in TESTBED_PREMISES.items():
            assert graph.node(premises).kind == "premises"
            assert pop in graph.neighbors(premises)

    def test_table2_paths_are_valid(self, graph):
        for hops, path in table2_paths().items():
            links = graph.links_on_path(path)
            assert len(links) == hops

    def test_table2_paths_share_endpoints(self):
        paths = table2_paths()
        assert all(p[0] == "ROADM-I" and p[-1] == "ROADM-IV" for p in paths.values())

    def test_one_hop_is_the_shortest(self, graph):
        assert graph.shortest_path("ROADM-I", "ROADM-IV") == ["ROADM-I", "ROADM-IV"]

    def test_each_core_link_has_srlg(self, graph):
        for link in graph.links:
            assert link.srlgs, f"link {link.key} missing an SRLG tag"


class TestBackboneTopology:
    @pytest.fixture
    def graph(self):
        return build_backbone_graph()

    def test_all_cities_present(self, graph):
        for city in BACKBONE_CITIES:
            assert graph.has_node(city)

    def test_data_centers_attached(self, graph):
        for dc, pop in BACKBONE_DATA_CENTERS.items():
            assert pop in graph.neighbors(dc)

    def test_without_data_centers(self):
        graph = build_backbone_graph(with_data_centers=False)
        assert not graph.has_node("DC-EAST")
        assert len(graph.nodes) == len(BACKBONE_CITIES)

    def test_backbone_is_connected(self, graph):
        cities = list(BACKBONE_CITIES)
        for city in cities[1:]:
            graph.shortest_path(cities[0], city)

    def test_coast_to_coast_needs_multiple_hops(self, graph):
        path = graph.shortest_path("NYC", "LAX")
        assert len(path) >= 3

    def test_transcontinental_distance_realistic(self, graph):
        km = graph.path_length_km(
            graph.shortest_path("NYC", "LAX", weight=lambda link: link.length_km)
        )
        assert 3500 <= km <= 7000

    def test_survives_any_single_link_cut(self, graph):
        """The mesh should be 2-edge-connected between all city pairs."""
        for link in graph.links:
            if link.a in BACKBONE_DATA_CENTERS or link.b in BACKBONE_DATA_CENTERS:
                continue  # access links are intentionally single-homed
            graph.shortest_path("NYC", "LAX", excluded_links=[link.key])

    def test_shared_conduit_srlgs_exist(self, graph):
        assert len(graph.links_in_srlg("conduit:texas")) == 2
        assert len(graph.links_in_srlg("conduit:northeast")) == 2
