"""Tests for the random backbone generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.randomness import RandomStreams
from repro.topo.generator import generate_backbone


class TestGeneration:
    def test_node_count(self):
        graph = generate_backbone(RandomStreams(1), node_count=12)
        assert len(graph.nodes) == 12

    def test_deterministic_per_seed(self):
        def edge_set(seed):
            graph = generate_backbone(RandomStreams(seed), node_count=10)
            return {link.key for link in graph.links}

        assert edge_set(5) == edge_set(5)
        assert edge_set(5) != edge_set(6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_backbone(RandomStreams(0), node_count=2)
        with pytest.raises(ConfigurationError):
            generate_backbone(RandomStreams(0), plane_km=0)
        with pytest.raises(ConfigurationError):
            generate_backbone(RandomStreams(0), alpha=0)
        with pytest.raises(ConfigurationError):
            generate_backbone(RandomStreams(0), beta=1.5)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        node_count=st.integers(min_value=3, max_value=24),
    )
    def test_always_connected(self, seed, node_count):
        graph = generate_backbone(RandomStreams(seed), node_count=node_count)
        names = [node.name for node in graph.nodes]
        for name in names[1:]:
            graph.shortest_path(names[0], name)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        node_count=st.integers(min_value=3, max_value=24),
    )
    def test_minimum_degree_two(self, seed, node_count):
        graph = generate_backbone(RandomStreams(seed), node_count=node_count)
        for node in graph.nodes:
            assert graph.degree(node.name) >= 2

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_links_have_positive_length_and_srlgs(self, seed):
        graph = generate_backbone(RandomStreams(seed), node_count=12)
        for link in graph.links:
            assert link.length_km >= 25.0
            assert link.srlgs

    def test_usable_by_the_full_stack(self):
        """A generated mesh drops straight into the controller stack."""
        from repro.core.inventory import InventoryDatabase
        from repro.core.rwa import RwaEngine
        from repro.optical.wavelength import WavelengthGrid
        from repro.units import gbps

        graph = generate_backbone(RandomStreams(9), node_count=10,
                                  plane_km=1500.0)
        inventory = InventoryDatabase(graph, WavelengthGrid(16))
        for node in graph.nodes:
            inventory.install_roadm(node.name, add_drop_ports=4)
            inventory.install_transponders(node.name, gbps(10), 2)
        engine = RwaEngine(inventory)
        names = sorted(node.name for node in graph.nodes)
        plan = engine.plan(names[0], names[-1], gbps(10))
        assert plan.path[0] == names[0]
        assert plan.path[-1] == names[-1]
