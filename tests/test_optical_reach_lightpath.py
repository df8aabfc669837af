"""Tests for the reach model, amplifier chains, and lightpath records."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ConnectionStateError, SignalError
from repro.optical.amplifier import AmplifierChain
from repro.optical.impairments import ReachModel
from repro.optical.lightpath import Lightpath, LightpathState, Segment
from repro.topo.graph import Link, NetworkGraph, Node
from repro.units import gbps


def chain_graph(lengths):
    """A linear chain N0-N1-...-Nk with the given link lengths."""
    graph = NetworkGraph()
    graph.add_node(Node("N0"))
    for i, km in enumerate(lengths):
        graph.add_node(Node(f"N{i + 1}"))
        graph.add_link(Link(f"N{i}", f"N{i + 1}", length_km=km))
    return graph


class TestAmplifierChain:
    def test_short_lab_link_has_one_amp(self):
        assert AmplifierChain(60.0).amplifier_count == 1

    def test_long_link_scales_with_span(self):
        assert AmplifierChain(400.0).amplifier_count == 5

    def test_exact_multiple(self):
        assert AmplifierChain(160.0).amplifier_count == 2

    def test_settle_time_scales_with_amps(self):
        short = AmplifierChain(80.0)
        long = AmplifierChain(800.0)
        assert long.transient_settle_time() > short.transient_settle_time()
        assert short.transient_settle_time() == pytest.approx(0.35)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            AmplifierChain(0)
        with pytest.raises(ConfigurationError):
            AmplifierChain(100, span_km=0)
        with pytest.raises(ConfigurationError):
            AmplifierChain(100, settle_per_amp_s=-1)

    @given(km=st.floats(min_value=1, max_value=5000))
    def test_amp_count_positive_and_monotone_in_length(self, km):
        chain = AmplifierChain(km)
        assert chain.amplifier_count >= 1
        longer = AmplifierChain(km + 500)
        assert longer.amplifier_count >= chain.amplifier_count


class TestReachModel:
    def test_default_rates(self):
        model = ReachModel()
        assert model.reach_km(gbps(10)) == 2500.0
        assert model.reach_km(gbps(40)) == 1500.0

    def test_unknown_rate_rejected(self):
        with pytest.raises(SignalError):
            ReachModel().reach_km(gbps(2.5))

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            ReachModel({})

    def test_bad_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            ReachModel({gbps(10): -1})

    def test_needs_regen(self):
        model = ReachModel()
        assert not model.needs_regen(2000, gbps(10))
        assert model.needs_regen(3000, gbps(10))

    def test_no_regen_within_reach(self):
        graph = chain_graph([800, 800])
        sites = ReachModel().regen_sites(graph, ["N0", "N1", "N2"], gbps(10))
        assert sites == []

    def test_regen_placed_before_budget_exceeded(self):
        graph = chain_graph([1200, 1200, 1200])
        sites = ReachModel().regen_sites(
            graph, ["N0", "N1", "N2", "N3"], gbps(10)
        )
        # 1200+1200=2400 fits in 2500, +1200 does not -> regen at N2.
        assert sites == ["N2"]

    def test_forty_gig_needs_more_regens(self):
        graph = chain_graph([1200, 1200, 1200])
        path = ["N0", "N1", "N2", "N3"]
        model = ReachModel()
        assert len(model.regen_sites(graph, path, gbps(40))) > len(
            model.regen_sites(graph, path, gbps(10))
        )

    def test_single_link_beyond_reach_rejected(self):
        graph = chain_graph([3000])
        with pytest.raises(SignalError):
            ReachModel().regen_sites(graph, ["N0", "N1"], gbps(10))

    def test_trivial_path_no_regens(self):
        graph = chain_graph([100])
        assert ReachModel().regen_sites(graph, ["N0"], gbps(10)) == []

    def test_segments_respect_reach_budget(self):
        lengths = [700.0, 900.0, 600.0, 1100.0, 400.0, 800.0]
        graph = chain_graph(lengths)
        path = [f"N{i}" for i in range(len(lengths) + 1)]
        model = ReachModel()
        sites = model.regen_sites(graph, path, gbps(10))
        # Verify each inter-regen segment is within reach.
        boundaries = [path[0]] + sites + [path[-1]]
        indices = [path.index(b) for b in boundaries]
        for start, end in zip(indices, indices[1:]):
            segment_km = graph.path_length_km(path[start : end + 1])
            assert segment_km <= model.reach_km(gbps(10))


class TestLightpath:
    def make(self):
        return Lightpath(
            "lp-1",
            ["ROADM-I", "ROADM-III", "ROADM-IV"],
            gbps(10),
            segments=[Segment(["ROADM-I", "ROADM-III", "ROADM-IV"], 4)],
        )

    def test_accessors(self):
        lp = self.make()
        assert lp.source == "ROADM-I"
        assert lp.destination == "ROADM-IV"
        assert lp.hop_count == 2
        assert lp.channels == [4]

    def test_segment_links(self):
        segment = Segment(["B", "A", "C"], 0)
        assert segment.links == [("A", "B"), ("A", "C")]

    def test_legal_lifecycle(self):
        lp = self.make()
        lp.transition(LightpathState.SETTING_UP)
        lp.transition(LightpathState.UP)
        lp.transition(LightpathState.TEARING_DOWN)
        lp.transition(LightpathState.RELEASED)
        assert lp.state is LightpathState.RELEASED

    def test_failure_and_recovery(self):
        lp = self.make()
        lp.transition(LightpathState.SETTING_UP)
        lp.transition(LightpathState.UP)
        lp.transition(LightpathState.FAILED)
        lp.transition(LightpathState.UP)  # restored
        assert lp.state is LightpathState.UP

    def test_illegal_transition_rejected(self):
        lp = self.make()
        with pytest.raises(ConnectionStateError):
            lp.transition(LightpathState.UP)  # must set up first

    def test_released_is_terminal(self):
        lp = self.make()
        lp.transition(LightpathState.RELEASED)
        with pytest.raises(ConnectionStateError):
            lp.transition(LightpathState.SETTING_UP)

    def test_str_contains_route(self):
        assert "ROADM-I - ROADM-III - ROADM-IV" in str(self.make())
