"""Tests for the EMS layer: latency catalog and the ROADM EMS."""

import statistics

import pytest

from repro.errors import ConfigurationError, EquipmentError
from repro.ems import DEFAULT_STEP_MEANS, LatencyModel, RoadmEms
from repro.optical import FiberPlant, WavelengthGrid
from repro.sim import RandomStreams
from repro.topo.testbed import build_testbed_graph


@pytest.fixture
def latency():
    return LatencyModel(RandomStreams(42))


@pytest.fixture
def deterministic_latency():
    return LatencyModel(RandomStreams(42), cv=0.0)


class TestLatencyModel:
    def test_known_step_mean(self, deterministic_latency):
        assert deterministic_latency.mean("ot.tune") == 14.0

    def test_unknown_step_rejected(self, latency):
        with pytest.raises(ConfigurationError):
            latency.sample("ghost.step")

    def test_zero_cv_is_deterministic(self, deterministic_latency):
        samples = {deterministic_latency.sample("fxc.connect") for _ in range(5)}
        assert samples == {1.5}

    def test_jitter_centers_on_mean(self, latency):
        samples = [latency.sample("roadm.add_drop") for _ in range(500)]
        assert statistics.fmean(samples) == pytest.approx(9.5, rel=0.05)

    def test_extra_is_added(self, deterministic_latency):
        assert deterministic_latency.sample("line.equalize", extra=0.7) == (
            pytest.approx(2.7)
        )

    def test_extra_must_be_nonnegative(self, latency):
        with pytest.raises(ConfigurationError):
            latency.sample("line.equalize", extra=-1)

    def test_speedup_divides_means(self):
        model = LatencyModel(RandomStreams(0), cv=0.0, speedup=10.0)
        assert model.mean("ot.tune") == pytest.approx(1.4)
        assert model.sample("ot.tune") == pytest.approx(1.4)

    def test_speedup_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(RandomStreams(0), speedup=0)

    def test_negative_cv_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(RandomStreams(0), cv=-0.1)

    def test_overrides_apply(self):
        model = LatencyModel(
            RandomStreams(0), means={"ot.tune": 1.0, "custom.step": 4.0}, cv=0.0
        )
        assert model.mean("ot.tune") == 1.0
        assert model.mean("custom.step") == 4.0

    def test_known_steps_covers_defaults(self, latency):
        table = latency.known_steps()
        assert set(DEFAULT_STEP_MEANS) <= set(table)


class TestRoadmEms:
    @pytest.fixture
    def ems(self, deterministic_latency):
        graph = build_testbed_graph()
        grid = WavelengthGrid(8)
        plant = FiberPlant(graph, grid)
        return RoadmEms(plant, deterministic_latency)

    def test_unknown_link_is_a_typed_lookup_error(self, ems):
        with pytest.raises(EquipmentError) as raised:
            ems.chain("ROADM-I", "ROADM-X")
        assert raised.value.command == "lookup"

    def test_chain_lets_a_programming_error_through(self, ems, monkeypatch):
        def broken(a, b):
            raise AttributeError("a bug inside the plant, not a missing link")

        monkeypatch.setattr(ems._plant, "dwdm_link", broken)
        with pytest.raises(AttributeError):
            ems.chain("ROADM-I", "ROADM-IV")

    def test_equalize_includes_amplifier_settle(self, ems):
        # Testbed link ROADM-I=ROADM-IV is 80 km -> one amplified span.
        duration = ems.equalize_link("ROADM-I", "ROADM-IV")
        assert duration == pytest.approx(2.0 + 0.35)

    def test_verify_duration(self, ems):
        assert ems.verify_lightpath() == pytest.approx(8.0)
