"""Unit coverage for the SLO building blocks.

Pins the declarative pieces the remediation tentpole is assembled from:
degradation specs/plans (validation, serialization, seeded jitter), SLO
policies (validation, orientation, serialization), the windowed series
behind burn-rate detection, the optical impairment surface the injector
mutates, and the margin arithmetic the monitor samples.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError, ResourceError
from repro.faults.plan import (
    DEGRADATION_MODES,
    DegradationPlan,
    DegradationSpec,
)
from repro.obs.windows import WindowedSeries
from repro.optical.amplifier import AmplifierChain
from repro.optical.fiber import FiberPlant
from repro.optical.osnr import OsnrModel
from repro.sim.randomness import RandomStreams
from repro.slo.monitor import SloPolicy, default_policies
from repro.topo.testbed import build_testbed_graph


# -- degradation specs and plans --------------------------------------------


class TestDegradationSpec:
    def test_modes_registry(self):
        assert set(DEGRADATION_MODES) == {
            "osnr-drift", "amp-flap", "attenuation-creep"
        }

    def test_round_trips_through_dict(self):
        spec = DegradationSpec(
            link="A=B", mode="osnr-drift", start_s=10.0, duration_s=100.0,
            magnitude_db=4.0, jitter_db=0.5,
        )
        assert DegradationSpec.from_dict(dataclasses.asdict(spec)) == spec

    def test_unknown_dict_keys_raise(self):
        with pytest.raises(ConfigurationError):
            DegradationSpec.from_dict({"link": "A=B", "bogus": 1})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            DegradationSpec(link="A=B", mode="meteor-strike")

    def test_endpoints_are_canonical(self):
        spec = DegradationSpec(link="B=A", mode="osnr-drift")
        assert spec.endpoints == ("A", "B")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ConfigurationError):
            DegradationSpec(link="A=B", mode="osnr-drift", magnitude_db=-1)


class TestDegradationPlan:
    def test_empty_plan_has_zero_horizon(self):
        plan = DegradationPlan()
        assert plan.empty
        assert plan.horizon_s == 0.0

    def test_horizon_is_latest_end(self):
        plan = DegradationPlan()
        plan.add(DegradationSpec(link="A=B", mode="osnr-drift",
                                 start_s=0, duration_s=100))
        plan.add(DegradationSpec(link="A=C", mode="amp-flap",
                                 start_s=50, duration_s=500))
        assert plan.horizon_s == 550.0

    def test_round_trips_through_dict(self):
        plan = DegradationPlan()
        plan.add(DegradationSpec(link="A=B", mode="attenuation-creep",
                                 rate_db_per_hour=1.5))
        again = DegradationPlan.from_dict(
            {"degradations": [dataclasses.asdict(spec) for spec in plan.specs]}
        )
        assert again.specs == plan.specs

    def test_jitter_requires_binding(self):
        plan = DegradationPlan()
        plan.add(DegradationSpec(link="A=B", mode="osnr-drift",
                                 jitter_db=1.0))
        with pytest.raises(ConfigurationError):
            plan.jitter(0, 0)

    def test_jitter_is_seed_deterministic(self):
        def draws(seed):
            plan = DegradationPlan()
            plan.add(DegradationSpec(link="A=B", mode="osnr-drift",
                                     jitter_db=1.0))
            bound = plan.bind(RandomStreams(seed))
            return [bound.jitter(0, tick) for tick in range(5)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_zero_jitter_draws_nothing(self):
        plan = DegradationPlan()
        plan.add(DegradationSpec(link="A=B", mode="osnr-drift"))
        bound = plan.bind(RandomStreams(0))
        assert bound.jitter(0, 3) == 0.0


# -- SLO policies ------------------------------------------------------------


class TestSloPolicy:
    def test_round_trips_through_dict(self):
        policy = SloPolicy(name="margin", threshold=1.5)
        assert SloPolicy.from_dict(dataclasses.asdict(policy)) == policy

    def test_unknown_dict_keys_raise(self):
        with pytest.raises(ConfigurationError):
            SloPolicy.from_dict({"name": "x", "bogus": 1})

    def test_orientation_below_and_above(self):
        below = SloPolicy(name="m", threshold=2.0, orientation="below")
        assert below.breaching(1.9) and not below.breaching(2.0)
        above = SloPolicy(name="l", threshold=120.0, scope="global",
                          orientation="above")
        assert above.breaching(121.0) and not above.breaching(120.0)

    def test_long_window_must_cover_short(self):
        with pytest.raises(ConfigurationError):
            SloPolicy(name="x", short_window_s=600, long_window_s=100)

    def test_burn_fractions_validated(self):
        with pytest.raises(ConfigurationError):
            SloPolicy(name="x", short_burn=0.0)
        with pytest.raises(ConfigurationError):
            SloPolicy(name="x", long_burn=1.5)

    def test_default_policies_cover_the_three_streams(self):
        policies = {p.name: p for p in default_policies()}
        assert policies["osnr-margin"].scope == "connection"
        assert policies["restore-latency"].scope == "global"
        assert policies["error-burst"].scope == "global"


# -- windowed series ---------------------------------------------------------


class TestWindowedSeries:
    def test_fraction_over_half_open_window(self):
        series = WindowedSeries()
        for t, v in ((0, 5.0), (10, 1.0), (20, 1.0), (30, 5.0)):
            series.record(t, v)
        # (10, 30] holds samples at t=20 and t=30.
        assert series.fraction(30, 20, lambda v: v < 2.0) == 0.5

    def test_empty_window_reads_healthy(self):
        series = WindowedSeries()
        assert series.fraction(100, 10, lambda v: True) == 0.0

    def test_timestamps_must_not_regress(self):
        series = WindowedSeries()
        series.record(10, 1.0)
        with pytest.raises(ConfigurationError):
            series.record(5, 1.0)

    def test_bounded_memory(self):
        series = WindowedSeries(max_samples=8)
        for t in range(100):
            series.record(float(t), 1.0)
        assert len(series) == 8
        assert series.latest()[0] == 99.0


# -- optical impairment surface ---------------------------------------------


class TestImpairmentState:
    def _plant(self):
        return FiberPlant(build_testbed_graph())

    def test_penalties_sum_per_cause(self):
        plant = self._plant()
        link = plant.dwdm_link("ROADM-I", "ROADM-II")
        link.set_degradation("osnr-drift:0", 2.0)
        link.set_degradation("attenuation-creep:1", 1.5)
        assert link.osnr_penalty_db == pytest.approx(3.5)
        assert link.degradation_causes() == [
            "osnr-drift:0", "attenuation-creep:1"
        ]

    def test_clear_is_idempotent(self):
        plant = self._plant()
        link = plant.dwdm_link("ROADM-I", "ROADM-II")
        link.set_degradation("x", 1.0)
        link.clear_degradation("x")
        link.clear_degradation("x")
        assert link.osnr_penalty_db == 0.0

    def test_negative_penalty_rejected(self):
        plant = self._plant()
        with pytest.raises(ResourceError):
            plant.dwdm_link("ROADM-I", "ROADM-II").set_degradation("x", -1.0)

    def test_path_penalty_sums_links(self):
        plant = self._plant()
        plant.dwdm_link("ROADM-I", "ROADM-II").set_degradation("a", 1.0)
        plant.dwdm_link("ROADM-II", "ROADM-III").set_degradation("b", 2.0)
        path = ["ROADM-I", "ROADM-II", "ROADM-III"]
        assert plant.path_penalty_db(path) == pytest.approx(3.0)
        assert plant.degraded_links() == [
            ("ROADM-I", "ROADM-II"), ("ROADM-II", "ROADM-III")
        ]


class TestAmplifierGain:
    def test_gain_mutation_and_reset(self):
        chain = AmplifierChain(400.0)
        assert chain.gain_db == chain.target_gain_db
        chain.set_gain(chain.target_gain_db - 6.0)
        assert chain.gain_error_db == pytest.approx(6.0)
        chain.reset_gain()
        assert chain.gain_error_db == 0.0


class TestMarginModel:
    def test_margin_subtracts_penalty(self):
        model = OsnrModel()
        clean = model.margin_db(400.0, 10e9)
        assert model.margin_db(400.0, 10e9, penalty_db=2.0) == pytest.approx(
            clean - 2.0
        )

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            OsnrModel().margin_db(400.0, 10e9, penalty_db=-1.0)
