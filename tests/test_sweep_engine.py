"""Tests for the scale-out sweep engine: specs, workers, determinism."""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SweepTimeoutError
from repro.sweep import (
    SweepResult,
    SweepSpec,
    TrialResult,
    run_sweep,
    run_trial,
    seed_table,
)


# -- module-level runners (workers import these by reference) ---------------


def echo_runner(trial):
    """Return the trial's own identity as values: cheap and checkable."""
    return {
        "seed_mod": trial.seed % 1000,
        "x": trial.params.get("x", 0),
        "scale": trial.params.get("scale", 1.0),
    }


def sampling_runner(trial):
    streams = trial.streams()
    draws = [streams.uniform("draw", 0.0, 1.0) for _ in range(5)]
    result = TrialResult(
        values={"mean_draw": sum(draws) / len(draws)},
        samples={"draws": draws},
    )
    result.metrics = {
        "counters": {"trials": 1.0},
        "samples": {"draw": draws},
    }
    return result


def failing_runner(trial):
    if trial.params.get("x", 0) == 2:
        raise ValueError("x=2 is cursed")
    return {"x": trial.params["x"]}


def bad_return_runner(trial):
    return 42


def slow_runner(trial):
    time.sleep(30.0)
    return {}


# -- spec expansion ----------------------------------------------------------


class TestSweepSpec:
    def test_grid_is_sorted_cartesian_product(self):
        spec = SweepSpec(
            name="s",
            runner=echo_runner,
            axes={"b": (1, 2), "a": ("x", "y")},
        )
        assert spec.grid_points() == [
            {"a": "x", "b": 1},
            {"a": "x", "b": 2},
            {"a": "y", "b": 1},
            {"a": "y", "b": 2},
        ]

    def test_trials_expand_grid_outer_repeats_inner(self):
        spec = SweepSpec(
            name="s", runner=echo_runner, axes={"x": (1, 2)}, repeats=3
        )
        trials = spec.trials()
        assert len(trials) == 6
        assert [t.index for t in trials] == list(range(6))
        assert trials[0].trial_id == "s/x=1/rep0"
        assert trials[3].trial_id == "s/x=2/rep0"

    def test_fixed_params_merged_under_axes(self):
        spec = SweepSpec(
            name="s",
            runner=echo_runner,
            axes={"x": (1,)},
            fixed={"scale": 2.0, "x": 99},  # axis value wins
        )
        (trial,) = spec.trials()
        assert trial.params == {"scale": 2.0, "x": 1}

    def test_axisless_spec_still_runs(self):
        spec = SweepSpec(name="s", runner=echo_runner, repeats=2)
        trials = spec.trials()
        assert [t.trial_id for t in trials] == ["s/-/rep0", "s/-/rep1"]

    def test_seeds_are_distinct_and_stable(self):
        spec = SweepSpec(
            name="s", runner=echo_runner, axes={"x": (1, 2, 3)}, repeats=4
        )
        table = seed_table(spec)
        assert len(set(table.values())) == len(table) == 12
        assert table == seed_table(spec)  # derivation is pure

    def test_base_seed_changes_every_trial_seed(self):
        kwargs = dict(name="s", runner=echo_runner, axes={"x": (1, 2)})
        a = seed_table(SweepSpec(base_seed=1, **kwargs))
        b = seed_table(SweepSpec(base_seed=2, **kwargs))
        assert all(a[key] != b[key] for key in a)

    def test_lambda_runner_rejected(self):
        with pytest.raises(ConfigurationError, match="lambda"):
            SweepSpec(name="s", runner=lambda t: {})

    def test_closure_runner_rejected(self):
        def local_runner(trial):
            return {}

        with pytest.raises(ConfigurationError, match="module-level"):
            SweepSpec(name="s", runner=local_runner)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            SweepSpec(name="s", runner=echo_runner, axes={"x": ()})

    def test_bad_repeats_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(name="s", runner=echo_runner, repeats=0)

    def test_from_dict_resolves_study(self):
        spec = SweepSpec.from_dict(
            {
                "name": "custom",
                "study": "availability",
                "axes": {"auto_restore": [True, False]},
                "repeats": 2,
                "base_seed": 7,
            }
        )
        assert spec.name == "custom"
        assert spec.repeats == 2
        assert len(spec.trials()) == 4

    def test_from_dict_missing_key(self):
        with pytest.raises(ConfigurationError, match="missing key"):
            SweepSpec.from_dict({"name": "x"})

    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown study"):
            SweepSpec.from_dict({"name": "x", "study": "nope"})


class TestSeedSpawnProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        axis_size=st.integers(min_value=1, max_value=6),
        repeats=st.integers(min_value=1, max_value=6),
        base_seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_trial_seeds_never_collide(self, axis_size, repeats, base_seed):
        spec = SweepSpec(
            name="prop",
            runner=echo_runner,
            axes={"x": tuple(range(axis_size))},
            repeats=repeats,
            base_seed=base_seed,
        )
        seeds = [t.seed for t in spec.trials()]
        assert len(set(seeds)) == len(seeds)

    @settings(max_examples=25, deadline=None)
    @given(base_seed=st.integers(min_value=0, max_value=2**32))
    def test_shard_spawned_substreams_never_collide(self, base_seed):
        """16 shards x 64 trial substreams: every master seed distinct.

        The sharded network derives each shard's stream family with
        ``spawn("shard:<region>")`` and the shard benchmark derives each
        trial's with a further spawn; a collision anywhere would let two
        shards (or two trials) replay each other's randomness.
        """
        from repro.sim.randomness import RandomStreams
        from repro.topo.hierarchy import region_name

        root = RandomStreams(base_seed)
        masters = [base_seed]
        for index in range(16):
            shard = root.spawn(f"shard:{region_name(index)}")
            masters.append(shard.master_seed)
            masters.extend(
                shard.spawn(f"trial:{trial}").master_seed
                for trial in range(64)
            )
        assert len(set(masters)) == len(masters)


# -- trial execution ---------------------------------------------------------


class TestRunTrial:
    def _trial(self, runner, **params):
        spec = SweepSpec(
            name="t", runner=runner, axes={k: (v,) for k, v in params.items()}
        )
        return spec.trials()[0]

    def test_mapping_becomes_values(self):
        result = run_trial(self._trial(echo_runner, x=5))
        assert result.error is None
        assert result.values["x"] == 5
        assert result.trial_id == "t/x=5/rep0"
        assert result.index == 0

    def test_trial_result_identity_overwritten(self):
        result = run_trial(self._trial(sampling_runner))
        assert result.trial_id == "t/-/rep0"
        assert result.seed != 0
        assert len(result.samples["draws"]) == 5

    def test_exception_becomes_error_result(self):
        result = run_trial(self._trial(failing_runner, x=2))
        assert result.error == "ValueError: x=2 is cursed"
        assert result.values == {}

    def test_bad_return_type_rejected(self):
        with pytest.raises(ConfigurationError, match="expected a"):
            run_trial(self._trial(bad_return_runner))


# -- sweeps, serial and parallel ---------------------------------------------


class TestRunSweep:
    def test_serial_results_in_trial_order(self):
        spec = SweepSpec(
            name="s", runner=echo_runner, axes={"x": (3, 1, 2)}, repeats=2
        )
        result = run_sweep(spec)
        assert isinstance(result, SweepResult)
        assert [r.index for r in result.results] == list(range(6))
        assert not result.failed

    def test_failures_are_collected_not_raised(self):
        spec = SweepSpec(
            name="s", runner=failing_runner, axes={"x": (1, 2, 3)}
        )
        result = run_sweep(spec)
        assert len(result.failed) == 1
        assert result.failed[0].params["x"] == 2

    def test_grouped_values_mean_over_repeats(self):
        spec = SweepSpec(
            name="s", runner=echo_runner, axes={"x": (1, 2)}, repeats=3
        )
        grouped = run_sweep(spec).grouped_values()
        assert set(grouped) == {"x=1", "x=2"}
        assert grouped["x=1"]["x"] == 1.0
        assert grouped["x=2"]["x"] == 2.0

    def test_pooled_samples_and_merged_metrics(self):
        spec = SweepSpec(name="s", runner=sampling_runner, repeats=3)
        result = run_sweep(spec)
        assert len(result.pooled_samples()["draws"]) == 15
        merged = result.merged_metrics()
        assert merged.counter("trials") == 3.0
        assert len(merged.samples("draw")) == 15

    def test_aggregate_excludes_wall_clock(self):
        spec = SweepSpec(name="s", runner=echo_runner)
        aggregate = run_sweep(spec).aggregate()
        flat = json.dumps(aggregate)
        assert "elapsed" not in flat
        assert "jobs" not in flat
        assert aggregate["trial_count"] == 1

    def test_bad_jobs_rejected(self):
        spec = SweepSpec(name="s", runner=echo_runner)
        with pytest.raises(ConfigurationError):
            run_sweep(spec, jobs=0)

    def test_parallel_matches_serial_byte_identically(self):
        spec = SweepSpec(
            name="det",
            runner=sampling_runner,
            axes={"x": (1, 2)},
            repeats=3,
            base_seed=42,
        )
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial.to_json() == parallel.to_json()
        assert parallel.jobs == 4

    def test_parallel_collects_failures(self):
        spec = SweepSpec(
            name="s", runner=failing_runner, axes={"x": (1, 2, 3)}, repeats=2
        )
        result = run_sweep(spec, jobs=2)
        assert len(result.failed) == 2
        assert all(r.params["x"] == 2 for r in result.failed)

    def test_watchdog_times_out_stuck_pool(self):
        spec = SweepSpec(name="stuck", runner=slow_runner, repeats=2)
        with pytest.raises(SweepTimeoutError, match="no trial completed"):
            run_sweep(spec, jobs=2, timeout_s=0.3)
        # The watchdog kills the workers it abandons: none outlives the raise.
        deadline = time.monotonic() + 1.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert multiprocessing.active_children() == []

    def test_real_study_parallel_matches_serial(self):
        """The x9 availability study — real networks built in workers —
        aggregates byte-identically at jobs=1 and jobs=4."""
        from repro.sweep import x9_availability_spec
        from repro.units import DAY

        spec = x9_availability_spec(repeats=2, horizon_s=4 * DAY)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert not serial.failed and not parallel.failed
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize(
        "study, fixed",
        [
            ("table2", {}),
            ("chaos", {"orders": 3, "rate": 0.3}),
            ("shard", {"regions": 2, "pops": 6, "orders": 2, "mode": "both"}),
        ],
    )
    def test_command_study_parallel_matches_serial(self, study, fixed):
        """The studies behind ``table2``, ``chaos`` and ``shard`` sweep
        byte-identically at jobs=1 and jobs=2."""
        spec = SweepSpec.from_dict(
            {"name": study, "study": study, "fixed": fixed, "repeats": 2,
             "base_seed": 7}
        )
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert not serial.failed, serial.failed[0].error
        assert serial.to_json() == parallel.to_json()


def test_importing_studies_loads_no_shard_slo_or_optimize_package():
    """``repro.sweep.studies`` stays cheap to import (``bench`` imports it
    for ``build_waxman_network``): runners that need the shard, slo or
    optimize packages import them when a trial runs."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys, repro.sweep.studies; print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.shard', 'repro.slo', 'repro.optimize'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]"
