"""The scale-out experiment engine: fan a sweep over worker processes.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into
trials and executes them either serially (``jobs=1``) or on a
``ProcessPoolExecutor`` (``jobs=N``).  Three properties make the two
modes interchangeable:

* **Workers build, parents merge.**  A worker receives only the
  picklable :class:`~repro.sweep.spec.TrialSpec`, constructs its own
  network from the build parameters, runs the trial, and returns a
  compact :class:`TrialResult` — live networks never cross the process
  boundary in either direction.
* **Deterministic ordering.**  Results are merged in trial-index order
  regardless of completion order, so aggregates are identical at any
  job count (byte-identical JSON, in fact — wall-clock timings are
  reported next to, never inside, the aggregate).
* **Independent seeds.**  Each trial's master seed is spawned from
  ``(base_seed, trial_id)``; no two trials share a random substream.

A trial that raises records its error in the result (``error`` field)
rather than aborting the sweep — sweeps are experiments, and a partial
outcome is still data.  A pool that stops making progress trips the
``timeout_s`` watchdog with :class:`~repro.errors.SweepTimeoutError`.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError, SweepTimeoutError
from repro.obs.registry import MetricsRegistry
from repro.sweep.spec import SweepSpec, TrialSpec, grid_point_id


@dataclass
class TrialResult:
    """The compact outcome of one trial, cheap to pickle back.

    Attributes:
        trial_id / index / seed / params: Copied from the trial spec.
        values: Scalar outcomes (availability, blocked count, ...).
        samples: Named sample series (e.g. per-connection setup times);
            pooled across trials for sweep-level summaries.
        metrics: A mergeable registry state
            (:meth:`~repro.obs.registry.MetricsRegistry.state`).
        report: Plain data a ``griphon`` command renders (per-order
            rows, audit summaries, the full result dict); never
            aggregated, so it stays out of the sweep JSON.
        error: ``None`` on success, else ``"ExcType: message"``.
    """

    trial_id: str = ""
    index: int = -1
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    values: Dict[str, Any] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None


def run_trial(trial: TrialSpec) -> TrialResult:
    """Execute one trial in the current process.

    Normalizes whatever the runner returns: a :class:`TrialResult` is
    passed through (identity fields overwritten from the spec), a
    mapping becomes the ``values`` dict, and an exception becomes an
    error-carrying result.
    """
    try:
        outcome = trial.runner(trial)
    except Exception as exc:  # noqa: BLE001 - a failed trial is data
        return TrialResult(
            trial_id=trial.trial_id,
            index=trial.index,
            seed=trial.seed,
            params=dict(trial.params),
            error=f"{type(exc).__name__}: {exc}",
        )
    if isinstance(outcome, TrialResult):
        outcome.trial_id = trial.trial_id
        outcome.index = trial.index
        outcome.seed = trial.seed
        outcome.params = dict(trial.params)
        return outcome
    if isinstance(outcome, Mapping):
        return TrialResult(
            trial_id=trial.trial_id,
            index=trial.index,
            seed=trial.seed,
            params=dict(trial.params),
            values=dict(outcome),
        )
    raise ConfigurationError(
        f"trial runner returned {type(outcome).__name__}; expected a "
        "TrialResult or a mapping of values"
    )


@dataclass
class SweepResult:
    """Everything a finished sweep produced, in deterministic order."""

    spec: SweepSpec
    results: List[TrialResult]
    jobs: int
    elapsed_s: float

    @property
    def failed(self) -> List[TrialResult]:
        """Trials that raised."""
        return [r for r in self.results if r.error is not None]

    def merged_metrics(self) -> MetricsRegistry:
        """All per-trial metrics folded into one registry, in trial order."""
        merged = MetricsRegistry()
        for result in self.results:
            if result.metrics:
                merged.merge(result.metrics)
        return merged

    def grouped_values(self) -> Dict[str, Dict[str, float]]:
        """Mean of each numeric value per grid point (across repeats)."""
        axes = sorted(self.spec.axes)
        buckets: Dict[Any, List[TrialResult]] = {}
        for result in self.results:
            if result.error is None:
                key = grid_point_id(result.params, axes)
                buckets.setdefault(key, []).append(result)
        grouped: Dict[str, Dict[str, float]] = {}
        for key, bucket in buckets.items():
            label = ",".join(f"{name}={value}" for name, value in key) or "-"
            means: Dict[str, float] = {}
            value_names = sorted(
                {name for result in bucket for name in result.values}
            )
            for name in value_names:
                numbers = [
                    result.values[name]
                    for result in bucket
                    if isinstance(result.values.get(name), (int, float))
                    and not isinstance(result.values.get(name), bool)
                ]
                if numbers:
                    means[name] = statistics.fmean(numbers)
            grouped[label] = means
        return grouped

    def pooled_samples(self) -> Dict[str, List[float]]:
        """All trials' sample series concatenated in trial order."""
        pooled: Dict[str, List[float]] = {}
        for result in self.results:
            for name, series in sorted(result.samples.items()):
                pooled.setdefault(name, []).extend(series)
        return pooled

    def aggregate(self) -> Dict[str, Any]:
        """The sweep's JSON-ready aggregate.

        Contains only simulation-determined data — no wall-clock, no
        job count — so ``jobs=1`` and ``jobs=N`` runs of the same spec
        serialize byte-identically.
        """
        from repro.metrics.collector import summarize

        series: Dict[str, Any] = {}
        for name, samples in self.pooled_samples().items():
            summary = summarize(samples)
            series[name] = {
                "count": summary.count,
                "mean": summary.mean,
                "min": summary.minimum,
                "p50": summary.p50,
                "p95": summary.p95,
                "max": summary.maximum,
            }
        metrics = self.merged_metrics().snapshot()
        metrics.pop("gauges", None)
        failed = self.failed
        first_error = (
            {"trial_id": failed[0].trial_id, "error": failed[0].error}
            if failed
            else None
        )
        return {
            "schema_version": 1,
            "sweep": self.spec.name,
            "base_seed": self.spec.base_seed,
            "trial_count": len(self.results),
            "failed_trials": len(failed),
            "first_error": first_error,
            "trials": [
                {
                    "trial_id": r.trial_id,
                    "seed": r.seed,
                    "params": dict(r.params),
                    "values": dict(r.values),
                    "error": r.error,
                }
                for r in self.results
            ],
            "grouped": self.grouped_values(),
            "series": series,
            "metrics": metrics,
        }

    def to_json(self) -> str:
        """Canonical serialization of :meth:`aggregate` (sorted keys)."""
        import json

        return json.dumps(self.aggregate(), sort_keys=True, indent=2) + "\n"


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Tear ``pool`` down without waiting for its running trials.

    ``shutdown`` cancels only the trials no worker has picked up; a running
    one would keep its worker alive until interpreter exit joins it, so
    every worker the pool started is terminated (killed if it lingers a
    second) and joined.
    """
    workers = list((pool._processes or {}).values())  # private: the only handle
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.terminate()
    for worker in workers:
        worker.join(1.0)
        if worker.is_alive():
            worker.kill()
            worker.join()


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
) -> SweepResult:
    """Run every trial of ``spec`` and merge the results.

    Args:
        spec: The sweep to expand and execute.
        jobs: Worker processes; ``1`` runs serially in-process (no pool,
            no pickling) but produces the identical aggregate.
        timeout_s: Watchdog for the parallel path — if no new trial
            completes for this long, the pool is torn down and
            :class:`~repro.errors.SweepTimeoutError` is raised.

    Returns:
        A :class:`SweepResult` with per-trial results in trial order.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    trials = spec.trials()
    started = time.perf_counter()
    if jobs == 1 or len(trials) <= 1:
        results = [run_trial(trial) for trial in trials]
        return SweepResult(spec, results, jobs, time.perf_counter() - started)

    slots: List[Optional[TrialResult]] = [None] * len(trials)
    with ProcessPoolExecutor(max_workers=min(jobs, len(trials))) as pool:
        index_of = {pool.submit(run_trial, trial): trial.index for trial in trials}
        outstanding = set(index_of)
        while outstanding:
            done, outstanding = wait(
                outstanding, timeout=timeout_s, return_when=FIRST_COMPLETED
            )
            if not done:
                _stop_workers(pool)
                raise SweepTimeoutError(
                    f"sweep {spec.name!r}: no trial completed within "
                    f"{timeout_s}s ({len(outstanding)} outstanding)"
                )
            for future in done:
                slots[index_of[future]] = future.result()
    results = [result for result in slots if result is not None]
    return SweepResult(spec, results, jobs, time.perf_counter() - started)
