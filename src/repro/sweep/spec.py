"""Declarative sweep specifications: what to run, over which grid.

A :class:`SweepSpec` describes an experiment sweep as *data*: a runner
(a module-level callable), a parameter grid, a replicate count, and a
base seed.  The spec expands deterministically into an ordered list of
:class:`TrialSpec` objects — one per (grid point, replicate) — each
carrying its own derived master seed.

Picklability rules (enforced at construction):

* the runner must be an importable module-level callable — lambdas,
  closures, and bound methods cannot cross a ``ProcessPoolExecutor``
  boundary by reference;
* grid values and fixed parameters must themselves be picklable plain
  data (numbers, strings, tuples, dicts) — in particular, a trial spec
  carries a *recipe* for a network (builder parameters), never a live
  :class:`~repro.facade.GriphonNetwork`.

Seed-spawning discipline: every trial's master seed is derived by
:meth:`~repro.sim.randomness.RandomStreams.spawn` from ``(base_seed,
trial_id)``.  Trial ids are unique within a sweep, so no two trials
ever share a substream — and the derivation is stable across processes
and Python versions, which is what makes ``jobs=1`` and ``jobs=N``
byte-identical.
"""

from __future__ import annotations

import itertools
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro import FrozenRecord, record_eq, record_ne
from repro.errors import ConfigurationError
from repro.sim.randomness import RandomStreams


def _check_picklable_runner(runner: Callable[..., Any]) -> None:
    """Reject callables that pickle cannot ship by reference."""
    if not callable(runner):
        raise ConfigurationError(f"runner must be callable, got {runner!r}")
    qualname = getattr(runner, "__qualname__", "")
    module = getattr(runner, "__module__", None)
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise ConfigurationError(
            f"runner {qualname!r} is a lambda or closure; sweep runners "
            "must be module-level functions so workers can import them"
        )
    if module is None or module == "__main__":
        raise ConfigurationError(
            f"runner {qualname!r} must live in an importable module "
            "(not __main__) to be picklable by reference"
        )


class TrialSpec(NamedTuple):
    """One trial of a sweep: a runner, its parameters, and a seed.

    Attributes:
        sweep: Name of the owning sweep.
        index: Position in the sweep's deterministic trial order.
        trial_id: Stable human-readable id (unique within the sweep).
        seed: The trial's derived master seed — pass it to the network
            builder / :class:`~repro.sim.randomness.RandomStreams`.
        params: The grid point merged over the sweep's fixed parameters.
        runner: The module-level callable executed in the worker.
    """

    sweep: str
    index: int
    trial_id: str
    seed: int
    params: Mapping[str, Any]
    runner: Callable[["TrialSpec"], Any]

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def streams(self) -> RandomStreams:
        """A fresh stream family seeded for this trial."""
        return RandomStreams(self.seed)


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

    __slots__ = (
        "trial_id", "index", "seed", "params", "values", "samples",
        "metrics", "report", "error",
    )

    def __init__(
        self,
        trial_id: str = "",
        index: int = -1,
        seed: int = 0,
        params: Optional[Dict[str, Any]] = None,
        values: Optional[Dict[str, Any]] = None,
        samples: Optional[Dict[str, List[float]]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        report: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        self.trial_id = trial_id
        self.index = index
        self.seed = seed
        self.params = {} if params is None else params
        self.values = {} if values is None else values
        self.samples = {} if samples is None else samples
        self.metrics = {} if metrics is None else metrics
        self.report = {} if report is None else report
        self.error = error


class SweepSpec(FrozenRecord):
    """A declarative experiment sweep: runner × grid × replicates.

    Attributes:
        name: Sweep name (appears in trial ids and reports).
        runner: Module-level callable invoked per trial with the
            :class:`TrialSpec`; returns a mapping of scalar outcome
            values or a full :class:`TrialResult`.
        axes: Parameter grid; the cartesian product of the axis values
            (axes iterated in sorted-name order) defines the grid
            points.
        fixed: Parameters shared by every trial.
        repeats: Replicates per grid point (distinct seeds).
        base_seed: Root of the per-trial seed derivation.
    """

    __slots__ = _fields = (
        "name", "runner", "axes", "fixed", "repeats", "base_seed",
    )

    def __init__(
        self,
        name: str,
        runner: Callable[[TrialSpec], Any],
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        fixed: Optional[Mapping[str, Any]] = None,
        repeats: int = 1,
        base_seed: int = 0,
    ) -> None:
        if not name:
            raise ConfigurationError("sweep needs a name")
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        _check_picklable_runner(runner)
        axes = {} if axes is None else axes
        for axis, values in axes.items():
            if not values:
                raise ConfigurationError(f"axis {axis!r} has no values")
        super().__init__(
            name, runner, axes, {} if fixed is None else fixed, repeats, base_seed,
        )

    # -- expansion ----------------------------------------------------------

    def grid_points(self) -> List[Dict[str, Any]]:
        """The cartesian product of the axes, in deterministic order."""
        names = sorted(self.axes)
        points = []
        for combo in itertools.product(*(self.axes[name] for name in names)):
            points.append(dict(zip(names, combo)))
        return points

    def trials(self) -> List[TrialSpec]:
        """Expand into the ordered trial list (grid outer, repeats inner)."""
        root = RandomStreams(self.base_seed)
        trials: List[TrialSpec] = []
        for point in self.grid_points():
            point_id = ",".join(f"{k}={point[k]}" for k in sorted(point)) or "-"
            for rep in range(self.repeats):
                trial_id = f"{self.name}/{point_id}/rep{rep}"
                params = dict(self.fixed)
                params.update(point)
                trials.append(
                    TrialSpec(
                        sweep=self.name,
                        index=len(trials),
                        trial_id=trial_id,
                        seed=root.spawn(trial_id).master_seed,
                        params=params,
                        runner=self.runner,
                    )
                )
        return trials

    # -- JSON-friendly construction -----------------------------------------

    @classmethod
    def from_dict(
        cls,
        spec: Mapping[str, Any],
        resolve: Optional[Callable[[str], Callable[[TrialSpec], Any]]] = None,
    ) -> "SweepSpec":
        """Build a spec from plain data (e.g. a JSON file).

        The ``"study"`` key names the runner; ``resolve`` maps it to a
        callable (default: the registry in :mod:`repro.sweep.studies`).
        """
        if resolve is None:
            from repro.sweep.studies import resolve_study

            resolve = resolve_study
        try:
            axes = {
                str(axis): tuple(values)
                for axis, values in dict(spec.get("axes", {})).items()
            }
            return cls(
                name=str(spec["name"]),
                runner=resolve(str(spec["study"])),
                axes=axes,
                fixed=dict(spec.get("fixed", {})),
                repeats=int(spec.get("repeats", 1)),
                base_seed=int(spec.get("base_seed", 0)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"sweep spec missing key {exc}") from exc


def seed_table(spec: SweepSpec) -> Dict[str, int]:
    """Map of trial id -> derived seed (diagnostics / collision tests)."""
    return {trial.trial_id: trial.seed for trial in spec.trials()}


def grid_point_id(params: Mapping[str, Any], axes: Sequence[str]) -> Tuple:
    """A hashable key identifying a trial's grid point."""
    return tuple((name, params[name]) for name in sorted(axes))
