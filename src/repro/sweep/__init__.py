"""Scale-out experiment engine: declarative sweeps over worker processes.

The statistical studies — availability Monte Carlo, scaling sweeps,
load grids — are embarrassingly parallel: every trial builds its
own network from a seed and parameters.  This package turns such a
study into data (:class:`~repro.sweep.spec.SweepSpec`), fans the trials
over a process pool (:func:`~repro.sweep.engine.run_sweep`), and merges
the compact per-trial results deterministically, so ``jobs=8`` gives
the same aggregate JSON as ``jobs=1`` — just sooner.

Quick use::

    from repro.sweep import run_sweep, x9_availability_spec

    result = run_sweep(x9_availability_spec(repeats=8), jobs=8)
    print(result.to_json())
"""

from repro.sweep.engine import SweepResult, TrialResult, run_sweep, run_trial
from repro.sweep.spec import SweepSpec, TrialSpec, seed_table
from repro.sweep.studies import (
    STUDIES,
    availability_trial,
    build_waxman_network,
    chaos_trial,
    frontend_load_spec,
    frontend_trial,
    optimize_reclaim_spec,
    optimize_trial,
    pipeline_load_spec,
    pipeline_trial,
    resolve_study,
    scaling_trial,
    shard_trial,
    slo_chaos_spec,
    slo_trial,
    table2_trial,
    x10_scaling_spec,
    x9_availability_spec,
)

__all__ = [
    "STUDIES",
    "SweepResult",
    "SweepSpec",
    "TrialResult",
    "TrialSpec",
    "availability_trial",
    "build_waxman_network",
    "chaos_trial",
    "frontend_load_spec",
    "frontend_trial",
    "optimize_reclaim_spec",
    "optimize_trial",
    "pipeline_load_spec",
    "pipeline_trial",
    "resolve_study",
    "run_sweep",
    "run_trial",
    "scaling_trial",
    "seed_table",
    "shard_trial",
    "slo_chaos_spec",
    "slo_trial",
    "table2_trial",
    "x10_scaling_spec",
    "x9_availability_spec",
]
