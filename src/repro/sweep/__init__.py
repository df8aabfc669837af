"""Scale-out experiment engine: declarative sweeps over worker processes.

The statistical studies — availability Monte Carlo, scaling sweeps,
load grids — are embarrassingly parallel: every trial builds its
own network from a seed and parameters.  This package turns such a
study into data (:class:`~repro.sweep.spec.SweepSpec`), fans the trials
over a process pool (:func:`~repro.sweep.engine.run_sweep`), and merges
the compact per-trial results deterministically, so ``jobs=8`` gives
the same aggregate JSON as ``jobs=1`` — just sooner.

Quick use::

    from repro.sweep.engine import run_sweep
    from repro.sweep.studies import x9_availability_spec

    result = run_sweep(x9_availability_spec(repeats=8), jobs=8)
    print(result.to_json())
"""
