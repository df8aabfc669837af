"""Global re-optimization: snapshot, plan, migrate — without dropping traffic.

The paper's re-grooming story taken network-wide: instead of migrating
one connection at a time toward a shorter route (:mod:`repro.core.regrooming`),
this package freezes the whole network into an immutable re-planning
problem (:mod:`~repro.optimize.snapshot`), computes a global migration
plan with a pure-python repack heuristic (:mod:`~repro.optimize.planner`),
and executes it move by move via bridge-and-roll with saga rollback
(:mod:`~repro.optimize.executor`).  :mod:`~repro.optimize.runtime` ties
the layers into an operational cycle, with the SLO breach stream feeding
the planner's link costs; :mod:`~repro.optimize.bench` is the
``griphon optimize`` / ``sweep optimize`` trial.
"""
