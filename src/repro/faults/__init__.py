"""Deterministic fault injection, resilient EMS commands, and auditing.

Three pieces, composable but independently usable:

* :mod:`repro.faults.plan` — a declarative, seeded :class:`FaultPlan`
  that decides which EMS commands fail, how, and when;
* :mod:`repro.faults.resilient` — the :class:`ResilientExecutor` every
  EMS command runs through: sim-time timeouts, bounded retries with
  exponential backoff and deterministic jitter, per-EMS circuit
  breakers;
* :mod:`repro.faults.audit` — an invariant auditor cross-checking
  inventory claims against hardware state, used as the oracle of the
  chaos property tests and the ``griphon chaos`` CLI.
"""
