"""SLA-aware autonomous operations: gray failures and remediation.

Hard faults (fiber cuts, element failures) trip restoration; *gray*
failures — OSNR drift, flapping amplifiers, creeping attenuation — erode
service quality without tripping anything.  This package closes the
detect → impact → remediate → monitor → restore loop over them:

* :mod:`repro.slo.inject` — :class:`DegradationInjector` replays a
  seeded :class:`~repro.faults.plan.DegradationPlan` against the
  optical impairment state (link OSNR penalties, amplifier gains);
* :mod:`repro.slo.monitor` — :class:`SlaMonitor` samples per-connection
  OSNR margins (plus global latency/error streams) against declarative
  :class:`SloPolicy` objects with multi-window burn-rate detection;
* :mod:`repro.slo.engine` — :class:`RemediationEngine`, the runbook
  executor: defer to a scheduled maintenance window, reroute via
  bridge-and-roll only when the alternate path has utilization headroom,
  escalate to DEGRADED with a typed
  :class:`~repro.api.SlaBreached` otherwise, and auto-revert when the
  SLA recovers;
* :mod:`repro.slo.bench` — the policy-on/off benchmark trial behind
  ``griphon slo`` and the ``sweep slo`` study.

Attach it all with ``net.enable_slo(plan, policies)``; an empty plan
with no policies schedules nothing, leaving the event stream
byte-identical to a network without the subsystem.
"""

from repro.slo.engine import RemediationEngine, RemediationRecord
from repro.slo.inject import DegradationInjector
from repro.slo.monitor import SlaMonitor, SloPolicy, default_policies

__all__ = [
    "DegradationInjector",
    "RemediationEngine",
    "RemediationRecord",
    "SlaMonitor",
    "SloPolicy",
    "default_policies",
]
