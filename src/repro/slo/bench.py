"""The SLO benchmark: policy-on vs policy-off under gray failure.

One trial builds the 12-city backbone (with a +3 dBm launch-power OSNR
model so the long western routes have positive design margin), brings up
five inter-DC connections whose routes cross the default gray-failure
plan, and replays the plan with the remediation engine either armed
(``policy_on=True``) or watching silently (policies empty — violation
minutes still accrue, nothing remediates).

``tests/test_slo_engine.py`` holds the bar: policy-on cuts
SLA-violation minutes at least 3x, every reroute landed on a path under
the utilization gate, the invariant auditor stayed clean after every
action, and an empty-plan/no-policy run leaves the network fingerprint
identical to one that never attached the subsystem at all.  ``griphon
slo`` and ``griphon sweep slo`` print the same trial.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.facade import GriphonNetwork, build_griphon_backbone
from repro.faults.plan import DegradationPlan, DegradationSpec
from repro.fingerprint import network_fingerprint
from repro.optical.osnr import OsnrModel
from repro.slo.monitor import SloPolicy, default_policies

#: Sim-seconds of degradation replay in the default trial.
DEFAULT_HORIZON_S = 7200.0


def default_degradation_plan() -> DegradationPlan:
    """The stock gray-failure scenario on the 12-city backbone.

    Three concurrent degradations exercising every mode: a fast OSNR
    drift on the Dallas-Atlanta trunk (the DC-CENTRAL <-> DC-SOUTH
    route), a flapping amplifier chain on the west-coast Seattle span
    (DC-WEST <-> DC-NORTHWEST), and a slow attenuation creep on the
    Miami spur.  Both loaded links have SRLG-disjoint alternates with
    headroom, so the armed engine can reroute around them.
    """
    plan = DegradationPlan()
    plan.add(DegradationSpec(
        link="ATL=DFW", mode="osnr-drift", start_s=600.0,
        duration_s=5400.0, magnitude_db=8.0, jitter_db=0.5,
    ))
    plan.add(DegradationSpec(
        link="LAX=SEA", mode="amp-flap", start_s=900.0,
        duration_s=4800.0, magnitude_db=6.0, period_s=600.0,
    ))
    plan.add(DegradationSpec(
        link="ATL=MIA", mode="attenuation-creep", start_s=0.0,
        duration_s=7200.0, magnitude_db=6.0, rate_db_per_hour=3.0,
    ))
    return plan


def build_slo_network(seed: int = 0) -> GriphonNetwork:
    """The benchmark network: backbone + headroom OSNR model."""
    return build_griphon_backbone(
        seed=seed,
        latency_cv=0.0,
        osnr_model=OsnrModel(launch_power_dbm=3.0),
    )


def bring_up_workload(net: GriphonNetwork) -> list:
    """Five 10G inter-DC connections crossing the degraded trunks."""
    service = net.service_for(
        "dc-operator", max_connections=64, max_total_rate_gbps=10000,
    )
    connections = []
    for _ in range(3):
        connections.append(
            service.request_connection("DC-CENTRAL", "DC-SOUTH", 10)
        )
    for _ in range(2):
        connections.append(
            service.request_connection("DC-WEST", "DC-NORTHWEST", 10)
        )
    net.run()
    return connections


def run_slo_trial(
    seed: int = 0,
    policy_on: bool = True,
    plan: Optional[DegradationPlan] = None,
    horizon_s: float = DEFAULT_HORIZON_S,
    audit_each_action: bool = True,
    utilization_gate: float = 0.80,
    policies: Optional[Sequence[SloPolicy]] = None,
) -> Dict[str, Any]:
    """One full detect → remediate → restore trial; returns a flat dict.

    With ``policy_on=False`` the same plan replays against the same
    workload but no policies are armed: the monitor still accrues
    SLA-violation minutes (the comparison currency), the engine never
    acts.  ``policies`` overrides both (``griphon slo --policy FILE``).
    """
    net = build_slo_network(seed)
    connections = bring_up_workload(net)
    plan = plan if plan is not None else default_degradation_plan()
    if policies is None:
        policies = default_policies() if policy_on else ()
    runtime = net.enable_slo(
        plan=plan,
        policies=policies,
        horizon_s=horizon_s + 900.0,
        audit_each_action=audit_each_action,
        utilization_gate=utilization_gate,
    )
    net.run()
    counters = net.metrics.state()["counters"]
    engine = runtime.engine
    actions = {}
    for record in engine.records:
        actions[record.action] = actions.get(record.action, 0) + 1
    return {
        "seed": seed,
        "policy_on": policy_on,
        "connections": len(connections),
        "violation_minutes": round(runtime.monitor.violation_minutes, 3),
        "breaches": counters.get("slo.breaches", 0.0),
        "recoveries": counters.get("slo.recoveries", 0.0),
        "rerouted": counters.get("slo.rerouted", 0.0),
        "reverted": counters.get("slo.reverted", 0.0),
        "escalated": counters.get("slo.escalated", 0.0),
        "deferred": counters.get("slo.deferred", 0.0),
        "restored": counters.get("slo.restored", 0.0),
        "audit_violations": len(engine.audit_failures),
        "audit_ok": engine.audit_ok,
        "max_reroute_utilization": round(engine.max_reroute_utilization, 4),
        "actions": actions,
        "active_breaches": len(runtime.monitor.active_breaches()),
        "fingerprint": network_fingerprint(net),
        "injector_finished": runtime.injector.finished,
        "sim_now": net.sim.now,
    }


def slo_trial(trial) -> "TrialResult":
    """Sweep-registry runner: one :func:`run_slo_trial` per spec.

    A thin adapter so ``griphon sweep`` can grid over seeds and the
    ``policy_on`` axis; imported lazily by the studies registry (see
    :data:`repro.sweep.studies.STUDIES`).
    """
    from repro.sweep.engine import TrialResult

    params = trial.params
    result = run_slo_trial(
        seed=trial.seed,
        policy_on=bool(params.get("policy_on", True)),
        horizon_s=float(params.get("horizon_s", DEFAULT_HORIZON_S)),
        audit_each_action=bool(params.get("audit_each_action", True)),
        utilization_gate=float(params.get("utilization_gate", 0.80)),
    )
    values = {
        key: value
        for key, value in result.items()
        if isinstance(value, (int, float, bool))
    }
    return TrialResult(values=values, samples={}, metrics={})
