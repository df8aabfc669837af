"""SLO remediation report: emits ``BENCH_slo.json``.

Replays the stock gray-failure plan (:func:`repro.slo.bench.
default_degradation_plan`) against the 12-city backbone workload twice —
remediation engine armed vs policies off — and records the comparison
the tentpole is judged on:

* **violation-minutes cut** — policy-on must accrue at most 1/3 of the
  policy-off SLA-violation minutes (the >= 3x acceptance bar);
* **headroom gate** — every reroute the engine took must have landed on
  a path whose worst post-claim link utilization stayed under 80%;
* **audit oracle** — the invariant auditor runs after *every* engine
  action in both runs and must stay clean;
* **empty-plan identity** — attaching the subsystem with an empty plan
  and no policies must leave the network fingerprint byte-identical to
  a run that never called ``enable_slo`` at all.

Determinism is gated by running the armed trial twice at the same seed
and requiring identical fingerprints and violation minutes.

Usage::

    PYTHONPATH=src python benchmarks/slo_report.py [output.json]

``main`` exits non-zero when any acceptance check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.faults.plan import DegradationPlan
from repro.fingerprint import network_fingerprint
from repro.slo.bench import (
    bring_up_workload,
    build_slo_network,
    run_slo_trial,
)

#: Default output path: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_slo.json"

#: The acceptance bar on the violation-minutes ratio.
REQUIRED_CUT = 3.0

#: The reroute headroom gate the engine enforces (and we re-assert).
UTILIZATION_GATE = 0.80


def empty_plan_identity(seed: int = 0) -> Dict[str, object]:
    """Fingerprint a bare run vs an empty-plan ``enable_slo`` run."""
    bare = build_slo_network(seed)
    bring_up_workload(bare)
    bare.run()
    attached = build_slo_network(seed)
    bring_up_workload(attached)
    runtime = attached.enable_slo(plan=DegradationPlan(), policies=())
    attached.run()
    return {
        "bare_fingerprint": network_fingerprint(bare),
        "attached_fingerprint": network_fingerprint(attached),
        "runtime_is_none": runtime is None,
        "identical": network_fingerprint(bare) == network_fingerprint(attached),
    }


def collect_measurements(seed: int = 0) -> Dict[str, object]:
    """Both trials, the determinism repeat, and the identity check."""
    policy_off = run_slo_trial(seed=seed, policy_on=False)
    policy_on = run_slo_trial(seed=seed, policy_on=True)
    repeat = run_slo_trial(seed=seed, policy_on=True)
    return {
        "policy_off": policy_off,
        "policy_on": policy_on,
        "deterministic": (
            policy_on["fingerprint"] == repeat["fingerprint"]
            and policy_on["violation_minutes"] == repeat["violation_minutes"]
        ),
        "empty_plan": empty_plan_identity(seed),
    }


def acceptance(measurements: Dict[str, object]) -> Dict[str, object]:
    """The acceptance block ``main`` gates on."""
    off = measurements["policy_off"]
    on = measurements["policy_on"]
    cut = off["violation_minutes"] / max(on["violation_minutes"], 1e-9)
    checks = {
        "violation_minutes_cut_3x": cut >= REQUIRED_CUT,
        "zero_audit_violations": (
            on["audit_violations"] == 0 and off["audit_violations"] == 0
        ),
        "reroutes_under_utilization_gate": (
            on["max_reroute_utilization"] < UTILIZATION_GATE
        ),
        "engine_acted": on["rerouted"] > 0,
        "deterministic": bool(measurements["deterministic"]),
        "empty_plan_identity": bool(measurements["empty_plan"]["identical"]),
    }
    return {
        "violation_minutes_cut": round(cut, 2),
        "required_cut": REQUIRED_CUT,
        "utilization_gate": UTILIZATION_GATE,
        "checks": checks,
        "ok": all(checks.values()),
    }


def write_report(path: Path, measurements: Dict[str, object]) -> None:
    report = {
        "benchmark": "slo-gray-failure-remediation",
        "schema_version": 1,
        "measurements": measurements,
        "acceptance": acceptance(measurements),
    }
    path.write_text(json.dumps(report, indent=2) + "\n")


def main(argv: List[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUTPUT
    measurements = collect_measurements()
    off = measurements["policy_off"]
    on = measurements["policy_on"]
    print(
        f"policy-off: {off['violation_minutes']:7.1f} SLA-violation min | "
        f"policy-on: {on['violation_minutes']:7.1f} min "
        f"({off['violation_minutes'] / max(on['violation_minutes'], 1e-9):.1f}x cut), "
        f"{on['rerouted']:g} reroute(s), {on['reverted']:g} revert(s), "
        f"max util {on['max_reroute_utilization']:.1%}"
    )
    gate = acceptance(measurements)
    for name, passed in sorted(gate["checks"].items()):
        print(f"  acceptance {name}: {'ok' if passed else 'FAILED'}")
    write_report(output, measurements)
    print(f"wrote {output}")
    return 0 if gate["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
