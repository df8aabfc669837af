"""The runbook executor: policy-driven remediation of gray failures.

Closes the detect → impact → remediate → monitor → restore loop.  On a
breach from the :class:`~repro.slo.monitor.SlaMonitor` the engine:

1. **localizes impact** — the degraded links on the connection's
   current path (gray failures never trip the hard-fault localizer);
2. **defers** when the maintenance calendar already has a window
   covering an impacted link within the defer horizon — the scheduled
   migration will move the traffic anyway;
3. **reroutes** via bridge-and-roll around the impacted links, but only
   when *every* link of the alternate path would stay under the
   utilization gate (<80% by default) after taking the new channel;
4. **escalates** otherwise: the connection transitions to DEGRADED with
   a typed :class:`~repro.api.SlaBreached` outcome and a recorded
   degradation cause the GUI renders distinctly from hard faults;
5. **restores** — rerouted connections are rolled back to a fresh best
   path once the links they fled have recovered, and escalated
   connections de-escalate to UP when the SLA clears.

Every action appends a :class:`RemediationRecord`; with
``audit_each_action=True`` the invariant auditor runs after each one,
making the engine's whole lifecycle subject to the same oracle as the
chaos tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro import api
from repro.core.connection import ConnectionState
from repro.errors import GriphonError
from repro.faults.audit import AuditReport, audit_network
from repro.slo.monitor import SlaMonitor, SloPolicy


@dataclass(frozen=True)
class RemediationRecord:
    """One action the engine took, for the audit trail and the CLI."""

    at: float
    connection_id: str
    policy: str
    action: str
    detail: str = ""

    def __str__(self) -> str:
        who = self.connection_id or "<network>"
        return f"[{self.at:9.1f}s] {who} {self.action} ({self.policy}) {self.detail}"


class RemediationEngine:
    """Executes the remediation runbook against a controller."""

    def __init__(
        self,
        controller,
        monitor: SlaMonitor,
        maintenance=None,
        utilization_gate: float = 0.80,
        defer_horizon_s: float = 4 * 3600.0,
        audit_each_action: bool = False,
    ) -> None:
        self._controller = controller
        self._monitor = monitor
        self._maintenance = maintenance
        self._gate = utilization_gate
        self._defer_horizon_s = defer_horizon_s
        self._audit_each_action = audit_each_action
        #: conn id -> watch | deferred | rerouting | rerouted | escalated
        #: | reverting (absent means watch).
        self._phase: Dict[str, str] = {}
        #: conn id -> the degraded link keys it was remediated around.
        self._impacted: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        self.records: List[RemediationRecord] = []
        self.breaches: List[api.SlaBreached] = []
        self.audit_failures: List[AuditReport] = []
        #: Worst post-claim utilization accepted across all reroutes —
        #: the benchmark asserts this stays under the gate.
        self.max_reroute_utilization: float = 0.0
        monitor.on_breach.append(self._on_breach)
        monitor.on_clear.append(self._on_clear)
        monitor.on_tick.append(self._on_tick)

    @property
    def audit_ok(self) -> bool:
        """True while every post-action audit came back clean."""
        return not self.audit_failures

    def phase_of(self, connection_id: str) -> str:
        """The engine's current phase for a connection."""
        return self._phase.get(connection_id, "watch")

    def impacted_link_keys(self) -> Set[Tuple[str, str]]:
        """Every link the engine is currently remediating around.

        The union of the degraded link keys behind all in-flight
        remediations (deferred, rerouting, rerouted, or escalated
        connections).  This is the SLO breach stream's input to the
        global re-optimization planner: these links carry an extra cost
        penalty, so a re-planning cycle steers demands off them instead
        of fighting the runbook engine for the same capacity.
        """
        links: Set[Tuple[str, str]] = set()
        for impacted in self._impacted.values():
            links.update(impacted)
        return links

    # -- detect ---------------------------------------------------------------

    def _on_breach(
        self, conn_id: str, policy: SloPolicy, value: float, now: float
    ) -> None:
        if not conn_id:
            # Network-wide objective (latency / error burst): surface the
            # alert; per-connection remediation does not apply.
            self._record(now, "", policy.name, "alert", f"value={value:.2f}")
            self._controller.metrics.inc("slo.alerts")
            return
        if self._phase.get(conn_id, "watch") != "watch":
            return
        connection = self._controller.connections.get(conn_id)
        if connection is None or connection.state is not ConnectionState.UP:
            return
        impacted = self._impacted_links(connection)
        if not impacted:
            # Thin margin with no localizable gray failure (e.g. a long
            # route near its design limit): alert, nothing to flee from.
            self._record(now, conn_id, policy.name, "alert", "no degraded link")
            self._controller.metrics.inc("slo.alerts")
            return
        cause = self._describe_cause(impacted)
        if self._try_defer(conn_id, policy, impacted, now):
            return
        if self._try_reroute(conn_id, policy, impacted, cause, now):
            return
        self._escalate(connection, policy, value, cause, now)

    # -- impact ---------------------------------------------------------------

    def _impacted_links(self, connection) -> Tuple[Tuple[str, str], ...]:
        plant = self._controller.inventory.plant
        impacted = []
        seen = set()
        for lightpath_id in connection.lightpath_ids:
            lightpath = self._controller.inventory.lightpaths.get(lightpath_id)
            if lightpath is None:
                continue
            for segment in lightpath.segments:
                for key in segment.links:
                    if key in seen:
                        continue
                    seen.add(key)
                    if plant.dwdm_link(*key).osnr_penalty_db > 0.0:
                        impacted.append(key)
        return tuple(sorted(impacted))

    def _describe_cause(
        self, impacted: Tuple[Tuple[str, str], ...]
    ) -> str:
        plant = self._controller.inventory.plant
        parts = []
        for a, b in impacted:
            causes = plant.dwdm_link(a, b).degradation_causes()
            label = ",".join(causes) if causes else "degraded"
            parts.append(f"{label}@{a}={b}")
        return ";".join(parts)

    # -- defer ----------------------------------------------------------------

    def _try_defer(
        self,
        conn_id: str,
        policy: SloPolicy,
        impacted: Tuple[Tuple[str, str], ...],
        now: float,
    ) -> bool:
        if self._maintenance is None:
            return False
        for a, b in impacted:
            window = self._maintenance.window_covering(
                a, b, now, horizon_s=self._defer_horizon_s
            )
            if window is not None:
                self._phase[conn_id] = "deferred"
                self._impacted[conn_id] = impacted
                self._controller.metrics.inc("slo.deferred")
                self._record(
                    now,
                    conn_id,
                    policy.name,
                    "deferred",
                    f"maintenance on {a}={b} at {window.started_at:.0f}s",
                )
                self._post_action_audit()
                return True
        return False

    # -- reroute --------------------------------------------------------------

    def _try_reroute(
        self,
        conn_id: str,
        policy: SloPolicy,
        impacted: Tuple[Tuple[str, str], ...],
        cause: str,
        now: float,
    ) -> bool:
        controller = self._controller
        connection = controller.connections[conn_id]
        if len(connection.lightpath_ids) != 1 or connection.circuit_ids:
            return False  # bridge-and-roll cannot move it; escalate
        old = controller.inventory.lightpaths[connection.lightpath_ids[0]]
        try:
            plan = controller.rwa.plan(
                old.source,
                old.destination,
                old.rate_bps,
                excluded_links=impacted,
                avoid_srlgs_of=old.path,
            )
        except GriphonError as exc:
            self._record(
                now, conn_id, policy.name, "no-path", str(exc)
            )
            return False
        worst = self._post_claim_utilization(plan.path)
        if worst >= self._gate:
            self._controller.metrics.inc("slo.no_headroom")
            self._record(
                now,
                conn_id,
                policy.name,
                "no-headroom",
                f"alternate path at {worst:.0%} >= {self._gate:.0%}",
            )
            return False
        try:
            controller.bridge_and_roll(
                conn_id,
                exclude_links=impacted,
                on_settled=lambda summary, c=conn_id, p=policy.name: (
                    self._roll_settled(c, p, summary)
                ),
            )
        except GriphonError as exc:
            self._record(now, conn_id, policy.name, "no-path", str(exc))
            return False
        self.max_reroute_utilization = max(
            self.max_reroute_utilization, worst
        )
        self._phase[conn_id] = "rerouting"
        self._impacted[conn_id] = impacted
        self._record(
            now,
            conn_id,
            policy.name,
            "rerouting",
            f"{cause}; alternate at {worst:.0%}",
        )
        return True

    def _post_claim_utilization(self, path: List[str]) -> float:
        """Worst per-link utilization along ``path`` after adding one
        more channel — the SNIPPETS reroute-gate quantity."""
        plant = self._controller.inventory.plant
        grid_size = plant.grid.size
        worst = 0.0
        for dwdm in plant.links_on_path(path):
            after = (len(dwdm.occupied_channels) + 1) / grid_size
            worst = max(worst, after)
        return worst

    def _roll_settled(
        self, conn_id: str, policy_name: str, summary: dict
    ) -> None:
        now = self._controller.sim.now
        phase = self._phase.get(conn_id)
        if summary["outcome"] == "aborted":
            # A torn-down, cut or rolled-back bridge: a reroute goes back
            # to watch (its links no longer steer the re-optimizer), a
            # revert back to rerouted, so the next tick retries it.
            if phase == "rerouting":
                self._phase.pop(conn_id, None)
                self._impacted.pop(conn_id, None)
                self._record(now, conn_id, policy_name, "reroute-aborted", "")
            elif phase == "reverting":
                self._phase[conn_id] = "rerouted"
                self._record(now, conn_id, policy_name, "revert-aborted", "")
        elif phase == "rerouting":
            self._phase[conn_id] = "rerouted"
            self._controller.metrics.inc("slo.rerouted")
            self._record(
                now,
                conn_id,
                policy_name,
                "rerouted",
                f"new path {'-'.join(summary.get('new_path', []))}",
            )
        elif phase == "reverting":
            self._phase.pop(conn_id, None)
            self._impacted.pop(conn_id, None)
            self._controller.metrics.inc("slo.reverted")
            self._record(now, conn_id, policy_name, "reverted", "")
        self._post_action_audit()

    # -- escalate -------------------------------------------------------------

    def _escalate(
        self,
        connection,
        policy: SloPolicy,
        value: float,
        cause: str,
        now: float,
    ) -> None:
        connection.transition(ConnectionState.DEGRADED)
        connection.degradation_cause = cause
        connection.degradation_margin_db = value
        connection.degradation_policy = policy.name
        breach = api.SlaBreached(
            connection_id=connection.connection_id,
            policy=policy.name,
            margin_db=value,
            cause=cause,
            trace_id=connection.trace_id,
        )
        self.breaches.append(breach)
        self._phase[connection.connection_id] = "escalated"
        self._impacted[connection.connection_id] = self._impacted_links(
            connection
        )
        self._controller.metrics.inc("slo.escalated")
        self._controller.notify(
            "sla-breached",
            {"connection": connection.connection_id, "policy": policy.name},
        )
        self._record(
            now,
            connection.connection_id,
            policy.name,
            "escalated",
            f"margin {value:.2f} dB; {cause}",
        )
        self._post_action_audit()

    # -- restore --------------------------------------------------------------

    def _on_clear(
        self, conn_id: str, policy: SloPolicy, value: float, now: float
    ) -> None:
        if not conn_id:
            self._record(now, "", policy.name, "alert-cleared", "")
            return
        phase = self._phase.get(conn_id)
        if phase == "escalated":
            connection = self._controller.connections.get(conn_id)
            if connection is None:
                return
            if connection.state is ConnectionState.DEGRADED:
                connection.transition(ConnectionState.UP)
            connection.degradation_cause = ""
            connection.degradation_margin_db = None
            connection.degradation_policy = ""
            self._phase.pop(conn_id, None)
            self._impacted.pop(conn_id, None)
            self._controller.metrics.inc("slo.restored")
            self._record(
                now, conn_id, policy.name, "restored",
                f"margin {value:.2f} dB",
            )
            self._post_action_audit()
        elif phase == "deferred":
            self._phase.pop(conn_id, None)
            self._impacted.pop(conn_id, None)
            self._record(now, conn_id, policy.name, "defer-cleared", "")

    def _on_tick(self, now: float) -> None:
        """Auto-revert: roll rerouted connections back once the links
        they fled have fully recovered."""
        for conn_id in sorted(self._phase):
            if self._phase[conn_id] != "rerouted":
                continue
            impacted = self._impacted.get(conn_id, ())
            plant = self._controller.inventory.plant
            if any(
                plant.dwdm_link(a, b).osnr_penalty_db > 0.0
                for a, b in impacted
            ):
                continue
            connection = self._controller.connections.get(conn_id)
            if connection is None or connection.state is not ConnectionState.UP:
                continue
            try:
                self._controller.bridge_and_roll(
                    conn_id,
                    on_settled=lambda summary, c=conn_id: (
                        self._roll_settled(c, "auto-revert", summary)
                    ),
                )
            except GriphonError as exc:
                # Leave the phase as rerouted; the next tick retries
                # deterministically until the horizon.
                self._record(now, conn_id, "auto-revert", "revert-blocked",
                             str(exc))
                continue
            self._phase[conn_id] = "reverting"
            self._record(now, conn_id, "auto-revert", "reverting", "")

    # -- oracle ---------------------------------------------------------------

    def _post_action_audit(self) -> None:
        if not self._audit_each_action:
            return
        report = audit_network(self._controller)
        if not report.ok:
            self.audit_failures.append(report)
            self._controller.metrics.inc("slo.audit.violations")

    def _record(
        self, at: float, conn_id: str, policy: str, action: str, detail: str
    ) -> None:
        self.records.append(
            RemediationRecord(at, conn_id, policy, action, detail)
        )
