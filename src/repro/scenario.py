"""Declarative scenarios: describe an experiment, then run it.

Experiments in this repo are sequences of timed actions — orders,
teardowns, fiber cuts, repairs, maintenance windows — against a network.
The scenario runner lets those sequences be *data* (plain dicts, easy to
load from JSON/YAML or build programmatically) instead of bespoke
scripts, which makes sweeps and regression scenarios cheap to define::

    scenario = Scenario.from_dict({
        "name": "friday-night",
        "duration_s": 8 * 3600,
        "events": [
            {"at": 0, "action": "request",
             "params": {"customer": "csp", "a": "PREMISES-A",
                        "b": "PREMISES-C", "rate_gbps": 10}},
            {"at": 3600, "action": "cut",
             "params": {"a": "ROADM-I", "b": "ROADM-IV"}},
            {"at": 7200, "action": "repair",
             "params": {"a": "ROADM-I", "b": "ROADM-IV"}},
        ],
    })
    result = run_scenario(net, scenario)

The result carries the connections (in request order), a per-connection
availability report, and an execution log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.connection import Connection
from repro.errors import ConfigurationError, GriphonError
from repro.facade import GriphonNetwork
from repro.metrics.availability import measured_availability

#: Actions the runner understands.
ACTIONS = (
    "request",
    "teardown",
    "cut",
    "cut_srlg",
    "repair",
    "maintenance",
    "regroom",
    "reclaim",
)


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed action.

    Attributes:
        at: Simulation time the action fires.
        action: One of :data:`ACTIONS`.
        params: Action-specific parameters (see the runner methods).
    """

    at: float
    action: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.at}")
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown action {self.action!r} (known: {', '.join(ACTIONS)})"
            )


@dataclass
class Scenario:
    """A named, timed sequence of actions."""

    name: str
    duration_s: float
    events: List[ScenarioEvent]

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        for event in self.events:
            if event.at > self.duration_s:
                raise ConfigurationError(
                    f"event at t={event.at} is beyond the scenario "
                    f"duration {self.duration_s}"
                )

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "Scenario":
        """Build a scenario from a plain-dict spec (JSON-friendly)."""
        try:
            events = [
                ScenarioEvent(
                    float(entry["at"]),
                    str(entry["action"]),
                    dict(entry.get("params", {})),
                )
                for entry in spec["events"]
            ]
            return cls(str(spec["name"]), float(spec["duration_s"]), events)
        except KeyError as exc:
            raise ConfigurationError(f"scenario spec missing key {exc}") from exc


@dataclass
class ScenarioResult:
    """What happened when a scenario ran."""

    scenario: Scenario
    connections: List[Connection] = field(default_factory=list)
    log: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def availability_report(self) -> Dict[str, float]:
        """Per-connection availability over its observed lifetime."""
        report = {}
        for conn in self.connections:
            if conn.up_at is None:
                report[conn.connection_id] = 0.0
                continue
            end = (
                conn.released_at
                if conn.released_at is not None
                else self.scenario.duration_s
            )
            if end <= conn.up_at:
                continue
            report[conn.connection_id] = measured_availability(
                conn, conn.up_at, end
            )
        return report


def run_scenario(net: GriphonNetwork, scenario: Scenario) -> ScenarioResult:
    """Execute a scenario on a freshly built network.

    Actions that fail (e.g. a teardown of an index that never came up)
    are recorded in ``result.errors`` rather than aborting the run —
    scenarios are experiments, and a partial outcome is still data.
    """
    result = ScenarioResult(scenario)
    sim = net.sim
    controller = net.controller

    def log(message: str) -> None:
        result.log.append(f"t={sim.now:>10.1f}  {message}")

    def fire(event: ScenarioEvent) -> None:
        params = event.params
        try:
            if event.action == "request":
                service = net.service_for(params["customer"])
                conn = service.request_connection(
                    params["a"], params["b"], params["rate_gbps"]
                )
                result.connections.append(conn)
                log(f"request #{len(result.connections) - 1}: {conn}")
            elif event.action == "teardown":
                conn = result.connections[params["index"]]
                controller.teardown_connection(conn.connection_id)
                log(f"teardown {conn.connection_id}")
            elif event.action == "cut":
                controller.cut_link(params["a"], params["b"])
                log(f"cut {params['a']}={params['b']}")
            elif event.action == "cut_srlg":
                controller.cut_srlg(params["srlg"])
                log(f"cut srlg {params['srlg']}")
            elif event.action == "repair":
                controller.repair_link(params["a"], params["b"])
                log(f"repair {params['a']}={params['b']}")
            elif event.action == "maintenance":
                net.maintenance.schedule(
                    params["a"],
                    params["b"],
                    start_in=params.get("start_in", 900.0),
                    duration=params["duration"],
                    use_bridge_and_roll=params.get("bridge_and_roll", True),
                )
                log(f"maintenance scheduled on {params['a']}={params['b']}")
            elif event.action == "regroom":
                from repro.core.regrooming import RegroomingEngine

                report = RegroomingEngine(controller).run_pass(
                    max_migrations=params.get("max_migrations")
                )
                log(f"regroom: {len(report.candidates)} candidate(s)")
            elif event.action == "reclaim":
                from repro.core.reclamation import OtnLineReclaimer

                reclaimer = OtnLineReclaimer(
                    controller,
                    holding_time_s=params.get("holding_time_s", 0.0),
                )
                swept = reclaimer.sweep()
                log(f"reclaim: {len(swept.reclaimed)} line(s)")
        except (GriphonError, IndexError, KeyError) as exc:
            result.errors.append(f"t={sim.now:.1f} {event.action}: {exc}")

    # Pre-load the whole timeline in one batch (one O(n) heap merge).
    sim.schedule_many(
        (event.at, fire, (event,), f"scenario:{event.action}")
        for event in sorted(scenario.events, key=lambda e: e.at)
    )
    net.run(until=scenario.duration_s)
    net.run()
    # Close any outage windows still open at the horizon so the
    # availability report is well defined.
    for conn in result.connections:
        if conn.outage_started_at is not None:
            conn.end_outage(scenario.duration_s)
    return result
