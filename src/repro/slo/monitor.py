"""Declarative SLO policies and the burn-rate SLA monitor.

An :class:`SloPolicy` states what "healthy" means for one metric; the
:class:`SlaMonitor` samples the metric streams on the sim clock and
fires breach/clear events using the multi-window burn-rate structure
from SRE alerting practice: a *short* window catches fast erosion, a
*long* window rejects blips, and a breach fires only when both exceed
their burn fractions.  Recovery requires a fully clean clear window.

Per-connection OSNR margins are sampled through the controller's
link-budget helpers; setup/restore latencies and error-burst counters
are watched as network-wide streams from the metrics registry.

Independent of any policy, the monitor accrues **SLA violation
minutes** — sim minutes a connection spends with a negative OSNR
margin — which is the currency ``griphon slo`` compares
policy-on against policy-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.windows import WindowedSeries
from repro.sim.process import Process

#: Policy scopes: watched per connection, or network-wide.
POLICY_SCOPES = ("connection", "global")

#: Breach orientations: a sample breaches when it falls *below* the
#: threshold (margins) or rises *above* it (latencies, error bursts).
POLICY_ORIENTATIONS = ("below", "above")

#: The monitor's sampling cadence, sim seconds.
SAMPLE_INTERVAL_S = 15.0


@dataclass(frozen=True)
class SloPolicy:
    """One declarative service-level objective.

    Attributes:
        name: Policy name, carried on every alert and outcome.
        metric: ``osnr_margin_db`` (per-connection, via the controller's
            margin helpers) or any metrics-registry sample/counter name
            (network-wide, e.g. ``restoration.restore_s`` or
            ``resilient.faults.injected``).
        threshold: The healthy/breaching boundary for one sample.
        scope: ``connection`` or ``global``.
        orientation: ``below`` (breach when sample < threshold) or
            ``above`` (breach when sample > threshold).
        short_window_s / short_burn: Fast-reaction window and the
            breaching-sample fraction that trips it.
        long_window_s / long_burn: Sustained-erosion window and its
            fraction; both windows must trip for a breach to fire.
        clear_window_s: The SLA has recovered when this window contains
            no breaching samples at all.
    """

    name: str
    metric: str = "osnr_margin_db"
    threshold: float = 2.0
    scope: str = "connection"
    orientation: str = "below"
    short_window_s: float = 120.0
    short_burn: float = 0.5
    long_window_s: float = 600.0
    long_burn: float = 0.25
    clear_window_s: float = 300.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("policy name must not be empty")
        if self.scope not in POLICY_SCOPES:
            raise ConfigurationError(
                f"unknown scope {self.scope!r} (known: {', '.join(POLICY_SCOPES)})"
            )
        if self.orientation not in POLICY_ORIENTATIONS:
            raise ConfigurationError(
                f"unknown orientation {self.orientation!r} "
                f"(known: {', '.join(POLICY_ORIENTATIONS)})"
            )
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise ConfigurationError("windows must be positive")
        if self.long_window_s < self.short_window_s:
            raise ConfigurationError(
                "long window must be at least the short window"
            )
        if not 0 < self.short_burn <= 1 or not 0 < self.long_burn <= 1:
            raise ConfigurationError("burn fractions must be in (0, 1]")
        if self.clear_window_s <= 0:
            raise ConfigurationError("clear window must be positive")

    def breaching(self, value: float) -> bool:
        """Whether one sample violates the objective."""
        if self.orientation == "below":
            return value < self.threshold
        return value > self.threshold

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloPolicy":
        """Build a policy from its plain-dict form; unknown keys raise."""
        known = {
            "name", "metric", "threshold", "scope", "orientation",
            "short_window_s", "short_burn", "long_window_s", "long_burn",
            "clear_window_s",
        }
        extra = set(data) - known
        if extra:
            raise ConfigurationError(
                f"unknown SloPolicy keys: {', '.join(sorted(extra))}"
            )
        return cls(**data)


def default_policies() -> Tuple[SloPolicy, ...]:
    """The stock policy set: margin erosion plus global health alerts."""
    return (
        SloPolicy(name="osnr-margin"),
        SloPolicy(
            name="restore-latency",
            metric="restoration.restore_s",
            threshold=120.0,
            scope="global",
            orientation="above",
            short_window_s=600.0,
            long_window_s=1800.0,
            short_burn=0.5,
            long_burn=0.25,
            clear_window_s=600.0,
        ),
        SloPolicy(
            name="error-burst",
            metric="resilient.faults.injected",
            threshold=4.0,
            scope="global",
            orientation="above",
            short_window_s=300.0,
            long_window_s=900.0,
            short_burn=0.5,
            long_burn=0.34,
            clear_window_s=600.0,
        ),
    )


class SlaMonitor:
    """Samples SLO metrics on the sim clock and fires breach events.

    The monitor is a bounded process: it samples every
    :data:`SAMPLE_INTERVAL_S` until ``stop_at`` and then ends, so
    attaching it never keeps the simulator alive forever.

    Event wiring (the remediation engine registers itself):

    * ``on_breach(connection_id, policy, value, now)`` — fired once per
      breach activation; ``connection_id`` is ``""`` for global scopes;
    * ``on_clear(connection_id, policy, value, now)`` — fired once when
      an active breach's clear window comes back fully healthy;
    * ``on_tick(now)`` — fired after every sampling pass.
    """

    def __init__(
        self,
        controller,
        policies: Sequence[SloPolicy] = (),
        stop_at: float = 0.0,
    ) -> None:
        if stop_at <= 0:
            raise ConfigurationError(
                f"stop_at must be a positive sim time, got {stop_at}"
            )
        self._controller = controller
        self._policies = tuple(policies)
        self._stop_at = stop_at
        #: conn id -> margin series (plus one "" series per global metric).
        self._series: Dict[Tuple[str, str], WindowedSeries] = {}
        #: (policy name, conn id) -> breach currently active.
        self._active: Dict[Tuple[str, str], bool] = {}
        #: Per-connection accrued seconds with a negative margin.
        self.violation_seconds: Dict[str, float] = {}
        #: Cursor into each global metric's registry sample list.
        self._sample_cursor: Dict[str, int] = {}
        #: Last counter value per global counter metric.
        self._counter_last: Dict[str, float] = {}
        self.on_breach: List[Callable[[str, SloPolicy, float, float], None]] = []
        self.on_clear: List[Callable[[str, SloPolicy, float, float], None]] = []
        self.on_tick: List[Callable[[float], None]] = []
        self._process: Optional[Process] = None

    @property
    def policies(self) -> Tuple[SloPolicy, ...]:
        """The declarative objectives being watched."""
        return self._policies

    @property
    def violation_minutes(self) -> float:
        """Total SLA-violation minutes accrued across connections."""
        return sum(self.violation_seconds.values()) / 60.0

    def active_breaches(self) -> List[Tuple[str, str]]:
        """(policy name, connection id) pairs currently breaching."""
        return sorted(key for key, active in self._active.items() if active)

    def start(self) -> Process:
        """Begin sampling; returns the driving bounded process."""
        if self._process is not None:
            raise ConfigurationError("monitor already started")
        self._process = Process(
            self._controller.sim, self._run(), label="slo-monitor"
        )
        return self._process

    # -- internals ------------------------------------------------------------

    def _run(self):
        sim = self._controller.sim
        while sim.now < self._stop_at:
            self._sample(sim.now)
            yield min(SAMPLE_INTERVAL_S, self._stop_at - sim.now)
        self._sample(sim.now)

    def _series_for(self, policy_metric: str, conn_id: str) -> WindowedSeries:
        key = (policy_metric, conn_id)
        if key not in self._series:
            self._series[key] = WindowedSeries()
        return self._series[key]

    def _sample(self, now: float) -> None:
        margins = self._sample_margins(now)
        self._sample_global_streams(now)
        self._evaluate(now, margins)
        for callback in self.on_tick:
            callback(now)

    def _sample_margins(self, now: float) -> Dict[str, float]:
        controller = self._controller
        margins: Dict[str, float] = {}
        for conn_id in sorted(controller.connections):
            margin = controller.connection_osnr_margin_db(conn_id)
            if margin is None:
                continue
            margins[conn_id] = margin
            self._series_for("osnr_margin_db", conn_id).record(now, margin)
            controller.metrics.observe("slo.osnr_margin_db", margin)
            if margin < 0.0:
                accrued = self.violation_seconds.get(conn_id, 0.0)
                self.violation_seconds[conn_id] = accrued + SAMPLE_INTERVAL_S
                controller.metrics.inc(
                    "slo.violation_minutes", SAMPLE_INTERVAL_S / 60.0
                )
        return margins

    def _sample_global_streams(self, now: float) -> None:
        metrics = self._controller.metrics
        for policy in self._policies:
            if policy.scope != "global":
                continue
            series = self._series_for(policy.metric, "")
            samples = metrics.samples(policy.metric)
            if samples:
                cursor = self._sample_cursor.get(policy.metric, 0)
                for value in samples[cursor:]:
                    series.record(now, value)
                self._sample_cursor[policy.metric] = len(samples)
            else:
                # Counter metric: watch the per-interval delta.
                current = metrics.counter(policy.metric)
                last = self._counter_last.get(policy.metric)
                if last is not None:
                    series.record(now, current - last)
                self._counter_last[policy.metric] = current

    def _evaluate(self, now: float, margins: Dict[str, float]) -> None:
        for policy in self._policies:
            if policy.scope == "connection":
                for conn_id in sorted(margins):
                    series = self._series_for(policy.metric, conn_id)
                    self._evaluate_one(
                        policy, conn_id, series, margins[conn_id], now
                    )
            else:
                series = self._series_for(policy.metric, "")
                if len(series):
                    value = series.latest()[1]
                    self._evaluate_one(policy, "", series, value, now)

    def _evaluate_one(
        self,
        policy: SloPolicy,
        conn_id: str,
        series: WindowedSeries,
        value: float,
        now: float,
    ) -> None:
        key = (policy.name, conn_id)
        active = self._active.get(key, False)
        if not active:
            short = series.fraction(
                now, policy.short_window_s, policy.breaching
            )
            long = series.fraction(now, policy.long_window_s, policy.breaching)
            if short >= policy.short_burn and long >= policy.long_burn:
                self._active[key] = True
                self._controller.metrics.inc("slo.breaches")
                for callback in self.on_breach:
                    callback(conn_id, policy, value, now)
        else:
            clear = series.fraction(
                now, policy.clear_window_s, policy.breaching
            )
            if clear == 0.0:
                self._active[key] = False
                self._controller.metrics.inc("slo.recoveries")
                for callback in self.on_clear:
                    callback(conn_id, policy, value, now)
