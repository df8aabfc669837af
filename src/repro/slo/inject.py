"""Deterministic gray-failure injection against the optical state.

The injector ticks on the simulator and, for every active
:class:`~repro.faults.plan.DegradationSpec`, mutates the impairment
state the controller's margin helpers read:

* ``osnr-drift`` — a linear OSNR-penalty ramp over the first quarter of
  the window, then a hold at ``magnitude_db``;
* ``amp-flap`` — a square wave on the link's amplifier-chain gain
  (``period_s`` per half-cycle); while the gain deviates, a matching
  ``amp-flap:*`` degradation cause is registered on the link so the
  penalty is visible *and* the invariant auditor can tell a flapping
  amp from a remediation bug that forgot to reset the gain;
* ``attenuation-creep`` — a monotonic ``rate_db_per_hour`` climb capped
  at ``magnitude_db``.

All randomness (per-tick jitter) comes from the plan's seeded
substream, drawn exactly once per active (spec, tick) pair, so two runs
with the same master seed replay byte-identical degradation traces.
When every spec's window has closed the injector restores all state it
touched and its process ends — an attached injector never keeps the
simulator alive past the plan horizon.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.faults.plan import DegradationPlan, DegradationSpec
from repro.sim.process import Process

#: The injector's tick, sim seconds: degradations advance once a tick.
TICK_S = 30.0


class DegradationInjector:
    """Replays a :class:`DegradationPlan` onto a controller's plant."""

    def __init__(self, controller, plan: DegradationPlan) -> None:
        self._controller = controller
        self._plan = plan.bind(controller.streams)
        self._done: List[bool] = [False] * len(plan)
        self._activated: List[bool] = [False] * len(plan)
        self._process: Optional[Process] = None
        self._tick = 0

    @property
    def plan(self) -> DegradationPlan:
        """The plan being replayed."""
        return self._plan

    @property
    def finished(self) -> bool:
        """True once every spec's window has closed and been restored."""
        return all(self._done) if self._done else True

    def start(self) -> Optional[Process]:
        """Begin injecting; returns the driving process (None if empty).

        An empty plan schedules nothing at all, preserving byte-identical
        event streams for networks that never degrade.
        """
        if self._plan.empty:
            return None
        if self._process is not None:
            raise ConfigurationError("injector already started")
        self._process = Process(
            self._controller.sim, self._run(), label="slo-inject"
        )
        return self._process

    # -- internals ------------------------------------------------------------

    def _run(self):
        sim = self._controller.sim
        horizon = self._plan.horizon_s
        while sim.now < horizon:
            self._apply(sim.now)
            yield min(TICK_S, horizon - sim.now)
        # Final tick at the horizon restores everything still active.
        self._apply(sim.now)

    def _cause(self, index: int, spec: DegradationSpec) -> str:
        return f"{spec.mode}:{index}"

    def _apply(self, now: float) -> None:
        self._tick += 1
        for index, spec in enumerate(self._plan.specs):
            if self._done[index] or now < spec.start_s:
                continue
            if now >= spec.end_s:
                self._finish(index, spec)
                continue
            if not self._activated[index]:
                self._activated[index] = True
                self._controller.metrics.inc(f"slo.injected.{spec.mode}")
            elapsed = now - spec.start_s
            if spec.mode == "amp-flap":
                self._apply_flap(index, spec, elapsed)
            else:
                penalty = self._base_penalty(spec, elapsed)
                penalty = max(0.0, penalty + self._plan.jitter(index, self._tick))
                self._set_penalty(index, spec, penalty)

    def _base_penalty(self, spec: DegradationSpec, elapsed: float) -> float:
        if spec.mode == "osnr-drift":
            ramp_s = spec.duration_s / 4.0
            return spec.magnitude_db * min(1.0, elapsed / ramp_s)
        # attenuation-creep
        return min(
            spec.magnitude_db, spec.rate_db_per_hour * elapsed / 3600.0
        )

    def _apply_flap(
        self, index: int, spec: DegradationSpec, elapsed: float
    ) -> None:
        a, b = spec.endpoints
        chain = self._controller.roadm_ems.chain(a, b)
        flap_on = math.floor(elapsed / spec.period_s) % 2 == 0
        if flap_on:
            chain.set_gain(chain.target_gain_db - spec.magnitude_db)
            penalty = max(
                0.0, spec.magnitude_db + self._plan.jitter(index, self._tick)
            )
            self._set_penalty(index, spec, penalty)
        else:
            chain.reset_gain()
            self._clear_penalty(index, spec)

    def _set_penalty(
        self, index: int, spec: DegradationSpec, penalty_db: float
    ) -> None:
        a, b = spec.endpoints
        dwdm = self._controller.inventory.plant.dwdm_link(a, b)
        dwdm.set_degradation(self._cause(index, spec), penalty_db)

    def _clear_penalty(self, index: int, spec: DegradationSpec) -> None:
        a, b = spec.endpoints
        dwdm = self._controller.inventory.plant.dwdm_link(a, b)
        dwdm.clear_degradation(self._cause(index, spec))

    def _finish(self, index: int, spec: DegradationSpec) -> None:
        self._clear_penalty(index, spec)
        if spec.mode == "amp-flap":
            a, b = spec.endpoints
            self._controller.roadm_ems.chain(a, b).reset_gain()
        self._done[index] = True
        self._controller.metrics.inc(f"slo.cleared.{spec.mode}")
