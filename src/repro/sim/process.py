"""Generator-based processes on top of the event kernel.

A :class:`Process` wraps a Python generator that models a multi-step
activity.  The generator yields the number of simulated seconds to wait
before its next step::

    def setup_workflow(sim):
        yield 2.0          # EMS accepts the order
        yield 30.0         # laser tuning
        yield 25.0         # power balancing
        print("up at", sim.now)

    Process(sim, setup_workflow(sim))

This style keeps multi-step element configuration sequences readable while
remaining fully deterministic under the kernel's FIFO tiebreak.

A generator may instead yield a :class:`StepRun` — consecutive steps
whose boundaries nothing observes — and wait for all of them on **one**
kernel event, at ``now + d0 + d1 + ...`` added one duration at a time:
the float additions one event per step would make, so every resume time
is bit-identical.  Nothing can stop a run part-way: a fault plan's rules
are fixed when it is built, so a workflow whose plan cannot fire stays
unable to fire, and the process never cancels or moves its event.  Only
equal-time FIFO order among processes can differ from one event per
step: a run's event takes its sequence number when the run starts, not
when its last step does.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class StepRun:
    """Consecutive steps a :class:`Process` waits out on one event.

    The generator resumes once, after every one of ``durations``.
    """

    __slots__ = ("durations",)

    def __init__(self, durations: Sequence[float]) -> None:
        self.durations = durations


class Process:
    """Drives a generator of delays on a :class:`Simulator`.

    The process starts automatically: its first step is scheduled at the
    current simulation time.  When the generator returns, the process is
    marked done and the optional ``on_complete`` callback fires with the
    generator's return value (``None`` unless it used ``return value``).
    The process keeps no reference to its kernel event, so once its last
    event has fired (or an invalid delay stopped it) its reference count
    frees it: no cycle is left for the cyclic collector to find.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, None, Any],
        on_complete: Optional[Callable[[Any], None]] = None,
        label: str = "",
    ) -> None:
        self._sim = sim
        self._generator = generator
        self._on_complete = on_complete
        self._label = label or getattr(generator, "__name__", "process")
        self._done = False
        self._result: Any = None
        sim.timer(0.0, self._advance, self._label)

    @property
    def done(self) -> bool:
        """True once the generator has finished."""
        return self._done

    @property
    def result(self) -> Any:
        """The generator's return value; ``None`` until done."""
        return self._result

    def _advance(self) -> None:
        try:
            delay = next(self._generator)
        except StopIteration as stop:
            self._done = True
            self._result = stop.value
            if self._on_complete is not None:
                self._on_complete(stop.value)
            return
        if isinstance(delay, StepRun):
            time = self._sim.now
            for duration in delay.durations:
                if not isinstance(duration, (int, float)) or not duration >= 0:
                    self._invalid(duration)
                time += duration
            self._sim.schedule_at(time, self._advance, label=self._label)
            return
        if not isinstance(delay, (int, float)) or not delay >= 0:
            self._invalid(delay)
        self._sim.timer(float(delay), self._advance, self._label)

    def _invalid(self, delay: Any) -> None:
        self._generator.close()
        self._done = True
        raise SimulationError(
            f"process {self._label!r} yielded invalid delay {delay!r}"
        )
