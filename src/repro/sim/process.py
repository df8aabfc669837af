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
is bit-identical.  :meth:`StepRun.split` (called by
:meth:`repro.faults.plan.FaultPlan.add`) moves that event back to the
first boundary at or after the current time; a boundary *on* the
current time counts as not yet started.  Only equal-time FIFO order
among processes can differ from one event per step: a run's event takes
its sequence number when the run starts, not when its last step does.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class StepRun:
    """Consecutive steps a :class:`Process` waits out on one event.

    The generator resumes once, with ``completed`` the number of
    ``durations`` that elapsed: all of them unless :meth:`split` ran.
    """

    __slots__ = ("durations", "completed", "_start", "_process")

    def __init__(self, durations: Sequence[float]) -> None:
        self.durations = durations
        self.completed = 0
        self._start = 0.0
        self._process: Optional["Process"] = None

    def split(self) -> None:
        """Resume at the first step boundary at or after the current time
        (no-op when only the run's end is left or it is not armed)."""
        process = self._process
        if process is None:
            return
        sim = process._sim
        time = self._start
        for index, duration in enumerate(self.durations):
            if time >= sim.now:
                break
            time += duration
        else:
            return
        process._pending_event.cancel()
        self.completed = index
        process._pending_event = sim.schedule_at(
            time, process._advance, label=process._label
        )


class Process:
    """Drives a generator of delays on a :class:`Simulator`.

    The process starts automatically: its first step is scheduled at the
    current simulation time.  When the generator returns, the process is
    marked done and the optional ``on_complete`` callback fires with the
    generator's return value (``None`` unless it used ``return value``).

    A process may carry a tracing ``span`` (see
    :class:`~repro.obs.trace.Span`): the process finishes the span when
    the generator completes, and tags it ``interrupted`` if the process
    is stopped early — so a span handed to a process always closes,
    whatever the workflow's fate.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, None, Any],
        on_complete: Optional[Callable[[Any], None]] = None,
        label: str = "",
        span: Optional[Any] = None,
    ) -> None:
        self._sim = sim
        self._generator = generator
        self._on_complete = on_complete
        self._label = label or getattr(generator, "__name__", "process")
        self._done = False
        self._interrupted = False
        self._result: Any = None
        self._span = span
        self._pending_event = sim.timer(0.0, self._advance, self._label)

    @property
    def done(self) -> bool:
        """True once the generator has finished (or was interrupted)."""
        return self._done

    @property
    def interrupted(self) -> bool:
        """True if :meth:`interrupt` stopped the process early."""
        return self._interrupted

    @property
    def result(self) -> Any:
        """The generator's return value; ``None`` until done."""
        return self._result

    def interrupt(self) -> None:
        """Stop the process before its next step.

        The generator is closed, so its ``finally`` blocks run.  A finished
        process cannot be interrupted.
        """
        if self._done:
            raise SimulationError(f"process {self._label!r} already finished")
        self._pending_event.cancel()
        self._generator.close()
        self._done = True
        self._interrupted = True
        if self._span is not None:
            self._span.set_tag("interrupted", True)
            self._span.finish()

    def _advance(self) -> None:
        try:
            delay = next(self._generator)
        except StopIteration as stop:
            self._done = True
            self._result = stop.value
            if self._span is not None:
                self._span.finish()
            if self._on_complete is not None:
                self._on_complete(stop.value)
            return
        if isinstance(delay, StepRun):
            delay._start = time = self._sim.now
            for duration in delay.durations:
                if not isinstance(duration, (int, float)) or not duration >= 0:
                    self._invalid(duration)
                time += duration
            delay.completed = len(delay.durations)
            delay._process = self
            self._pending_event = self._sim.schedule_at(
                time, self._advance, label=self._label
            )
            return
        if not isinstance(delay, (int, float)) or not delay >= 0:
            self._invalid(delay)
        self._pending_event = self._sim.timer(
            float(delay), self._advance, self._label
        )

    def _invalid(self, delay: Any) -> None:
        self._generator.close()
        self._done = True
        if self._span is not None:
            self._span.set_tag("error", "invalid-delay")
            self._span.finish()
        raise SimulationError(
            f"process {self._label!r} yielded invalid delay {delay!r}"
        )
