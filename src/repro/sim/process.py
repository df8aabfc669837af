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
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


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
        generator: Generator[float, None, Any],
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
        if not isinstance(delay, (int, float)) or not delay >= 0:
            self._generator.close()
            self._done = True
            if self._span is not None:
                self._span.set_tag("error", "invalid-delay")
                self._span.finish()
            raise SimulationError(
                f"process {self._label!r} yielded invalid delay {delay!r}"
            )
        self._pending_event = self._sim.timer(
            float(delay), self._advance, self._label
        )
