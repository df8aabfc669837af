"""Event objects managed by the simulation kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback.

    The kernel fires events in ``(time, seq)`` order, where ``seq`` is a
    monotonically increasing counter assigned at scheduling time, giving
    deterministic FIFO ordering among simultaneous events.  Its heap holds
    ``(time, seq, event)`` tuples; events themselves are never compared.

    Attributes:
        time: Simulation time at which the event fires.
        seq: Scheduling sequence number (tiebreak for equal times).
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to the callback.
        label: Optional human-readable tag used in traces.
    """

    __slots__ = (
        "time",
        "seq",
        "callback",
        "args",
        "label",
        "_canceled",
        "_fired",
        "_on_cancel",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        label: str = "",
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self._canceled = False
        self._fired = False
        self._on_cancel = on_cancel

    @property
    def canceled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._canceled

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once.

        The first cancellation of a not-yet-fired event notifies the
        owning kernel (via ``on_cancel``) so it can keep its live
        pending count without scanning the heap.
        """
        if self._canceled:
            return
        self._canceled = True
        if not self._fired and self._on_cancel is not None:
            self._on_cancel()

    def fire(self) -> None:
        """Invoke the callback unless the event was canceled."""
        if not self._canceled:
            self._fired = True
            self.callback(*self.args)

    def __repr__(self) -> str:
        state = "canceled" if self._canceled else "pending"
        name = self.label or getattr(self.callback, "__name__", "callback")
        return f"Event(t={self.time:.6g}, seq={self.seq}, {name}, {state})"
