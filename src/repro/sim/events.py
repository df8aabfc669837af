"""Event objects managed by the simulation kernel."""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback.

    The kernel fires events in ``(time, seq)`` order, where ``seq`` is a
    monotonically increasing counter assigned at scheduling time, giving
    deterministic FIFO ordering among simultaneous events.  Its heap holds
    ``(time, seq, event)`` tuples; events themselves are never compared.
    An event, once scheduled, always fires: the kernel has no cancellation.

    Attributes:
        time: Simulation time at which the event fires.
        seq: Scheduling sequence number (tiebreak for equal times).
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to the callback.
        label: Optional human-readable tag used in traces.
    """

    __slots__ = ("time", "seq", "callback", "args", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
