"""The frontend's one async primitive, on the discrete-event kernel.

``asyncio`` cannot drive simulated clients: its event loop reads the
wall clock, and its ready-queue ordering is an implementation detail —
both would break the repo-wide rule that the same seed produces
byte-identical results.  :class:`SimFuture` is a one-shot result cell
whose callbacks fire as zero-delay kernel events, so resumption order is
exactly the kernel's FIFO tiebreak among equal timestamps.  Client
fleets follow their orders with ``future.add_done_callback`` — at a
million submissions one coroutine per client would dominate the profile
— so there is no coroutine runner here.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class SimFuture:
    """A one-shot, sim-scheduled result cell.

    ``resolve(value)`` stores the value and schedules every registered
    callback as a zero-delay kernel event — never calling them inline —
    so completion ordering is governed by the kernel's deterministic
    FIFO tiebreak, not by who happened to resolve first in Python call
    depth.

    Callbacks are held in a tuple, so a future resolved before anyone
    follows it costs no list.  An order's record
    (:class:`~repro.pipeline.engine.OrderTicket`) builds its future only when
    ``ticket.future`` is read, so a ticket nobody follows (most edge
    refusals under overload) has none.
    """

    __slots__ = ("_sim", "_done", "_value", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._callbacks: Tuple[Callable[[Any], None], ...] = ()

    @property
    def done(self) -> bool:
        """True once :meth:`resolve` ran."""
        return self._done

    def result(self) -> Any:
        """The resolved value.

        Raises:
            SimulationError: while the future is still pending.
        """
        if not self._done:
            raise SimulationError("SimFuture is not resolved yet")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Complete the future; callbacks fire as zero-delay events.

        Raises:
            SimulationError: on a second resolve (futures are one-shot).
        """
        if self._done:
            raise SimulationError("SimFuture already resolved")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            self._sim.schedule(0.0, callback, value, label="future:resolve")

    def add_done_callback(self, callback: Callable[[Any], None]) -> None:
        """Call ``callback(value)`` when resolved (scheduled, not inline).

        Registering on an already-resolved future schedules the callback
        immediately at zero delay, preserving the scheduled-never-inline
        invariant.
        """
        if self._done:
            self._sim.schedule(
                0.0, callback, self._value, label="future:resolve"
            )
        else:
            self._callbacks += (callback,)
