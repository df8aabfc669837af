"""The discrete-event simulator: a virtual clock plus a two-tier event list.

The kernel is the hot path of every experiment — a month-long
availability study fires hundreds of thousands of events — so
:meth:`Simulator.run` keeps its inner loop tight: the event list is
bound to locals and each event's callback is called inline.  An event,
once scheduled, always fires: nothing cancels one, so the loop never
checks for a dead entry and the list never needs compacting.

Pending events live in one of two tiers, and always fire in
``(time, seq)`` order across both:

* the **heap** holds ``(time, seq, event)`` entries, so ``heapq``
  orders them with C tuple comparisons (``seq`` is unique: the event
  itself is never compared);
* the **run** holds a pre-loaded :meth:`Simulator.schedule_many` batch
  as a list sorted latest-first.  It never enters the heap, so the
  timers scheduled while it drains sift through a heap of in-flight
  events only, and it is consumed with ``list.pop()`` so each fired
  entry is released at once (a cursor over a kept list would hold the
  whole schedule until the end of the run).
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

_event_time = attrgetter("time")


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, do_something, "arg")
        sim.run(until=100.0)

    Events with equal timestamps fire in the order they were scheduled.
    Time never moves backwards; scheduling into the past raises
    :class:`~repro.errors.SimulationError`.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._seq = 0
        self._heap: List[Tuple[float, int, Event]] = []
        # Sorted by (time, seq), latest first: the next event is at the end.
        self._run: List[Event] = []
        self._running = False
        self._trace: List[Tuple[float, str]] = []
        self._trace_enabled = False
        self._time_source: Optional[Callable[[], float]] = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def time_source(self) -> Callable[[], float]:
        """A zero-argument callable reading this simulator's clock.

        The canonical way to hand the clock to components — like the
        :class:`~repro.obs.trace.Tracer` — that need the current sim
        time without holding the whole simulator.  One closure is
        created per simulator and returned on every call, so handing
        the clock to N components costs one allocation, not N.
        """
        source = self._time_source
        if source is None:

            def source() -> float:
                return self._now

            self._time_source = source
        return source

    # -- observability -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of not-yet-fired events in either tier.

        Read by the perf harness (``bench/child.py``) to check that a
        workload drained its event list.
        """
        return len(self._heap) + len(self._run)

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the scheduled :class:`Event`.

        Raises:
            SimulationError: if ``delay`` is negative or NaN.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Raises:
            SimulationError: if ``time`` is before the current clock or NaN.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = self._seq
        event = Event(time, seq, callback, args, label)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def timer(self, delay: float, callback: Callable[[], Any], label: str) -> Event:
        """``schedule(delay, callback, label=label)`` in one frame.

        For :class:`~repro.sim.process.Process`, which arms one timer
        per workflow step, has already checked ``delay >= 0`` and passes
        no arguments: same ``(time, seq)`` and label.
        """
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, callback, (), label)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_many(
        self,
        entries: Iterable[Sequence[Any]],
    ) -> List[Event]:
        """Batch-schedule events at absolute times.

        Each entry is ``(time, callback)``, ``(time, callback, args)``,
        or ``(time, callback, args, label)`` with ``args`` a tuple.
        Sequence numbers are assigned in iteration order, so the FIFO
        tiebreak among equal timestamps matches an equivalent series of
        :meth:`schedule_at` calls exactly.

        A large batch never enters the heap: it is merged into the
        sorted run (one stable sort on ``time`` of the seq-ordered
        events) — this is the API the workload generators and the
        scenario runner use to pre-load entire timelines.

        Raises:
            SimulationError: if any entry's time is before the clock or
                NaN (no events from the batch are scheduled in that case).
        """
        now = self._now
        seq = self._seq
        events: List[Event] = []
        for entry in entries:
            time = entry[0]
            if not time >= now:
                raise SimulationError(
                    f"cannot schedule at t={time} before current time t={now}"
                )
            args = entry[2] if len(entry) > 2 else ()
            label = entry[3] if len(entry) > 3 else ""
            events.append(Event(time, seq, entry[1], args, label))
            seq += 1
        if not events:
            return events
        self._seq = seq
        heap = self._heap
        run = self._run
        if len(events) < 8 or len(events) * 4 < len(heap) + len(run):
            for event in events:
                heapq.heappush(heap, (event.time, event.seq, event))
        else:
            # Every queued run entry has a lower seq than the batch, so
            # a stable sort on time alone yields (time, seq) order.  In
            # place: a ``run`` loop may hold a reference to the list.
            run.reverse()
            run.extend(events)
            run.sort(key=_event_time)
            run.reverse()
        return events

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        heap = self._heap
        run = self._run
        if not (heap or run):
            return False
        if run and (not heap or (run[-1].time, run[-1].seq) < heap[0][:2]):
            event = run.pop()
        else:
            event = heapq.heappop(heap)[2]
        self._now = event.time
        if self._trace_enabled and event.label:
            self._trace.append((self._now, event.label))
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Run events until the queue drains or the clock passes ``until``.

        Args:
            until: Stop once the next event is later than this time; the
                clock is then advanced to exactly ``until``.  ``None`` means
                run to exhaustion.
            max_events: Safety valve against runaway event loops.

        Returns:
            The number of events fired.

        Raises:
            SimulationError: on re-entrant ``run`` or if ``max_events`` is hit.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        # The inner loop is the hottest code in the repository: bind
        # both tiers and heappop to locals and fire events inline.
        heap = self._heap
        run = self._run
        pop = heapq.heappop
        fired = 0
        try:
            while True:
                # The next event is the earlier, by (time, seq), of the
                # heap's head and the run's tail.
                if run:
                    head = run[-1]
                    from_run = True
                    if heap:
                        entry = heap[0]
                        time = entry[0]
                        if time < head.time or (
                            time == head.time and entry[1] < head.seq
                        ):
                            head = entry[2]
                            from_run = False
                elif heap:
                    head = heap[0][2]
                    from_run = False
                else:
                    break
                if until is not None and head.time > until:
                    break
                if fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
                if from_run:
                    run.pop()
                else:
                    pop(heap)
                self._now = head.time
                if self._trace_enabled and head.label:
                    self._trace.append((head.time, head.label))
                head.callback(*head.args)
                fired += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until
        return fired

    # -- tracing ------------------------------------------------------------

    def enable_trace(self) -> None:
        """Record ``(time, label)`` for every labeled event that fires."""
        self._trace_enabled = True

    @property
    def trace(self) -> List[Tuple[float, str]]:
        """The recorded trace (empty unless :meth:`enable_trace` was called)."""
        return list(self._trace)
