"""Property test: the two-tier event list against a one-heap model.

Random programs of ``schedule`` / ``schedule_at`` / ``schedule_many``
(batches below and above the sorted-run threshold, equal timestamps,
invalid entries), ``cancel`` (single events and ranges wide enough to
trigger compaction; heap tier, run tier, already fired) and ``step`` /
``run(until=)`` are interpreted twice: against :class:`Simulator` and
against :class:`ModelKernel`, which keeps every event in one heap and
fires the ``(time, seq)`` minimum.  Events carry nested actions, so the
same operations are also issued from inside callbacks, mid-run.  Both
interpretations must produce the same log: every firing with the clock
and ``pending`` at that moment, every return value, every rejection.

A second property runs self-re-arming step chains (what a ``Process``
is to the kernel) on two simulators, one arming through ``schedule``
and one through ``timer``, the argument-free entry ``Process`` uses.
"""

import heapq
from operator import attrgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

NAN = float("nan")


class ModelEvent:
    def __init__(self, kernel, time, seq, callback, args):
        self._kernel = kernel
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.canceled = False
        self.fired = False

    def cancel(self):
        if not (self.canceled or self.fired):
            self._kernel.live -= 1
        self.canceled = True


class ModelKernel:
    """The reference: one heap, next event = min by ``(time, seq)``.

    Canceled events stay in the heap until they reach its head and are
    dropped there; ``live`` counts the events neither fired nor canceled.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self.live = 0

    @property
    def pending(self):
        return self.live

    def _add(self, time, callback, args):
        event = ModelEvent(self, time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, event.seq, event))
        self.live += 1
        return event

    def schedule(self, delay, callback, *args):
        if not delay >= 0:
            raise SimulationError("negative or NaN delay")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if not time >= self.now:
            raise SimulationError("past or NaN time")
        return self._add(time, callback, args)

    def schedule_many(self, entries):
        entries = list(entries)
        if not all(entry[0] >= self.now for entry in entries):
            raise SimulationError("past or NaN time in batch")
        return [self._add(time, callback, args) for time, callback, args in entries]

    def _next(self, until=None):
        heap = self._heap
        while heap and heap[0][2].canceled:
            heapq.heappop(heap)
        if not heap or (until is not None and heap[0][0] > until):
            return None
        return heap[0][2]

    def _fire(self, event):
        heapq.heappop(self._heap)  # ``event`` is the head _next returned
        self.now = event.time
        event.fired = True
        self.live -= 1
        event.callback(*event.args)

    def step(self):
        event = self._next()
        if event is None:
            return False
        self._fire(event)
        return True

    def run(self, until=None):
        fired = 0
        while (event := self._next(until)) is not None:
            self._fire(event)
            fired += 1
        if until is not None and until > self.now:
            self.now = until
        return fired


def interpret(kernel, program, check=lambda: None):
    """Run ``program`` on ``kernel``; returns the observable log."""
    log = []
    handles = []

    def fire(ident, actions):
        log.append(("fire", ident, kernel.now, kernel.pending))
        for action in actions:
            apply(action)

    def reserve(count):
        first = len(handles)
        handles.extend([None] * count)
        return first

    def apply(op):
        kind = op[0]
        try:
            if kind == "schedule":
                _, delay, actions = op
                ident = reserve(1)
                handles[ident] = kernel.schedule(delay, fire, ident, actions)
            elif kind == "schedule_at":
                _, offset, actions = op
                ident = reserve(1)
                handles[ident] = kernel.schedule_at(
                    kernel.now + offset, fire, ident, actions
                )
            elif kind == "schedule_many":
                _, offsets, actions = op
                first = reserve(len(offsets))
                events = kernel.schedule_many(
                    (kernel.now + offset, fire, (first + index, actions))
                    for index, offset in enumerate(offsets)
                )
                handles[first:] = events
                log.append(("many", [(e.time, e.seq) for e in events]))
            elif kind == "cancel":
                _, low, high = op
                count = len(handles)
                for handle in handles[int(low * count) : int(high * count) + 1]:
                    if handle is not None:
                        handle.cancel()
            elif kind == "step":
                log.append(("step", kernel.step()))
            elif kind == "run":
                log.append(("run", kernel.run(until=kernel.now + op[1])))
        except SimulationError:
            log.append(("rejected", kind))
        log.append(("state", kernel.now, kernel.pending))
        check()

    for op in program:
        apply(op)
    log.append(("drain", kernel.run()))
    log.append(("state", kernel.now, kernel.pending))
    check()
    return log


# Half-second grid so equal timestamps are the norm; the occasional
# negative or NaN offset exercises all-or-nothing rejection.
VALID_OFFSETS = st.integers(0, 12).map(lambda n: n * 0.5)
OFFSETS = st.one_of(VALID_OFFSETS, st.sampled_from([-1.0, NAN]))


def big_batch(size, stride):
    return [((index * stride) % 13) * 0.5 for index in range(size)]


BATCHES = st.one_of(
    st.lists(OFFSETS, max_size=12),  # either side of the 8-entry floor
    st.builds(big_batch, st.integers(8, 160), st.integers(1, 6)),
)
CANCELS = st.one_of(
    st.floats(0, 1).map(lambda x: ("cancel", x, x)),
    st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda pair: ("cancel", min(pair), max(pair))
    ),
)


def scheduling_ops(actions):
    return st.one_of(
        st.tuples(st.just("schedule"), OFFSETS, actions),
        st.tuples(st.just("schedule_at"), OFFSETS, actions),
        st.tuples(st.just("schedule_many"), BATCHES, actions),
        CANCELS,
    )


# Nested actions run inside a callback; their own events do nothing more.
NESTED = st.lists(scheduling_ops(st.just(())), max_size=3).map(tuple)
PROGRAMS = st.lists(
    st.one_of(
        scheduling_ops(NESTED),
        st.just(("step",)),
        st.tuples(st.just("run"), VALID_OFFSETS),
    ),
    max_size=14,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(PROGRAMS)
# A pre-loaded run, mass-canceled into compaction, then drained.
@example(
    [
        ("schedule_many", big_batch(160, 5), ()),
        ("schedule", 1.0, ()),
        ("cancel", 0.05, 0.95),
        ("step",),
    ]
)
# A callback merges a large batch into a half-consumed run, with ties.
@example(
    [
        ("schedule_many", big_batch(40, 1), (("schedule_many", big_batch(40, 2), ()),)),
        ("run", 2.0),
        ("schedule_many", big_batch(30, 3), ()),
    ]
)
# Heap-tier timers interleaved with the run at equal timestamps.
@example(
    [
        ("schedule", 1.0, ()),
        ("schedule_many", [1.0] * 10, (("schedule", 0.0, ()),)),
        ("schedule", 1.0, ()),
    ]
)
def test_event_list_matches_sorted_model(program):
    sim = Simulator()
    fired = attrgetter("_fired")

    def run_tier_holds_only_unfired():
        assert not any(map(fired, sim._run))

    actual = interpret(sim, program, run_tier_holds_only_unfired)
    expected = interpret(ModelKernel(), program)
    assert actual == expected
    assert sim._run == [] and sim._heap == []
    assert sim._canceled_queued == 0


# -- Simulator.timer: schedule() for a Process, minus the frames ---------------

CHAIN_PROGRAMS = st.lists(
    st.one_of(
        # A chain of ``steps`` timers, each armed from the one before.
        st.tuples(st.just("chain"), VALID_OFFSETS, st.integers(1, 4)),
        st.tuples(st.just("schedule"), VALID_OFFSETS),
        st.tuples(
            st.just("schedule_many"),
            st.builds(big_batch, st.integers(8, 80), st.integers(1, 6)),
        ),
        CANCELS,
        st.just(("step",)),
        st.tuples(st.just("run"), VALID_OFFSETS),
    ),
    max_size=40,
)


def run_chains(program, through_timer):
    """The log of ``program`` with chains armed one way or the other."""
    sim = Simulator()
    sim.enable_trace()
    log = []
    handles = []

    def arm(ident, delay, steps_left):
        def advance():
            log.append(("fire", ident, sim.now, sim.pending))
            if steps_left > 1:
                arm(ident, delay, steps_left - 1)

        label = f"chain-{ident}"
        if through_timer:
            event = sim.timer(delay, advance, label)
        else:
            event = sim.schedule(delay, advance, label=label)
        handles[ident] = event  # like Process._pending_event: the live one
        log.append(("armed", ident, event.time, event.seq, event.label, event.args))

    def plain(ident):
        log.append(("fire", ident, sim.now, sim.pending))

    for op in program:
        kind = op[0]
        if kind == "chain":
            handles.append(None)
            arm(len(handles) - 1, op[1], op[2])
        elif kind == "schedule":
            handles.append(sim.schedule(op[1], plain, len(handles)))
        elif kind == "schedule_many":
            first = len(handles)
            handles.extend(
                sim.schedule_many(
                    (sim.now + offset, plain, (first + index,))
                    for index, offset in enumerate(op[1])
                )
            )
        elif kind == "cancel":
            count = len(handles)
            for handle in handles[int(op[1] * count) : int(op[2] * count) + 1]:
                handle.cancel()
        elif kind == "step":
            log.append(("step", sim.step()))
        else:
            log.append(("run", sim.run(until=sim.now + op[1])))
        # Tier sizes and the canceled backlog show when compaction ran.
        log.append(
            (sim.now, sim.pending, len(sim._heap), len(sim._run), sim._canceled_queued)
        )
    log.append(("drain", sim.run(), sim.now, sim.pending, sim.trace))
    return log


@settings(max_examples=150, deadline=None, derandomize=True)
@given(CHAIN_PROGRAMS)
# Enough canceled chain timers at once to compact the heap they sit in.
@example([("chain", 2.0, 3)] * 150 + [("cancel", 0.05, 0.95), ("run", 2.0)])
def test_timer_arms_the_event_schedule_would(program):
    assert run_chains(program, through_timer=True) == run_chains(
        program, through_timer=False
    )
