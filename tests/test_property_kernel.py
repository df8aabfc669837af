"""Property test: the two-tier event list against a one-heap model.

Random programs of ``schedule`` / ``schedule_at`` / ``schedule_many``
(batches below and above the sorted-run threshold, equal timestamps,
invalid entries) and ``step`` / ``run(until=)`` are interpreted twice:
against :class:`Simulator` and against :class:`ModelKernel`, which
keeps every event in one heap and fires the ``(time, seq)`` minimum.
Events carry nested actions, so the same operations are also issued
from inside callbacks, mid-run.  Both
interpretations must produce the same log: every firing with the clock
and ``pending`` at that moment, every return value, every rejection.

A second property runs self-re-arming step chains (what a ``Process``
is to the kernel) on two simulators, one arming through ``schedule``
and one through ``timer``, the argument-free entry ``Process`` uses.
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

NAN = float("nan")


class ModelEvent:
    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args


class ModelKernel:
    """The reference: one heap, next event = min by ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []

    @property
    def pending(self):
        return len(self._heap)

    def _add(self, time, callback, args):
        event = ModelEvent(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, event.seq, event))
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
        if not heap or (until is not None and heap[0][0] > until):
            return None
        return heap[0][2]

    def _fire(self, event):
        heapq.heappop(self._heap)  # ``event`` is the head _next returned
        self.now = event.time
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
    next_ident = 0

    def fire(ident, actions):
        log.append(("fire", ident, kernel.now, kernel.pending))
        for action in actions:
            apply(action)

    def reserve(count):
        nonlocal next_ident
        first = next_ident
        next_ident += count
        return first

    def apply(op):
        kind = op[0]
        try:
            if kind == "schedule":
                _, delay, actions = op
                kernel.schedule(delay, fire, reserve(1), actions)
            elif kind == "schedule_at":
                _, offset, actions = op
                kernel.schedule_at(kernel.now + offset, fire, reserve(1), actions)
            elif kind == "schedule_many":
                _, offsets, actions = op
                first = reserve(len(offsets))
                events = kernel.schedule_many(
                    (kernel.now + offset, fire, (first + index, actions))
                    for index, offset in enumerate(offsets)
                )
                log.append(("many", [(e.time, e.seq) for e in events]))
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
def scheduling_ops(actions):
    return st.one_of(
        st.tuples(st.just("schedule"), OFFSETS, actions),
        st.tuples(st.just("schedule_at"), OFFSETS, actions),
        st.tuples(st.just("schedule_many"), BATCHES, actions),
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
# A pre-loaded run and a heap timer, stepped once, then drained.
@example(
    [
        ("schedule_many", big_batch(160, 5), ()),
        ("schedule", 1.0, ()),
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

    def run_tier_is_sorted_and_unfired():
        keys = [(event.time, event.seq) for event in sim._run]
        assert keys == sorted(keys, reverse=True)
        assert all(time >= sim.now for time, _seq in keys)

    actual = interpret(sim, program, run_tier_is_sorted_and_unfired)
    expected = interpret(ModelKernel(), program)
    assert actual == expected
    assert sim._run == [] and sim._heap == []


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
    idents = 0

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
        log.append(("armed", ident, event.time, event.seq, event.label, event.args))

    def plain(ident):
        log.append(("fire", ident, sim.now, sim.pending))

    for op in program:
        kind = op[0]
        if kind == "chain":
            arm(idents, op[1], op[2])
            idents += 1
        elif kind == "schedule":
            sim.schedule(op[1], plain, idents)
            idents += 1
        elif kind == "schedule_many":
            sim.schedule_many(
                (sim.now + offset, plain, (idents + index,))
                for index, offset in enumerate(op[1])
            )
            idents += len(op[1])
        elif kind == "step":
            log.append(("step", sim.step()))
        else:
            log.append(("run", sim.run(until=sim.now + op[1])))
        # Tier sizes show which tier each event went to.
        log.append((sim.now, sim.pending, len(sim._heap), len(sim._run)))
    log.append(("drain", sim.run(), sim.now, sim.pending, sim.trace))
    return log


@settings(max_examples=150, deadline=None, derandomize=True)
@given(CHAIN_PROGRAMS)
# Many chains armed at once, each re-arming as the clock passes them.
@example([("chain", 2.0, 3)] * 150 + [("run", 2.0)])
def test_timer_arms_the_event_schedule_would(program):
    assert run_chains(program, through_timer=True) == run_chains(
        program, through_timer=False
    )
