"""Tests for the discrete-event kernel: ordering, cancellation, tracing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=42.0).now == 42.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(2.0, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for i in range(20):
            sim.schedule(5.0, fired.append, i)
        sim.run()
        assert fired == list(range(20))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_time_rejected_and_order_kept(self):
        # NaN fails both `delay < 0` and `time < now`; as a heap key it
        # breaks the ordering of every event pushed after it.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), fired.append, "nan")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), fired.append, "nan")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(0.5, fired.append, "c")
        assert sim.pending == 3
        sim.run()
        assert fired == ["c", "a", "b"]

    def test_infinite_time_is_legal(self):
        sim = Simulator()
        fired = []
        sim.schedule(float("inf"), fired.append, "never-ish")
        sim.schedule_many([(float("inf"), fired.append, (i,)) for i in range(10)])
        sim.schedule(1.0, fired.append, "first")
        assert sim.run(until=1e12) == 1
        assert sim.run() == 11
        assert fired == ["first", "never-ish"] + list(range(10))

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_run_until_then_continue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_run_returns_event_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 5

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_on_empty_queue(self):
        assert Simulator().step() is False

    def test_pending_counts_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending == 1

    def test_pending_drains_to_zero_after_run(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.schedule(4.0, lambda: None).cancel()
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_does_not_drift(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()  # already fired; must not double-count
        assert sim.pending == 1

    def test_pending_tracks_reschedules_from_callbacks(self):
        sim = Simulator()

        def chain(depth):
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(1.0, chain, 3)
        sim.run()
        assert sim.pending == 0


class TestCancellation:
    def test_canceled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.canceled

    def test_cancel_from_earlier_event(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(2.0, fired.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.run()
        assert fired == []


class TestScheduleMany:
    def test_batch_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_many(
            [
                (3.0, fired.append, ("late",)),
                (1.0, fired.append, ("early",)),
                (2.0, fired.append, ("middle",)),
            ]
        )
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_entry_arities(self):
        sim = Simulator()
        fired = []
        sim.schedule_many(
            [
                (1.0, lambda: fired.append("bare")),
                (2.0, fired.append, ("with-args",)),
                (3.0, fired.append, ("labeled",), "my-label"),
            ]
        )
        sim.enable_trace()
        sim.run()
        assert fired == ["bare", "with-args", "labeled"]
        assert sim.trace == [(3.0, "my-label")]

    def test_fifo_matches_schedule_at(self):
        def run_with(batch):
            sim = Simulator()
            order = []
            sim.schedule_at(5.0, order.append, "before")
            if batch:
                sim.schedule_many(
                    [(5.0, order.append, (i,)) for i in range(20)]
                )
            else:
                for i in range(20):
                    sim.schedule_at(5.0, order.append, i)
            sim.schedule_at(5.0, order.append, "after")
            sim.run()
            return order

        assert run_with(batch=True) == run_with(batch=False)

    def test_large_batch_uses_heapify_path_and_stays_sorted(self):
        sim = Simulator()
        times = []

        def record():
            times.append(sim.now)

        sim.schedule_many([(float((i * 7919) % 500), record) for i in range(200)])
        sim.schedule_many([(float((i * 104729) % 500), record) for i in range(200)])
        sim.run()
        assert times == sorted(times)
        assert len(times) == 400

    def test_past_time_rejected_atomically(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_many([(20.0, lambda: None), (5.0, lambda: None)])
        assert sim.pending == 0
        assert sim.run() == 0

    @pytest.mark.parametrize("size", [3, 40])
    def test_nan_time_rejected_atomically(self, size):
        sim = Simulator()
        entries = [(float(i + 1), lambda: None) for i in range(size)]
        entries[size // 2] = (float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_many(entries)
        assert sim.pending == 0
        assert sim.run() == 0

    def test_empty_batch(self):
        sim = Simulator()
        assert sim.schedule_many([]) == []
        assert sim.pending == 0

    def test_batch_events_are_cancelable(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_many(
            [(float(i), fired.append, (i,)) for i in range(1, 11)]
        )
        events[4].cancel()
        sim.run()
        assert 5 not in fired
        assert len(fired) == 9


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
        for event in events[100:]:
            event.cancel()
        # Compaction triggered: the dead majority is gone from the heap
        # (at most a sub-threshold remainder of canceled events linger).
        assert len(sim._heap) < 250
        assert sim.pending == 100
        assert sim.run() == 100

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
        for event in events[1:]:
            event.cancel()
        assert len(sim._heap) == 20  # under the compaction floor
        assert sim.run() == 1

    def test_compaction_during_run_from_callback(self):
        sim = Simulator()
        fired = []
        victims = [
            sim.schedule(100.0 + i, fired.append, i) for i in range(500)
        ]

        def massacre():
            for victim in victims[:400]:
                victim.cancel()

        sim.schedule(1.0, massacre)
        survivor = sim.schedule(1000.0, fired.append, "survivor")
        assert survivor is not None
        sim.run()
        assert fired[-1] == "survivor"
        assert len(fired) == 101  # 100 surviving victims + survivor
        assert sim.pending == 0

    def test_counter_consistent_after_mixed_pop_and_compact(self):
        sim = Simulator()
        keep = []
        events = [sim.schedule(float(i + 1), keep.append, i) for i in range(200)]
        # Cancel a minority: below the >50% threshold, so they stay in
        # the heap and run() pops them lazily.
        for event in events[::4]:
            event.cancel()
        assert sim.run() == 150
        assert sim._canceled_queued == 0


class TestTimeSource:
    def test_same_closure_every_call(self):
        sim = Simulator()
        assert sim.time_source() is sim.time_source()

    def test_tracks_clock(self):
        sim = Simulator()
        clock = sim.time_source()
        assert clock() == 0.0
        sim.schedule(9.0, lambda: None)
        sim.run()
        assert clock() == 9.0

    def test_distinct_per_simulator(self):
        assert Simulator().time_source() is not Simulator().time_source()


class TestTracing:
    def test_trace_records_labeled_events(self):
        sim = Simulator()
        sim.enable_trace()
        sim.schedule(1.0, lambda: None, label="tune-laser")
        sim.schedule(2.0, lambda: None)  # unlabeled: not traced
        sim.run()
        assert sim.trace == [(1.0, "tune-laser")]

    def test_trace_disabled_by_default(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, label="x")
        sim.run()
        assert sim.trace == []


class TestDeterminism:
    @given(delays=st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_fire_times_are_sorted(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0, max_value=100), min_size=1, max_size=30
        )
    )
    def test_identical_schedules_give_identical_orders(self, delays):
        def run_once():
            sim = Simulator()
            order = []
            for i, delay in enumerate(delays):
                sim.schedule(delay, order.append, i)
            sim.run()
            return order

        assert run_once() == run_once()
