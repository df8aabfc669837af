"""Tests for generator-based Process objects."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.process import Process, StepRun


class TestProcessExecution:
    def test_steps_advance_clock(self):
        sim = Simulator()
        checkpoints = []

        def activity():
            checkpoints.append(sim.now)
            yield 2.0
            checkpoints.append(sim.now)
            yield 3.0
            checkpoints.append(sim.now)

        Process(sim, activity())
        sim.run()
        assert checkpoints == [0.0, 2.0, 5.0]

    def test_result_captured(self):
        sim = Simulator()

        def activity():
            yield 1.0
            return "done"

        process = Process(sim, activity())
        sim.run()
        assert process.done
        assert process.result == "done"

    def test_on_complete_callback(self):
        sim = Simulator()
        results = []

        def activity():
            yield 1.0
            return 42

        Process(sim, activity(), on_complete=results.append)
        sim.run()
        assert results == [42]

    def test_empty_generator_completes_immediately(self):
        sim = Simulator()

        def activity():
            return
            yield  # pragma: no cover - makes this a generator

        process = Process(sim, activity())
        sim.run()
        assert process.done
        assert sim.now == 0.0

    def test_two_processes_interleave(self):
        sim = Simulator()
        order = []

        def worker(name, step):
            for _ in range(3):
                yield step
                order.append((name, sim.now))

        Process(sim, worker("fast", 1.0))
        Process(sim, worker("slow", 2.5))
        sim.run()
        assert order == [
            ("fast", 1.0),
            ("fast", 2.0),
            ("slow", 2.5),
            ("fast", 3.0),
            ("slow", 5.0),
            ("slow", 7.5),
        ]


class TestProcessErrors:
    def test_negative_yield_rejected(self):
        sim = Simulator()

        def activity():
            yield -1.0

        Process(sim, activity())
        with pytest.raises(SimulationError):
            sim.run()

    def test_nan_yield_rejected(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)

        def activity():
            yield 1.0
            yield float("nan")

        process = Process(sim, activity())
        with pytest.raises(SimulationError):
            sim.run()
        assert process.done
        assert sim.now == 1.0
        sim.run()
        assert sim.now == 3.0

    def test_non_numeric_yield_rejected(self):
        sim = Simulator()

        def activity():
            yield "soon"

        Process(sim, activity())
        with pytest.raises(SimulationError):
            sim.run()


class TestTimerEntry:
    """``Simulator.timer`` -- what a process arms each step through --
    against ``schedule``: same event, same bookkeeping."""

    @staticmethod
    def twins():
        """Two kernels in the same state: advanced clock, events queued."""
        sims = [Simulator(), Simulator()]
        for sim in sims:
            sim.enable_trace()
            sim.schedule(1.5, lambda: None, label="earlier")
            sim.schedule(4.0, lambda: None, label="later")
            sim.run(until=2.0)
        return sims

    def test_same_event_as_schedule(self):
        by_schedule, by_timer = self.twins()
        a = by_schedule.schedule(0.5, lambda: None, label="step")
        b = by_timer.timer(0.5, lambda: None, "step")
        assert (a.time, a.seq, a.label) == (b.time, b.seq, b.label)
        assert b.args == ()
        assert by_schedule.pending == by_timer.pending == 2
        # Ties with a later event at the same time keep FIFO order.
        for sim in (by_schedule, by_timer):
            sim.schedule(0.5, lambda: None, label="tie")
        by_schedule.run()
        by_timer.run()
        assert by_schedule.trace == by_timer.trace
        assert [label for _, label in by_timer.trace][-3:] == ["step", "tie", "later"]
        assert by_schedule.now == by_timer.now
        assert by_schedule.pending == by_timer.pending == 0

    def test_process_steps_are_labeled_timers(self):
        sim = Simulator()
        sim.enable_trace()

        def activity():
            yield 2
            yield 3.0

        Process(sim, activity(), label="work")
        assert sim.pending == 1
        sim.run(until=1.0)
        assert sim.pending == 1  # the 2-second step, armed at t=0
        (time, _seq, event), = sim._heap
        assert isinstance(time, float) and time == 2.0
        assert event.label == "work" and event.args == ()
        assert sim.run() == 2
        assert sim.trace == [(0.0, "work"), (2.0, "work"), (5.0, "work")]


class TestFinishedProcess:
    """A process that has ended keeps no kernel event: nothing re-arms
    it, and its reference count frees it."""

    @staticmethod
    def ended(how):
        """A process ended by finishing or by an invalid delay, after
        waiting out a step run."""
        sim = Simulator()
        completions = []

        def activity():
            yield StepRun([1.0, 0.0])
            yield -1.0 if how == "invalid" else 0.0

        process = Process(sim, activity(), on_complete=completions.append)
        if how == "invalid":
            with pytest.raises(SimulationError):
                sim.run()
        sim.run()
        assert process.done
        assert sim.pending == 0
        assert completions == ([None] if how == "finish" else [])
        return process

    @pytest.mark.parametrize("how", ["finish", "invalid"])
    def test_freed_without_the_cyclic_collector(self, how):
        gc.disable()
        try:
            ref = weakref.ref(self.ended(how))
            assert ref() is None
        finally:
            gc.enable()
