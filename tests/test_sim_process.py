"""Tests for generator-based Process objects."""

import pytest

from repro.errors import SimulationError
from repro.sim import Process, Simulator


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


class TestInterrupt:
    def test_interrupt_stops_future_steps(self):
        sim = Simulator()
        steps = []

        def activity():
            try:
                while True:
                    yield 1.0
                    steps.append(sim.now)
            finally:
                steps.append("cleanup")

        process = Process(sim, activity())
        sim.schedule(2.5, process.interrupt)
        sim.run()
        assert process.interrupted
        assert steps == [1.0, 2.0, "cleanup"]

    def test_interrupt_finished_process_rejected(self):
        sim = Simulator()

        def activity():
            yield 1.0

        process = Process(sim, activity())
        sim.run()
        with pytest.raises(SimulationError):
            process.interrupt()
