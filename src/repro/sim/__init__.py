"""Deterministic discrete-event simulation kernel.

The whole GRIPhoN reproduction runs on this kernel: network elements,
EMS latency models, controllers, workloads, and failure injectors all
schedule callbacks on a shared :class:`~repro.sim.kernel.Simulator`.

The kernel is deliberately small and deterministic:

* events at equal timestamps fire in scheduling order (a strict FIFO
  tiebreak), so runs are reproducible;
* randomness is confined to :class:`~repro.sim.randomness.RandomStreams`,
  which derives independent named substreams from one master seed;
* generator-based :class:`~repro.sim.process.Process` objects provide a
  convenient coroutine style for multi-step activities (yield a delay,
  resume later; a :class:`~repro.sim.process.StepRun` waits out many).
"""
