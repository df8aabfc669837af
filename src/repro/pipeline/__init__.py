"""Concurrent order intake: scheduling rounds over the controller.

The ROADMAP north star is "heavy traffic from millions of users" — many
CSPs ordering simultaneously and contending for the same wavelengths
and transponders.  :class:`~repro.pipeline.engine.OrderPipeline` puts a
bounded intake queue in front of the controller, drains it in
scheduling rounds driven by a sim-kernel process, plans each round's
wavelengths as one :meth:`~repro.core.rwa.RwaEngine.plan_batch` call
(shared route/reach work, round-level contention validation), and
resolves contention deterministically: arrival order within a round,
with an optional seeded tiebreak for same-instant arrivals.

Orders that lose a round's wavelength contention are deferred and
retried in later rounds (bounded by ``max_defers``); orders that cannot
fit at all are BLOCKED exactly as the serial path would block them, and
a full queue refuses new work immediately (backpressure) rather than
growing without bound.  With ``round_size=1`` the pipeline is
byte-identical to calling
:meth:`~repro.core.controller.GriphonController.request_connection`
serially — the differential tests pin that equivalence.
"""
