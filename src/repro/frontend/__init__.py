"""The async BoD service frontend: millions of tenants, one edge.

``repro.frontend`` is the always-on service layer between simulated
clients and the order backends:

* :mod:`repro.frontend.aio` — :class:`SimFuture`, the one-shot result
  cell whose callbacks fire as kernel events;
* :mod:`repro.frontend.ratelimit` — lazily materialized per-tenant
  token buckets on the sim clock;
* :mod:`repro.frontend.service` — :class:`BodFrontend`: the three edge
  gates (rate limit, non-mutating quota probe, hysteresis load
  shedding against the intake's one bounded heap), direct admission
  into that heap, and streaming order-status resolution over either
  :class:`repro.pipeline.engine.RoundIntake` backend;
* :mod:`repro.frontend.clients` — open-loop Poisson client fleets over
  heavy-tailed tenant populations, for the load benchmarks.
"""
