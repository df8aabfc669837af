"""The async BoD service frontend: millions of tenants, one edge.

``repro.frontend`` is the always-on service layer between simulated
clients and the order backends:

* :mod:`repro.frontend.aio` — :class:`SimFuture`, the one-shot result
  cell whose callbacks fire as kernel events;
* :mod:`repro.frontend.ratelimit` — lazily materialized per-tenant
  token buckets on the sim clock;
* :mod:`repro.frontend.service` — :class:`BodFrontend`: the three edge
  gates (rate limit, non-mutating quota probe, hysteresis load
  shedding), the bounded submission queue with its intake pump, and
  streaming order-status resolution over any
  :class:`repro.api.OrderIntake` backend;
* :mod:`repro.frontend.clients` — open-loop Poisson client fleets over
  heavy-tailed tenant populations, for the load benchmarks.
"""

from repro.frontend.aio import SimFuture
from repro.frontend.clients import ClientFleet, FleetStats
from repro.frontend.ratelimit import BucketSet, TokenBucket
from repro.frontend.service import (
    PRIORITY_CLASSES,
    STATE_OPEN,
    STATE_SHEDDING,
    BodFrontend,
    FrontendTicket,
)

__all__ = [
    "SimFuture",
    "BucketSet",
    "TokenBucket",
    "BodFrontend",
    "FrontendTicket",
    "PRIORITY_CLASSES",
    "STATE_OPEN",
    "STATE_SHEDDING",
    "ClientFleet",
    "FleetStats",
]
