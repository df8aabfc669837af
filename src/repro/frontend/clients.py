"""Simulated client fleets fanning into the frontend.

:class:`ClientFleet` is the load generator for the frontend benchmarks:
an **open-loop** arrival process (clients submit on their own schedule
regardless of how the service is coping — the honest way to measure
overload behavior) over a heavy-tailed
:class:`~repro.workload.tenants.TenantPopulation`.

The whole arrival timeline is pre-generated from seeded substreams and
batch-scheduled with :meth:`~repro.sim.kernel.Simulator.schedule_many`
(one O(n) heapify), and per-order follow-up uses future callbacks
rather than one coroutine per client — at a million submissions, task
objects would dominate the profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.errors import ConfigurationError
from repro.frontend.service import BodFrontend, FrontendTicket
from repro.sim.randomness import RandomStreams
from repro.units import GBPS
from repro.workload.tenants import TenantPopulation


class FleetStats:
    """What became of a fleet's submissions, by outcome class.

    Attributes:
        submitted: Orders the fleet actually submitted.
        outcomes: ``{outcome class name: count}`` over resolved tickets.
        order_to_active: Per-order frontend-submit → ACTIVE latencies.
    """

    __slots__ = ("submitted", "outcomes", "order_to_active")

    def __init__(self) -> None:
        self.submitted = 0
        self.outcomes: Dict[str, int] = {}
        self.order_to_active: List[float] = []

    def resolved(self) -> int:
        """Tickets whose outcome arrived."""
        return sum(self.outcomes.values())


class ClientFleet:
    """An open-loop Poisson fleet submitting through one frontend.

    Args:
        frontend: The service edge to submit through.
        population: Tenant population sampled per arrival (profiles are
            lazily registered against ``admission``).
        admission: The ledger tenants must be registered with.
        premises: Candidate endpoints; each arrival picks an ordered
            pair uniformly.
        streams: Seeded stream family — one fleet, one family; spawn
            per fleet for independence.
        arrival_rate: Mean submissions per sim-second (Poisson).
        duration: Sim seconds of arrivals to pre-generate.
        rate_choices_gbps: Order sizes drawn uniformly per arrival.
        burst_interval: When set, arrival times are quantized down to
            multiples of this interval, so every arrival in a window
            lands on the same instant — the thundering-herd shape that
            actually pressures the bounded queue (smooth arrivals are
            drained one at a time and never backlog a zero-sim-time
            planner).
    """

    def __init__(
        self,
        frontend: BodFrontend,
        population: TenantPopulation,
        admission,
        premises: Sequence[str],
        streams: RandomStreams,
        arrival_rate: float = 10.0,
        duration: float = 100.0,
        rate_choices_gbps: Sequence[float] = (10.0,),
        burst_interval: Optional[float] = None,
    ) -> None:
        if arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be > 0, got {arrival_rate}"
            )
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        if len(premises) < 2:
            raise ConfigurationError("need at least two premises to order")
        if burst_interval is not None and burst_interval <= 0:
            raise ConfigurationError(
                f"burst_interval must be > 0, got {burst_interval}"
            )
        self._frontend = frontend
        self._population = population
        self._admission = admission
        self._premises = list(premises)
        self._streams = streams
        self._arrival_rate = arrival_rate
        self._duration = duration
        self._rate_choices = list(rate_choices_gbps)
        self._burst_interval = burst_interval
        self.stats = FleetStats()
        self.tickets: List[FrontendTicket] = []

    def start(self) -> int:
        """Pre-generate and schedule the whole arrival timeline.

        Returns the number of arrivals scheduled.  Arrival times,
        tenant draws, endpoint pairs, and rates all come from dedicated
        substreams, so the timeline is a pure function of the seed.
        """
        sim = self._frontend.sim
        clock = self._streams.stream("fleet.arrivals")
        tenants = self._streams.stream("fleet.tenants")
        pairs = self._streams.stream("fleet.premises")
        sizes = self._streams.stream("fleet.rates")
        mean_gap = 1.0 / self._arrival_rate
        now = sim.now
        entries: List[Tuple[float, object, tuple]] = []
        time = now
        while True:
            time += clock.expovariate(1.0 / mean_gap)
            if time - now > self._duration:
                break
            when = time
            if self._burst_interval is not None:
                when = now + (
                    (time - now) // self._burst_interval
                ) * self._burst_interval
            tenant = self._population.sample(tenants)
            index_a = pairs.randrange(len(self._premises))
            index_b = pairs.randrange(len(self._premises) - 1)
            if index_b >= index_a:
                index_b += 1
            rate = (
                self._rate_choices[sizes.randrange(len(self._rate_choices))]
                * GBPS
            )
            entries.append(
                (
                    when,
                    self._submit_one,
                    (
                        tenant,
                        self._premises[index_a],
                        self._premises[index_b],
                        rate,
                    ),
                )
            )
        sim.schedule_many(entries)
        return len(entries)

    def _submit_one(
        self, tenant: str, premises_a: str, premises_b: str, rate_bps: float
    ) -> None:
        """One arrival: lazy-register the tenant, submit, track outcome."""
        self._population.ensure_registered(self._admission, tenant)
        ticket = self._frontend.submit(tenant, premises_a, premises_b, rate_bps)
        self.stats.submitted += 1
        self.tickets.append(ticket)
        ticket.future.add_done_callback(
            lambda outcome, _t=ticket: self._record(_t, outcome)
        )

    def _record(self, ticket: FrontendTicket, outcome: object) -> None:
        name = type(outcome).__name__
        self.stats.outcomes[name] = self.stats.outcomes.get(name, 0) + 1
        if isinstance(outcome, api.Active):
            self.stats.order_to_active.append(
                self._frontend.sim.now - ticket.submitted_at
            )
