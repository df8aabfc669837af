"""Pre-generated open-loop load: every input a run sees, from one seed.

The whole schedule -- arrival times, tenants, endpoints, rates, holding
times, fiber cuts and repairs -- is drawn here from one
``random.Random(seed)`` before the run starts.  Nothing comes from the
product's own generators (``ClientFleet``, ``FiberCutInjector``), so a
product change cannot change the benchmark's inputs; the program only
ever receives the finished schedule.

Load is open-loop in *sim* time: orders arrive on the schedule whatever
the system is doing.  In *wall* time a run is a batch job, so there is
no generator lateness to report.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Dict, List, NamedTuple, Sequence, Tuple


class Order(NamedTuple):
    """One submission: when, who, between where, how big, how long."""

    at: float
    tenant: str
    premises_a: str
    premises_b: str
    rate_gbps: float
    hold_s: float


class Cut(NamedTuple):
    """One fiber cut and its repair."""

    at: float
    repair_at: float
    a: str
    b: str


class Schedule(NamedTuple):
    orders: List[Order]
    cuts: List[Cut]


class Zipf:
    """Ranks ``0..size-1`` drawn with weight ``(rank + 1) ** -s``."""

    def __init__(self, size: int, s: float) -> None:
        self._cumulative = list(
            accumulate((rank + 1) ** -s for rank in range(size))
        )

    def draw(self, rng: random.Random) -> int:
        position = rng.random() * self._cumulative[-1]
        return min(bisect(self._cumulative, position), len(self._cumulative) - 1)


def _distinct_pair(rng: random.Random, count: int) -> Tuple[int, int]:
    first = rng.randrange(count)
    second = rng.randrange(count - 1)
    return first, second + (second >= first)


def sharded_orders(
    seed: int,
    orders: int,
    regions: Sequence[Sequence[str]],
    rate_per_s: float = 0.5,
    tick_s: float = 20.0,
    tenants: int = 100_000,
    tenant_zipf: float = 1.1,
    endpoint_zipf: float = 0.8,
    cross_region_share: float = 0.5,
    hold_mean_s: float = 120.0,
) -> Schedule:
    """10G orders over a region hierarchy, arriving in ``tick_s`` bursts.

    ``regions`` lists each region's premises; inside a region endpoints
    are Zipf-popular by list position, regions are uniform.
    """
    rng = random.Random(seed)
    tenant_ranks = Zipf(tenants, tenant_zipf)
    popularity = {
        size: Zipf(size, endpoint_zipf)
        for size in {len(region) for region in regions}
    }

    def endpoint(region: Sequence[str]) -> str:
        return region[popularity[len(region)].draw(rng)]

    result: List[Order] = []
    clock = 0.0
    for _ in range(orders):
        clock += rng.expovariate(rate_per_s)
        tenant = f"tenant-{tenant_ranks.draw(rng)}"
        if rng.random() < cross_region_share:
            index_a, index_b = _distinct_pair(rng, len(regions))
            a, b = endpoint(regions[index_a]), endpoint(regions[index_b])
        else:
            region = regions[rng.randrange(len(regions))]
            a = b = endpoint(region)
            while b == a:
                b = endpoint(region)
        result.append(
            Order(
                at=(clock // tick_s) * tick_s,
                tenant=tenant,
                premises_a=a,
                premises_b=b,
                rate_gbps=10.0,
                hold_s=rng.expovariate(1.0 / hold_mean_s),
            )
        )
    return Schedule(result, [])


def overload_orders(
    seed: int,
    duration_s: float,
    premises: Sequence[str],
    rate_per_s: float = 1000.0,
    burst_s: float = 1.0,
    tenants: int = 1_000_000,
    tenant_zipf: float = 1.1,
) -> Schedule:
    """A thundering herd: ``rate_per_s`` 10G submissions in ``burst_s``
    bursts for ``duration_s``, each torn down the moment it is active."""
    rng = random.Random(seed)
    tenant_ranks = Zipf(tenants, tenant_zipf)
    result: List[Order] = []
    clock = rng.expovariate(rate_per_s)
    while clock < duration_s:
        index_a, index_b = _distinct_pair(rng, len(premises))
        result.append(
            Order(
                at=(clock // burst_s) * burst_s,
                tenant=f"tenant-{tenant_ranks.draw(rng)}",
                premises_a=premises[index_a],
                premises_b=premises[index_b],
                rate_gbps=10.0,
                hold_s=0.0,
            )
        )
        clock += rng.expovariate(rate_per_s)
    return Schedule(result, [])


def churn_orders(
    seed: int,
    orders: int,
    premises: Sequence[str],
    core_links: Sequence[Tuple[str, str]],
    rate_per_s: float = 1.0,
    rates_gbps: Sequence[float] = (1.0, 1.0, 10.0, 12.0),
    tenants: int = 100_000,
    tenant_zipf: float = 1.1,
    hold_mean_s: float = 600.0,
    cut_gap_mean_s: float = 150.0,
    repair_after_s: float = 1800.0,
) -> Schedule:
    """Mixed-rate orders with uniform endpoints, under fiber cuts.

    Cuts fall on core links only, never on a link that is still down,
    for as long as orders keep arriving.
    """
    rng = random.Random(seed)
    tenant_ranks = Zipf(tenants, tenant_zipf)
    result: List[Order] = []
    clock = 0.0
    for _ in range(orders):
        clock += rng.expovariate(rate_per_s)
        index_a, index_b = _distinct_pair(rng, len(premises))
        result.append(
            Order(
                at=clock,
                tenant=f"tenant-{tenant_ranks.draw(rng)}",
                premises_a=premises[index_a],
                premises_b=premises[index_b],
                rate_gbps=rates_gbps[rng.randrange(len(rates_gbps))],
                hold_s=rng.expovariate(1.0 / hold_mean_s),
            )
        )
    last_arrival = clock
    cuts: List[Cut] = []
    down_until: Dict[Tuple[str, str], float] = {}
    clock = rng.expovariate(1.0 / cut_gap_mean_s)
    while clock < last_arrival:
        live = [link for link in core_links if down_until.get(link, 0.0) <= clock]
        a, b = live[rng.randrange(len(live))]
        down_until[(a, b)] = clock + repair_after_s
        cuts.append(Cut(clock, clock + repair_after_s, a, b))
        clock += rng.expovariate(1.0 / cut_gap_mean_s)
    return Schedule(result, cuts)
