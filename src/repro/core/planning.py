"""Resource planning: sizing the transponder pools against forecasts.

"Ensuring adequate network resources to support anticipated demand from
the CSPs is made more difficult by the existence of dynamic services.
... they need to forecast demand and carefully manage the pool of
GRIPhoN resources.  ... in this network the number of users is smaller
and the cost of a line is far greater, making accurate planning far
more critical."  (paper §4)

The planner treats each node's transponder pool as an Erlang-B loss
system: BoD requests arrive, hold, and depart, and a request finding no
free OT is blocked.  Given a per-premises-pair forecast (arrival rate x
holding time = offered Erlangs) it computes the smallest per-node pool
meeting a target blocking probability — exactly the POTS-style planning
the paper says becomes critical when "the cost of a line is far
greater".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError


def erlang_b(servers: int, offered_erlangs: float) -> float:
    """Blocking probability of an M/M/c/c loss system.

    Uses the numerically stable recurrence
    ``B(0) = 1;  B(c) = a B(c-1) / (c + a B(c-1))``.

    Raises:
        ConfigurationError: for negative inputs.
    """
    if servers < 0:
        raise ConfigurationError(f"servers must be >= 0, got {servers}")
    if offered_erlangs < 0:
        raise ConfigurationError(
            f"offered load must be >= 0, got {offered_erlangs}"
        )
    if offered_erlangs == 0:
        return 0.0
    blocking = 1.0
    for c in range(1, servers + 1):
        blocking = (offered_erlangs * blocking) / (c + offered_erlangs * blocking)
    return blocking


def servers_for_blocking(offered_erlangs: float, target: float) -> int:
    """Smallest server count with Erlang-B blocking at most ``target``.

    Raises:
        ConfigurationError: for a target outside (0, 1).
    """
    if not 0 < target < 1:
        raise ConfigurationError(f"target must be in (0, 1), got {target}")
    if offered_erlangs < 0:
        raise ConfigurationError("offered load must be >= 0")
    servers = 0
    while erlang_b(servers, offered_erlangs) > target:
        servers += 1
        if servers > 100_000:
            raise ConfigurationError("target unreachable; check inputs")
    return servers


@dataclass(frozen=True)
class DemandForecast:
    """Forecast BoD demand for one premises pair.

    Attributes:
        pop_a / pop_b: The core PoPs terminating the connections.
        arrivals_per_hour: Mean BoD request rate.
        mean_holding_hours: Mean connection lifetime.
    """

    pop_a: str
    pop_b: str
    arrivals_per_hour: float
    mean_holding_hours: float

    def __post_init__(self) -> None:
        if self.arrivals_per_hour < 0 or self.mean_holding_hours <= 0:
            raise ConfigurationError(
                "arrival rate must be >= 0 and holding time > 0"
            )

    @property
    def offered_erlangs(self) -> float:
        """Offered load in Erlangs (simultaneous connections on average)."""
        return self.arrivals_per_hour * self.mean_holding_hours


class ResourcePlanner:
    """Sizes per-node transponder pools from pairwise forecasts."""

    def offered_load_per_node(
        self, forecasts: List[DemandForecast]
    ) -> Dict[str, float]:
        """Erlangs of transponder demand each node terminates.

        A connection consumes one OT at each *end* node (intermediate
        nodes pass through optically).
        """
        load: Dict[str, float] = {}
        for forecast in forecasts:
            for node in (forecast.pop_a, forecast.pop_b):
                load[node] = load.get(node, 0.0) + forecast.offered_erlangs
        return load

    def size_pools(
        self,
        forecasts: List[DemandForecast],
        target_blocking: float = 0.01,
        restoration_headroom: int = 1,
    ) -> Dict[str, int]:
        """Per-node OT counts meeting the blocking target.

        Args:
            target_blocking: Acceptable per-node blocking probability.
            restoration_headroom: Extra OTs per node held for automated
                restoration (the "spare resources" of §4); restoration
                re-uses the end OTs in the common case, but regen-site
                changes can demand spares.
        """
        if restoration_headroom < 0:
            raise ConfigurationError("headroom must be >= 0")
        pools = {}
        for node, erlangs in self.offered_load_per_node(forecasts).items():
            pools[node] = (
                servers_for_blocking(erlangs, target_blocking)
                + restoration_headroom
            )
        return pools

    def expected_blocking(
        self, forecasts: List[DemandForecast], pools: Dict[str, int]
    ) -> Dict[str, float]:
        """Erlang-B blocking per node under the given pool sizes."""
        result = {}
        for node, erlangs in self.offered_load_per_node(forecasts).items():
            servers = pools.get(node, 0)
            result[node] = erlang_b(servers, erlangs)
        return result
