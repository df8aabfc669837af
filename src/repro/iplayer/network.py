"""The IP layer network: routers, adjacencies, EVC routing, reroute.

Adjacencies carry committed EVC bandwidth with a statistical
oversubscription factor (packet multiplexing lets the carrier sell more
committed rate than raw capacity, unlike the rigid TDM layers below).
On an adjacency failure the layer reconverges IGP-style — a couple
hundred milliseconds — and reroutes affected EVCs onto surviving
capacity where it exists.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    NoPathError,
    ResourceError,
)
from repro.iplayer.evc import Evc, EvcState

#: IGP detection + SPF reconvergence time, in seconds.
RECONVERGENCE_TIME_S = 0.200


class Adjacency:
    """A router-to-router link with committed-bandwidth accounting.

    Attributes:
        a / b: Endpoint routers.
        capacity_bps: Raw transport capacity underneath.
        oversubscription: Committed-rate multiplier the carrier allows.
    """

    __slots__ = ("a", "b", "capacity_bps", "oversubscription", "up", "owners")

    def __init__(
        self,
        a: str,
        b: str,
        capacity_bps: float,
        oversubscription: float = 2.0,
        up: bool = True,
        owners: Optional[Dict[str, float]] = None,
    ) -> None:
        self.a = a
        self.b = b
        self.capacity_bps = capacity_bps
        self.oversubscription = oversubscription
        self.up = up
        self.owners = {} if owners is None else owners

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical endpoint pair."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    @property
    def sellable_bps(self) -> float:
        """Total committed rate the adjacency may carry."""
        return self.capacity_bps * self.oversubscription

    @property
    def reserved_bps(self) -> float:
        """Committed rate currently reserved (derived from the per-EVC
        ledger, so it can never drift out of sync)."""
        return sum(self.owners.values())

    @property
    def free_bps(self) -> float:
        """Committed rate still available for new EVCs."""
        return self.sellable_bps - self.reserved_bps

    def reserve(self, evc_id: str, rate_bps: float) -> None:
        """Reserve committed rate for an EVC.

        Raises:
            CapacityExceededError: if the adjacency cannot sell more.
            ResourceError: if the adjacency is down or the EVC already
                holds a reservation here.
        """
        if not self.up:
            raise ResourceError(f"adjacency {self.key} is down")
        if evc_id in self.owners:
            raise ResourceError(f"{evc_id} already reserved on {self.key}")
        if rate_bps > self.free_bps + 1e-9:
            raise CapacityExceededError(
                f"adjacency {self.key}: need {rate_bps}, free {self.free_bps}"
            )
        self.owners[evc_id] = rate_bps

    def release(self, evc_id: str) -> None:
        """Release an EVC's reservation.

        Raises:
            ResourceError: if the EVC holds nothing here.
        """
        if evc_id not in self.owners:
            raise ResourceError(f"{evc_id} holds nothing on {self.key}")
        del self.owners[evc_id]


class IpLayer:
    """Routers, adjacencies, and EVC management."""

    def __init__(self) -> None:
        self._routers: Set[str] = set()
        self._adjacencies: Dict[Tuple[str, str], Adjacency] = {}
        self._evcs: Dict[str, Evc] = {}
        self._seq = itertools.count()

    # -- construction --------------------------------------------------------

    def add_router(self, node: str) -> None:
        """Install a router at ``node``."""
        if node in self._routers:
            raise ConfigurationError(f"router already installed at {node}")
        self._routers.add(node)

    def add_adjacency(
        self,
        a: str,
        b: str,
        capacity_bps: float,
        oversubscription: float = 2.0,
    ) -> Adjacency:
        """Create an adjacency between two installed routers."""
        for node in (a, b):
            if node not in self._routers:
                raise ConfigurationError(f"no router at {node}")
        if a == b:
            raise ConfigurationError("adjacency endpoints must differ")
        if capacity_bps <= 0 or oversubscription < 1.0:
            raise ConfigurationError(
                "capacity must be positive and oversubscription >= 1"
            )
        adjacency = Adjacency(a, b, capacity_bps, oversubscription)
        if adjacency.key in self._adjacencies:
            raise ConfigurationError(f"duplicate adjacency {adjacency.key}")
        self._adjacencies[adjacency.key] = adjacency
        return adjacency

    def adjacency(self, a: str, b: str) -> Adjacency:
        """Look up the adjacency between two routers.

        Raises:
            ConfigurationError: if none exists.
        """
        key = (a, b) if a <= b else (b, a)
        try:
            return self._adjacencies[key]
        except KeyError:
            raise ConfigurationError(f"no adjacency {key}") from None

    @property
    def routers(self) -> List[str]:
        """All router nodes."""
        return sorted(self._routers)

    @property
    def evcs(self) -> List[Evc]:
        """All live EVCs."""
        return list(self._evcs.values())

    # -- routing --------------------------------------------------------------

    def route(
        self,
        a: str,
        b: str,
        rate_bps: float,
        excluded: Tuple[Tuple[str, str], ...] = (),
    ) -> List[str]:
        """Widest-shortest path with at least ``rate_bps`` free per hop.

        Dijkstra on hop count, tie-broken by bottleneck free bandwidth.

        Raises:
            NoPathError: if no feasible path exists.
        """
        if a not in self._routers or b not in self._routers:
            raise ConfigurationError(f"unknown router in {a!r} -> {b!r}")
        banned = {((x, y) if x <= y else (y, x)) for x, y in excluded}
        # (hops, -bottleneck, counter, node)
        counter = itertools.count()
        best: Dict[str, Tuple[int, float]] = {a: (0, float("inf"))}
        previous: Dict[str, str] = {}
        frontier = [(0, 0.0, next(counter), a)]
        visited: Set[str] = set()
        while frontier:
            hops, neg_bottleneck, _, current = heapq.heappop(frontier)
            if current in visited:
                continue
            visited.add(current)
            if current == b:
                path = [b]
                while path[-1] != a:
                    path.append(previous[path[-1]])
                path.reverse()
                return path
            for adjacency in self._adjacencies.values():
                if current not in (adjacency.a, adjacency.b):
                    continue
                if not adjacency.up or adjacency.key in banned:
                    continue
                if adjacency.free_bps < rate_bps:
                    continue
                neighbor = (
                    adjacency.b if current == adjacency.a else adjacency.a
                )
                if neighbor in visited:
                    continue
                bottleneck = min(-neg_bottleneck, adjacency.free_bps)
                candidate = (hops + 1, -bottleneck)
                if neighbor not in best or candidate < (
                    best[neighbor][0],
                    -best[neighbor][1],
                ):
                    best[neighbor] = (hops + 1, bottleneck)
                    previous[neighbor] = current
                    heapq.heappush(
                        frontier,
                        (hops + 1, -bottleneck, next(counter), neighbor),
                    )
        raise NoPathError(
            f"no IP path {a} -> {b} with {rate_bps} bps free"
        )

    # -- EVC management ----------------------------------------------------------

    def provision_evc(self, a: str, b: str, rate_bps: float) -> Evc:
        """Route and reserve an EVC; returns it.

        Raises:
            NoPathError: if no feasible path exists (nothing reserved).
        """
        if rate_bps <= 0:
            raise ConfigurationError("EVC rate must be positive")
        path = self.route(a, b, rate_bps)
        evc = Evc(f"evc-{next(self._seq)}", a, b, rate_bps, path=path)
        for u, v in zip(path, path[1:]):
            self.adjacency(u, v).reserve(evc.evc_id, rate_bps)
        self._evcs[evc.evc_id] = evc
        return evc

    def release_evc(self, evc_id: str) -> None:
        """Tear down an EVC and free its reservations.

        Raises:
            ResourceError: for an unknown EVC.
        """
        evc = self._evcs.pop(evc_id, None)
        if evc is None:
            raise ResourceError(f"unknown EVC {evc_id!r}")
        for u, v in zip(evc.path, evc.path[1:]):
            adjacency = self.adjacency(u, v)
            if evc_id in adjacency.owners:
                adjacency.release(evc_id)
        evc.transition(EvcState.RELEASED)

    # -- failures -------------------------------------------------------------

    def fail_adjacency(self, a: str, b: str) -> List[Evc]:
        """Take an adjacency down; returns EVCs that were riding it."""
        adjacency = self.adjacency(a, b)
        adjacency.up = False
        key = adjacency.key
        return [
            evc
            for evc in self._evcs.values()
            if key in {
                ((u, v) if u <= v else (v, u))
                for u, v in zip(evc.path, evc.path[1:])
            }
        ]

    def repair_adjacency(self, a: str, b: str) -> None:
        """Bring an adjacency back up."""
        self.adjacency(a, b).up = True

    def reroute_evc(self, evc_id: str) -> float:
        """Move an EVC off failed adjacencies; returns the outage time.

        The outage is IGP reconvergence; the EVC keeps its reservation
        semantics on the new path.

        Raises:
            ResourceError: for an unknown EVC.
            NoPathError: if no surviving path has capacity (the EVC is
                left DOWN with its old reservations released).
        """
        evc = self._evcs.get(evc_id)
        if evc is None:
            raise ResourceError(f"unknown EVC {evc_id!r}")
        # Release old reservations first (the old path is broken anyway).
        for u, v in zip(evc.path, evc.path[1:]):
            adjacency = self.adjacency(u, v)
            if evc_id in adjacency.owners:
                adjacency.release(evc_id)
        if evc.state is EvcState.UP:
            evc.transition(EvcState.REROUTING)
        try:
            path = self.route(evc.a, evc.b, evc.rate_bps)
        except NoPathError:
            evc.path = []
            if evc.state is not EvcState.DOWN:
                evc.transition(EvcState.DOWN)
            raise
        for u, v in zip(path, path[1:]):
            self.adjacency(u, v).reserve(evc_id, evc.rate_bps)
        evc.path = path
        evc.reroute_count += 1
        evc.transition(EvcState.UP)
        return RECONVERGENCE_TIME_S
