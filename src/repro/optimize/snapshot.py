"""Freezing the live network into an immutable re-planning problem.

The planner never touches the controller: a :class:`NetworkSnapshot`
captures everything the assignment heuristic needs at one instant —

* **demands**: every migratable live connection (UP, single lightpath,
  no sub-wavelength circuits, not locked by another migration driver),
  with its current route and per-segment wavelength assignment;
* **capacities**: the occupied-channel bitmask per link, plus the free
  transponder / regenerator headroom per (node, rate) — a bridge-and-
  roll move transiently holds *both* the old and the new resources;
* **costs**: per-link base costs (1 hop + any caller-supplied penalty,
  e.g. the SLO breach stream's degraded-link penalties).

The snapshot is taken synchronously — no simulation events run between
capture and planning — so keeping references to the (immutable-for-now)
graph and reach model is safe, while the occupancy masks and headroom
counts are *copied* so the planner's working state cannot leak back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.connection import ConnectionState

#: Link key type: canonical ``(u, v)`` with ``u <= v``.
LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class Demand:
    """One live connection as the re-planning problem sees it.

    Attributes:
        connection_id: The connection this demand re-plans.
        source: Source ROADM of its lightpath.
        destination: Destination ROADM of its lightpath.
        rate_bps: Line rate of the wavelength.
        path: Current node route.
        channels: Current wavelength per regen-free segment, path order.
        segment_nodes: Node tuple per regen-free segment, path order.
        regen_sites: Nodes currently hosting a regen for this lightpath.
    """

    connection_id: str
    source: str
    destination: str
    rate_bps: float
    path: Tuple[str, ...]
    channels: Tuple[int, ...]
    segment_nodes: Tuple[Tuple[str, ...], ...]
    regen_sites: Tuple[str, ...]

    @property
    def slots(self) -> List[Tuple[LinkKey, int]]:
        """Every (link, channel) slot the demand currently occupies."""
        occupied = []
        for nodes, channel in zip(self.segment_nodes, self.channels):
            for u, v in zip(nodes, nodes[1:]):
                key = (u, v) if u <= v else (v, u)
                occupied.append((key, channel))
        return occupied


class NetworkSnapshot:
    """The frozen re-planning problem: demands, capacities, costs."""

    def __init__(
        self,
        graph,
        reach,
        grid_size: int,
        demands: Tuple[Demand, ...],
        occupied: Dict[LinkKey, int],
        link_costs: Dict[LinkKey, float],
        failed_links: Tuple[LinkKey, ...],
        free_transponders: Dict[Tuple[str, float], int],
        free_regens: Dict[Tuple[str, float], int],
        taken_at: float,
    ) -> None:
        self.graph = graph
        self.reach = reach
        self.grid_size = grid_size
        self.demands = demands
        self.occupied = occupied
        self.link_costs = link_costs
        self.failed_links = failed_links
        self.free_transponders = free_transponders
        self.free_regens = free_regens
        self.taken_at = taken_at

    @classmethod
    def from_controller(
        cls,
        controller,
        link_penalties: Optional[Dict[LinkKey, float]] = None,
    ) -> "NetworkSnapshot":
        """Capture the controller's live state as a re-planning problem.

        Args:
            controller: The :class:`~repro.core.controller.GriphonController`.
            link_penalties: Extra per-link cost (on top of the 1.0 hop
                cost), keyed by canonical link key — the hook the SLO
                breach stream feeds (see
                :func:`~repro.optimize.planner.slo_link_penalties`).
        """
        inventory = controller.inventory
        graph = inventory.graph
        penalties = link_penalties or {}
        demands: List[Demand] = []
        rates_in_use = set()
        for conn_id in sorted(
            controller.connections, key=_connection_sort_key
        ):
            connection = controller.connections[conn_id]
            if connection.state is not ConnectionState.UP:
                continue
            if len(connection.lightpath_ids) != 1 or connection.circuit_ids:
                continue  # bridge-and-roll can't migrate these (yet)
            if controller.migrations.holder(conn_id) is not None:
                continue  # already mid-migration under another driver
            lightpath = inventory.lightpaths.get(connection.lightpath_ids[0])
            if lightpath is None:
                continue
            demands.append(
                Demand(
                    connection_id=conn_id,
                    source=lightpath.source,
                    destination=lightpath.destination,
                    rate_bps=lightpath.rate_bps,
                    path=tuple(lightpath.path),
                    channels=tuple(
                        seg.channel for seg in lightpath.segments
                    ),
                    segment_nodes=tuple(
                        tuple(seg.nodes) for seg in lightpath.segments
                    ),
                    regen_sites=tuple(lightpath.regen_sites),
                )
            )
            rates_in_use.add(lightpath.rate_bps)
        link_costs = {
            link.key: 1.0 + penalties.get(link.key, 0.0)
            for link in graph.links
        }
        free_transponders = {
            (node, rate): pool.free_count(rate)
            for node, pool in inventory.transponders.items()
            for rate in rates_in_use
        }
        free_regens = {
            (node, rate): pool.free_count(rate)
            for node, pool in inventory.regens.items()
            for rate in rates_in_use
        }
        return cls(
            graph=graph,
            reach=controller.rwa.reach_model,
            grid_size=inventory.grid.size,
            demands=tuple(demands),
            occupied=dict(inventory.plant.occupancy_snapshot()),
            link_costs=link_costs,
            failed_links=tuple(sorted(inventory.plant.failed_links())),
            free_transponders=free_transponders,
            free_regens=free_regens,
            taken_at=controller.sim.now,
        )

    # -- derived views ------------------------------------------------------

    def segment_route(
        self, path: Tuple[str, ...], rate_bps: float
    ) -> Tuple[Tuple[Tuple[str, ...], ...], Tuple[str, ...]]:
        """Split a route at regen sites, exactly like the RWA engine.

        Returns ``(segment node tuples, regen sites)``.  May raise
        :class:`~repro.errors.SignalError` when a single link exceeds
        the optical reach at this rate (the route is then unusable).
        """
        regen_sites = tuple(
            self.reach.regen_sites(self.graph, list(path), rate_bps)
        )
        boundaries = [path[0]] + list(regen_sites) + [path[-1]]
        position = {node: index for index, node in enumerate(path)}
        indices = [position[b] for b in boundaries]
        segments = tuple(
            tuple(path[start : end + 1])
            for start, end in zip(indices, indices[1:])
        )
        return segments, regen_sites

    def wavelengths_used(
        self, occupied: Optional[Dict[LinkKey, int]] = None
    ) -> int:
        """Distinct channels lit anywhere in the network.

        The defragmentation currency: first-fit packing drives this down,
        scattered assignments drive it up.  Pass an alternative occupancy
        map to evaluate a planner working state.
        """
        masks = self.occupied if occupied is None else occupied
        union = 0
        for mask in masks.values():
            union |= mask
        return bin(union).count("1")


def _connection_sort_key(conn_id: str) -> Tuple:
    """Natural sort for ``conn-<n>`` ids (conn-2 before conn-10)."""
    prefix, _, suffix = conn_id.rpartition("-")
    if suffix.isdigit():
        return (prefix, int(suffix))
    return (conn_id, -1)
