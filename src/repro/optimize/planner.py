"""The global re-optimization planner: snapshot in, migration plan out.

Pure python, pure function — no solver dependency, no controller access.
The heuristic is an iterative greedy repack (a descent on the assignment
problem's objective rather than an exact min-cost flow):

1. Demands are visited in deterministic id order.  For each, candidate
   routes come from Yen's k-shortest paths under the snapshot's per-link
   costs (hops + SLO penalties), and each candidate gets the lowest free
   wavelength per regen-free segment from the *working* occupancy state.
2. The working state charges a move's **bridge window**: the old slots
   stay occupied until the move is recorded, because bridge-and-roll
   lights the new path before releasing the old one.  Whatever channel
   the planner picks is therefore guaranteed disjoint from everything
   lit at execution time — including the demand's own current channels.
3. A move is accepted only if it beats the demand's current cost by
   ``min_gain``.  Accepted moves update the working state (occupy new,
   release old, adjust transponder/regen headroom), so later demands
   — and later passes — see the freed slots.
4. Passes repeat until a pass produces no move (or ``max_passes``).

Cost of a route = sum of link costs + ``channel_weight`` * channel index
summed over segments.  ``channel_weight`` defaults to 0.005: with an
80-channel grid the worst packing bonus is 0.395 per segment, always
less than one hop, so channel packing is a tiebreak — the planner will
never take a longer route just to use a lower wavelength.

Dependency rule: move *k* depends on move *j* (j earlier in plan order)
iff a slot move *k* lights is a slot move *j* releases.  The executor
runs moves sequentially in plan order, which trivially honors this; the
``depends_on`` edges let tests (and any future parallel executor) check
the ordering is *necessary*, not just sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import GriphonError
from repro.optimize.snapshot import Demand, LinkKey, NetworkSnapshot


@dataclass(frozen=True)
class MigrationMove:
    """One planned bridge-and-roll: a connection's new route + channels.

    Attributes:
        index: Position in the plan (execution order).
        connection_id: The connection to roll.
        rate_bps: Its line rate.
        old_path / old_channels: Assignment at snapshot time (the
            executor stale-checks against this before rolling).
        new_path / new_channels: Target assignment.
        cost_before / cost_after: Objective contribution either side.
        depends_on: Indices of earlier moves whose released slots this
            move lights (must complete first).
    """

    index: int
    connection_id: str
    rate_bps: float
    old_path: Tuple[str, ...]
    old_channels: Tuple[int, ...]
    new_path: Tuple[str, ...]
    new_channels: Tuple[int, ...]
    cost_before: float
    cost_after: float
    depends_on: Tuple[int, ...] = ()

    @property
    def rewavelength_only(self) -> bool:
        """True when the route is unchanged and only channels move."""
        return self.old_path == self.new_path


@dataclass
class MigrationPlan:
    """An ordered list of moves plus the objective book-keeping."""

    moves: List[MigrationMove] = field(default_factory=list)
    objective_before: float = 0.0
    objective_after: float = 0.0
    wavelengths_before: int = 0
    wavelengths_after: int = 0
    passes: int = 0
    frozen_demands: List[str] = field(default_factory=list)


class _WorkingState:
    """The planner's evolving view of occupancy and equipment headroom."""

    def __init__(self, snapshot: NetworkSnapshot) -> None:
        self.snapshot = snapshot
        self.occupied: Dict[LinkKey, int] = dict(snapshot.occupied)
        self.transponders: Dict[Tuple[str, float], int] = dict(
            snapshot.free_transponders
        )
        self.regens: Dict[Tuple[str, float], int] = dict(snapshot.free_regens)
        #: Current assignment per demand id: (path, channels, segments, regens).
        self.assignment: Dict[str, Demand] = {
            d.connection_id: d for d in snapshot.demands
        }

    def free_channel(
        self, segment_nodes: Sequence[str], floor: int = 0
    ) -> Optional[int]:
        """Lowest channel >= ``floor`` free on every link of a segment."""
        mask = 0
        for u, v in zip(segment_nodes, segment_nodes[1:]):
            key = (u, v) if u <= v else (v, u)
            mask |= self.occupied.get(key, 0)
        for channel in range(floor, self.snapshot.grid_size):
            if not mask & (1 << channel):
                return channel
        return None

    def occupy(self, slots: Sequence[Tuple[LinkKey, int]]) -> None:
        for key, channel in slots:
            self.occupied[key] = self.occupied.get(key, 0) | (1 << channel)

    def release(self, slots: Sequence[Tuple[LinkKey, int]]) -> None:
        for key, channel in slots:
            self.occupied[key] = self.occupied.get(key, 0) & ~(1 << channel)


def _route_cost(
    snapshot: NetworkSnapshot,
    path: Sequence[str],
    channels: Sequence[int],
    channel_weight: float,
) -> float:
    """Objective contribution of one assignment."""
    cost = 0.0
    for u, v in zip(path, path[1:]):
        key = (u, v) if u <= v else (v, u)
        cost += snapshot.link_costs.get(key, 1.0)
    cost += channel_weight * sum(channels)
    return cost


def _slots_of(
    segments: Sequence[Sequence[str]], channels: Sequence[int]
) -> List[Tuple[LinkKey, int]]:
    slots = []
    for nodes, channel in zip(segments, channels):
        for u, v in zip(nodes, nodes[1:]):
            key = (u, v) if u <= v else (v, u)
            slots.append((key, channel))
    return slots


def plan_migrations(
    snapshot: NetworkSnapshot,
    k_paths: int = 4,
    max_passes: int = 4,
    min_gain: float = 1e-6,
    channel_weight: float = 0.005,
    max_moves: Optional[int] = None,
) -> MigrationPlan:
    """Compute a :class:`MigrationPlan` for a frozen network snapshot.

    Deterministic: same snapshot, same parameters, same plan — demands
    are visited in natural id order, routes come from Yen's algorithm
    (itself deterministic), and channel selection is first-fit.

    Args:
        snapshot: The frozen re-planning problem.
        k_paths: Candidate routes per demand per pass.
        max_passes: Upper bound on repack passes; the loop also stops as
            soon as a pass yields no move.
        min_gain: Minimum objective improvement to accept a move.
        channel_weight: Cost per channel index (keep << 1/grid_size so
            packing never beats a shorter route).
        max_moves: Optional hard cap on plan length.
    """
    state = _WorkingState(snapshot)
    failed = set(snapshot.failed_links)
    weight_fn = lambda link: snapshot.link_costs.get(link.key, 1.0)  # noqa: E731

    objective_before = sum(
        _route_cost(snapshot, d.path, d.channels, channel_weight)
        for d in snapshot.demands
    )
    wavelengths_before = snapshot.wavelengths_used()

    moves: List[MigrationMove] = []
    #: Released slots per recorded move index, for depends_on edges.
    released_by_move: List[Set[Tuple[LinkKey, int]]] = []
    frozen: List[str] = []
    passes = 0

    for _ in range(max_passes):
        passes += 1
        moved_this_pass = False
        for demand in snapshot.demands:
            if max_moves is not None and len(moves) >= max_moves:
                break
            current = state.assignment[demand.connection_id]
            current_cost = _route_cost(
                snapshot, current.path, current.channels, channel_weight
            )
            # A bridge transiently needs one extra transponder per end.
            ends = (demand.source, demand.destination)
            if any(
                state.transponders.get((end, demand.rate_bps), 0) < 1
                for end in ends
            ):
                if demand.connection_id not in frozen:
                    frozen.append(demand.connection_id)
                continue
            try:
                routes = snapshot.graph.k_shortest_paths(
                    demand.source,
                    demand.destination,
                    k_paths,
                    weight=weight_fn,
                    excluded_links=failed,
                )
            except GriphonError:
                continue
            best: Optional[Tuple[float, Tuple, Tuple, Tuple, Tuple]] = None
            for route in routes:
                path = tuple(route)
                try:
                    segments, regen_sites = snapshot.segment_route(
                        path, demand.rate_bps
                    )
                except GriphonError:
                    continue  # route exceeds optical reach at this rate
                # Regen headroom at any *new* site (current sites keep
                # their regens through the roll; the bridge needs its own).
                if any(
                    state.regens.get((site, demand.rate_bps), 0) < 1
                    for site in regen_sites
                ):
                    continue
                channels = []
                for nodes in segments:
                    channel = state.free_channel(nodes)
                    if channel is None:
                        break
                    channels.append(channel)
                if len(channels) != len(segments):
                    continue
                cost = _route_cost(snapshot, path, channels, channel_weight)
                if best is None or cost < best[0]:
                    best = (cost, path, tuple(channels), segments, regen_sites)
            if best is None:
                continue
            cost_after, path, channels, segments, regen_sites = best
            if cost_after >= current_cost - min_gain:
                continue
            new_slots = _slots_of(segments, channels)
            old_slots = current.slots
            depends = tuple(
                sorted(
                    j
                    for j, released in enumerate(released_by_move)
                    if released & set(new_slots)
                )
            )
            moves.append(
                MigrationMove(
                    index=len(moves),
                    connection_id=demand.connection_id,
                    rate_bps=demand.rate_bps,
                    old_path=current.path,
                    old_channels=current.channels,
                    new_path=path,
                    new_channels=channels,
                    cost_before=current_cost,
                    cost_after=cost_after,
                    depends_on=depends,
                )
            )
            released_by_move.append(set(old_slots) - set(new_slots))
            # Advance the working state past the completed roll.
            state.occupy(new_slots)
            state.release(old_slots)
            for site in regen_sites:
                key = (site, demand.rate_bps)
                state.regens[key] = state.regens.get(key, 0) - 1
            for site in current.regen_sites:
                key = (site, demand.rate_bps)
                state.regens[key] = state.regens.get(key, 0) + 1
            state.assignment[demand.connection_id] = Demand(
                connection_id=demand.connection_id,
                source=demand.source,
                destination=demand.destination,
                rate_bps=demand.rate_bps,
                path=path,
                channels=channels,
                segment_nodes=segments,
                regen_sites=regen_sites,
            )
            moved_this_pass = True
        if not moved_this_pass:
            break
        if max_moves is not None and len(moves) >= max_moves:
            break

    objective_after = sum(
        _route_cost(snapshot, d.path, d.channels, channel_weight)
        for d in state.assignment.values()
    )
    return MigrationPlan(
        moves=moves,
        objective_before=objective_before,
        objective_after=objective_after,
        wavelengths_before=wavelengths_before,
        wavelengths_after=snapshot.wavelengths_used(state.occupied),
        passes=passes,
        frozen_demands=frozen,
    )


def slo_link_penalties(
    controller,
    engine=None,
    penalty_per_db: float = 1.0,
    breach_penalty: float = 4.0,
) -> Dict[LinkKey, float]:
    """Per-link cost penalties from the SLO breach stream.

    Closes the PR 9 follow-up: remediation and global re-grooming now
    share one objective.  Gray-degraded links are penalized in
    proportion to their OSNR penalty; links the SLO engine is actively
    remediating around get a flat ``breach_penalty`` on top, so the
    planner steers migrations — and frees capacity — away from them.

    Args:
        controller: The :class:`~repro.core.controller.GriphonController`.
        engine: Optional :class:`~repro.slo.engine.SloRemediationEngine`;
            its :meth:`impacted_link_keys` feed the breach penalties.
        penalty_per_db: Cost per dB of OSNR penalty on a degraded link.
        breach_penalty: Flat extra cost on links under active remediation.
    """
    plant = controller.inventory.plant
    penalties: Dict[LinkKey, float] = {}
    for key in plant.degraded_links():
        penalties[key] = penalty_per_db * plant.dwdm_link(*key).osnr_penalty_db
    if engine is not None:
        for key in engine.impacted_link_keys():
            penalties[key] = penalties.get(key, 0.0) + breach_penalty
    return penalties
