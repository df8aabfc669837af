"""Inter-region order decomposition: gateways, segments, exclusions.

A cross-region order ``premises_a -> premises_b`` cannot be planned by
any single shard — region shards only see their own mesh and the
express shard only sees gateways.  The :class:`ShardPlanner` decomposes
it into at most three stitched segments:

1. region A: ``pop_a -> gateway_a`` (skipped when ``pop_a`` *is* the
   chosen gateway);
2. express: ``gateway_a -> gateway_b``;
3. region B: ``gateway_b -> pop_b`` (skipped symmetrically).

The gateway pair is chosen deterministically: minimize total BFS hop
count (region hops to the gateway + express hops between gateways +
region hops from the far gateway), ties broken by gateway name.  Both
the sharded and the monolithic deployment run this same decomposition,
which is what makes their outcomes comparable segment for segment.

For the monolithic deployment — one controller over the full 3-tier
graph — the planner also derives per-segment *exclusions* that confine
each segment's candidate routes to exactly the subgraph the owning
shard would see: intra-region segments exclude every node outside the
region, and express segments exclude every non-gateway node plus any
intra-region gateway-to-gateway links.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import NoPathError
from repro.topo.graph import NetworkGraph
from repro.topo.hierarchy import EXPRESS, Hierarchy


class SegmentSpec:
    """One segment of a decomposed order, addressed to one unit.

    Attributes:
        unit: Owning planning unit (a region name or ``"express"``).
        source: Segment source node (a PoP in the unit's graph).
        destination: Segment destination node.
        excluded_nodes: Monolithic-mode exclusions confining candidate
            routes to the unit's subgraph (empty for sharded units,
            whose graphs already *are* the subgraph).
        excluded_links: Monolithic-mode link exclusions (intra-region
            gateway-gateway links, for express segments).
    """

    __slots__ = ("unit", "source", "destination", "excluded_nodes",
                 "excluded_links")

    def __init__(
        self,
        unit: str,
        source: str,
        destination: str,
        excluded_nodes: Tuple[str, ...] = (),
        excluded_links: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.unit = unit
        self.source = source
        self.destination = destination
        self.excluded_nodes = excluded_nodes
        self.excluded_links = excluded_links

    def __repr__(self) -> str:
        return f"SegmentSpec({self.unit}: {self.source}->{self.destination})"


def _bfs_hops(
    graph: NetworkGraph, start: str, within: Optional[AbstractSet[str]] = None
) -> Dict[str, int]:
    """Hop distance from ``start`` to every node it reaches through
    ``within`` (every node when ``None``).

    Distances do not depend on the order neighbours are visited in, so
    the walk reads the graph's unsorted adjacency.
    """
    adjacent = graph.adjacent
    hops = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        next_hop = hops[node] + 1
        for neighbor in adjacent(node):
            if neighbor not in hops and (within is None or neighbor in within):
                hops[neighbor] = next_hop
                queue.append(neighbor)
    return hops


class ShardPlanner:
    """Decomposes orders over a :class:`Hierarchy` into unit segments."""

    def __init__(self, hierarchy: Hierarchy) -> None:
        self.hierarchy = hierarchy
        self._express_graph = hierarchy.express_graph()
        # Hop maps are computed lazily (per region, per source node) and
        # cached; the hierarchy is immutable once built, so they never go
        # stale.
        self._region_hops: Dict[Tuple[str, str], Dict[str, int]] = {}
        self._express_hops: Dict[str, Dict[str, int]] = {}
        # Each region's nodes: a BFS over the full graph kept inside them
        # crosses exactly the region graph's links.
        self._members: Dict[str, FrozenSet[str]] = {}
        # Monolithic-mode exclusion sets, derived once.
        self._foreign_nodes: Dict[str, Tuple[str, ...]] = {}
        all_members: List[str] = []
        for info in hierarchy.regions.values():
            all_members.extend(info.pops)
            all_members.extend(info.premises)
        for name, info in hierarchy.regions.items():
            members = self._members[name] = frozenset(info.pops + info.premises)
            self._foreign_nodes[name] = tuple(
                sorted(node for node in all_members if node not in members)
            )
        gateways = set(hierarchy.gateways())
        self._non_gateway_nodes = tuple(
            sorted(node for node in all_members if node not in gateways)
        )
        self._gateway_internal_links = tuple(
            sorted(hierarchy.intra_region_gateway_links())
        )

    # -- hop maps -------------------------------------------------------------

    def _hops_in_region(self, region: str, start: str) -> Dict[str, int]:
        key = (region, start)
        cached = self._region_hops.get(key)
        if cached is None:
            cached = _bfs_hops(self.hierarchy.graph, start, self._members[region])
            self._region_hops[key] = cached
        return cached

    def _hops_on_express(self, start: str) -> Dict[str, int]:
        cached = self._express_hops.get(start)
        if cached is None:
            cached = _bfs_hops(self._express_graph, start)
            self._express_hops[start] = cached
        return cached

    # -- gateway choice -------------------------------------------------------

    def choose_gateways(
        self, pop_a: str, region_a: str, pop_b: str, region_b: str
    ) -> Tuple[str, str]:
        """The (gateway_a, gateway_b) pair minimizing total hop count.

        Deterministic: total BFS hops, ties broken by (gateway_a,
        gateway_b) name order.

        Raises:
            NoPathError: when no gateway pair connects the two regions.
        """
        hops_a = self._hops_in_region(region_a, pop_a)
        hops_b = self._hops_in_region(region_b, pop_b)
        best: Optional[Tuple[int, str, str]] = None
        for gw_a in self.hierarchy.regions[region_a].gateways:
            near = hops_a.get(gw_a)
            if near is None:
                continue
            express = self._hops_on_express(gw_a)
            for gw_b in self.hierarchy.regions[region_b].gateways:
                far = hops_b.get(gw_b)
                middle = express.get(gw_b)
                if far is None or middle is None:
                    continue
                candidate = (near + middle + far, gw_a, gw_b)
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            raise NoPathError(
                f"no gateway pair connects {region_a} and {region_b}"
            )
        return best[1], best[2]

    # -- decomposition --------------------------------------------------------

    def decompose(
        self, pop_a: str, pop_b: str, monolithic: bool = False
    ) -> List[SegmentSpec]:
        """Split ``pop_a -> pop_b`` into per-unit segments.

        An intra-region pair yields a single segment in its region's
        unit.  A cross-region pair yields up to three (region A,
        express, region B), with degenerate region segments — the PoP
        already being the chosen gateway — skipped.

        With ``monolithic=True`` each segment carries the node/link
        exclusions that confine a full-graph planner to the owning
        shard's subgraph, so both deployments enumerate identical
        candidate routes.

        Raises:
            NoPathError: when either PoP is outside every region or no
                gateway pair connects the two regions.
        """
        region_a = self.hierarchy.region_of(pop_a)
        region_b = self.hierarchy.region_of(pop_b)
        if region_a is None or region_b is None:
            unknown = pop_a if region_a is None else pop_b
            raise NoPathError(f"{unknown!r} is not in any region")
        if region_a == region_b:
            return [self._region_segment(region_a, pop_a, pop_b, monolithic)]
        gw_a, gw_b = self.choose_gateways(pop_a, region_a, pop_b, region_b)
        segments: List[SegmentSpec] = []
        if pop_a != gw_a:
            segments.append(
                self._region_segment(region_a, pop_a, gw_a, monolithic)
            )
        segments.append(self._express_segment(gw_a, gw_b, monolithic))
        if gw_b != pop_b:
            segments.append(
                self._region_segment(region_b, gw_b, pop_b, monolithic)
            )
        return segments

    def _region_segment(
        self, region: str, source: str, destination: str, monolithic: bool
    ) -> SegmentSpec:
        excluded = self._foreign_nodes[region] if monolithic else ()
        return SegmentSpec(region, source, destination, excluded_nodes=excluded)

    def _express_segment(
        self, gw_a: str, gw_b: str, monolithic: bool
    ) -> SegmentSpec:
        if not monolithic:
            return SegmentSpec(EXPRESS, gw_a, gw_b)
        return SegmentSpec(
            EXPRESS,
            gw_a,
            gw_b,
            excluded_nodes=self._non_gateway_nodes,
            excluded_links=self._gateway_internal_links,
        )
