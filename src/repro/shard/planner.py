"""Inter-region order decomposition: gateways and segments.

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
which is what makes their outcomes comparable segment for segment.  The
planner does not know which deployment it serves: confining a segment
to its unit's subgraph, when the unit's controller plans over a larger
graph, is the network's job (:class:`~repro.shard.network.ShardedNetwork`
derives each unit's exclusions from how it groups units onto
controllers).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import NoPathError
from repro.topo.graph import NetworkGraph
from repro.topo.hierarchy import EXPRESS, Hierarchy


class SegmentSpec(NamedTuple):
    """One segment of a decomposed order, addressed to one unit.

    Attributes:
        unit: Owning planning unit (a region name or ``"express"``).
        source: Segment source node (a PoP in the unit's graph).
        destination: Segment destination node.
    """

    unit: str
    source: str
    destination: str


def _bfs_hops(graph: NetworkGraph, start: str) -> Dict[str, int]:
    """Hop distance from ``start`` to every node it reaches in ``graph``.

    Neighbours are visited in name order, though distances do not
    depend on the order.
    """
    neighbors = graph.neighbors
    hops = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        next_hop = hops[node] + 1
        for neighbor in neighbors(node):
            if neighbor not in hops:
                hops[neighbor] = next_hop
                queue.append(neighbor)
    return hops


class ShardPlanner:
    """Decomposes orders over a :class:`Hierarchy` into unit segments."""

    def __init__(self, hierarchy: Hierarchy) -> None:
        self.hierarchy = hierarchy
        # Hop maps are computed lazily (one per gateway) and cached; the
        # hierarchy is immutable once built, so they never go stale.
        self._region_hops: Dict[Tuple[str, str], Dict[str, int]] = {}
        self._express_hops: Dict[str, Dict[str, int]] = {}

    # -- hop maps -------------------------------------------------------------

    def _hops_in_region(self, region: str, start: str) -> Dict[str, int]:
        key = (region, start)
        cached = self._region_hops.get(key)
        if cached is None:
            cached = _bfs_hops(self.hierarchy.region_graph(region), start)
            self._region_hops[key] = cached
        return cached

    def _hops_on_express(self, start: str) -> Dict[str, int]:
        cached = self._express_hops.get(start)
        if cached is None:
            cached = _bfs_hops(self.hierarchy.express_graph(), start)
            self._express_hops[start] = cached
        return cached

    # -- gateway choice -------------------------------------------------------

    def choose_gateways(
        self, pop_a: str, region_a: str, pop_b: str, region_b: str
    ) -> Tuple[str, str]:
        """The (gateway_a, gateway_b) pair minimizing total hop count.

        Deterministic: total BFS hops, ties broken by (gateway_a,
        gateway_b) name order.  Hop distance is symmetric on an
        undirected region graph, so each PoP's distance is read from its
        gateway's map: one map per gateway, not one per source PoP.

        Raises:
            NoPathError: when no gateway pair connects the two regions.
        """
        best: Optional[Tuple[int, str, str]] = None
        for gw_a in self.hierarchy.regions[region_a].gateways:
            near = self._hops_in_region(region_a, gw_a).get(pop_a)
            if near is None:
                continue
            express = self._hops_on_express(gw_a)
            for gw_b in self.hierarchy.regions[region_b].gateways:
                far = self._hops_in_region(region_b, gw_b).get(pop_b)
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

    def decompose(self, pop_a: str, pop_b: str) -> List[SegmentSpec]:
        """Split ``pop_a -> pop_b`` into per-unit segments.

        An intra-region pair yields a single segment in its region's
        unit.  A cross-region pair yields up to three (region A,
        express, region B), with degenerate region segments — the PoP
        already being the chosen gateway — skipped.

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
            return [SegmentSpec(region_a, pop_a, pop_b)]
        gw_a, gw_b = self.choose_gateways(pop_a, region_a, pop_b, region_b)
        segments: List[SegmentSpec] = []
        if pop_a != gw_a:
            segments.append(SegmentSpec(region_a, pop_a, gw_a))
        segments.append(SegmentSpec(EXPRESS, gw_a, gw_b))
        if gw_b != pop_b:
            segments.append(SegmentSpec(region_b, gw_b, pop_b))
        return segments
