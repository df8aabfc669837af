"""Three-tier hierarchical topologies: regions, gateways, express links.

A continental-scale network is not one flat mesh.  Following the
hierarchical WDM DCN blueprint, the builder here composes three tiers:

* **tier 3** — per-region PoP meshes, each an independent Waxman
  backbone generated from its own spawned random-stream family
  (``spawn("shard:<region>")``), so a region's graph is reproducible
  *without* building any other region;
* **tier 2** — gateway PoPs: the first :data:`GATEWAYS_PER_REGION` PoPs of
  every region, where intra-region traffic hands off to the express
  layer;
* **tier 1** — the express backbone: long-haul links joining gateways
  of different regions in two edge-disjoint rings, so no single express
  cut partitions the region graph.

The resulting :class:`Hierarchy` keeps the per-shard planning
subgraphs it was assembled from, for :mod:`repro.shard`: one region
graph per shard plus one express graph, with every link owned by
exactly one slice.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.sim.randomness import RandomStreams
from repro.topo.generator import _mesh_graph, _waxman_links
from repro.topo.graph import Link, NetworkGraph, Node

#: The reserved unit name for the express (tier-1) planning slice.
EXPRESS = "express"
#: Premises ``f"{PREMISES_PREFIX}{pop}"`` hangs off PoP ``pop``.
PREMISES_PREFIX = "DC-"
#: Gateways per region; gateway 1 carries the second, edge-disjoint express ring.
GATEWAYS_PER_REGION = 2


def region_name(index: int) -> str:
    """Canonical name of the ``index``-th region."""
    return f"R{index:02d}"


def shard_stream_key(region: str) -> str:
    """The ``RandomStreams.spawn`` key owning a region's randomness.

    Every per-region derivation (mesh generation today, per-shard
    workloads tomorrow) hangs off this one spawned family, which the
    seed-collision property tests cover explicitly.
    """
    return f"shard:{region}"


class RegionInfo(NamedTuple):
    """One region's membership: PoPs, gateways, attached premises."""

    name: str
    pops: Tuple[str, ...]
    gateways: Tuple[str, ...]
    premises: Tuple[str, ...] = ()


class Hierarchy:
    """A built three-tier topology plus its region/express structure.

    Its planning slices, one graph per region and one express graph,
    are built once; the express graph holds the region graphs' own
    gateway nodes.  Every network built from the hierarchy plans on
    these same objects, so they are read-only once built.  The merged
    graph of all tiers, :attr:`graph`, is built from them the first
    time something reads it: only a monolithic controller plans on it.
    """

    def __init__(
        self,
        regions: "Dict[str, RegionInfo]",
        express: Tuple[Link, ...],
        region_graphs: Dict[str, NetworkGraph],
    ) -> None:
        self.regions = regions
        self.express_links = tuple((link.a, link.b) for link in express)
        self._region_graphs = region_graphs
        self._region_of: Dict[str, str] = {}
        for info in regions.values():
            for node in info.pops + info.premises:
                self._region_of[node] = info.name
        self._express_graph = NetworkGraph()
        for gateway in self.gateways():
            self._express_graph.add_node(self.node(gateway))
        for link in express:
            self._express_graph.add_link(link)

    @cached_property
    def graph(self) -> NetworkGraph:
        """The merged graph: every region slice in build order, then the
        express links, sharing their node and link objects."""
        graph = NetworkGraph()
        # The express gateways are region nodes: re-adding one is a no-op.
        for sub in (*self._region_graphs.values(), self._express_graph):
            for node in sub.nodes:
                graph.add_node(node)
            for link in sub.links:
                graph.add_link(link)
        return graph

    # -- structure queries ---------------------------------------------------

    @property
    def region_names(self) -> List[str]:
        """Region names in build order."""
        return list(self.regions)

    @property
    def pop_count(self) -> int:
        """Total PoPs across all regions (premises not counted)."""
        return sum(len(info.pops) for info in self.regions.values())

    def region_of(self, node: str) -> Optional[str]:
        """The region owning ``node`` (PoP or premises), or ``None``."""
        return self._region_of.get(node)

    def node(self, name: str) -> Node:
        """The node named ``name``, read from its region's slice.

        Raises:
            TopologyError: for a name no region holds.
        """
        region = self._region_of.get(name)
        if region is None:
            raise TopologyError(f"unknown node {name!r}")
        return self._region_graphs[region].node(name)

    def unit_names(self) -> List[str]:
        """Planning-slice names: every region, plus express when present."""
        names = list(self.regions)
        if self.express_links:
            names.append(EXPRESS)
        return names

    def gateways(self) -> List[str]:
        """Every gateway PoP, in region order."""
        result: List[str] = []
        for info in self.regions.values():
            result.extend(info.gateways)
        return result

    # -- planning-slice subgraphs --------------------------------------------

    def region_graph(self, name: str) -> NetworkGraph:
        """The subgraph owned by region ``name``: its PoPs, premises,
        and every link with both endpoints inside the region.

        Express links never appear here (their endpoints live in two
        different regions), so region slices and the express slice
        partition the link set exactly.  The graph is the hierarchy's
        own, not a copy: never change it.
        """
        return self._region_graphs[name]

    def express_graph(self) -> NetworkGraph:
        """The tier-1 subgraph: every gateway plus the express links.
        The hierarchy's own graph, like :meth:`region_graph`'s."""
        return self._express_graph


# -- per-tier builders (each reproducible in isolation) ----------------------


def build_region_graph(
    seed: int,
    region: str,
    pops_per_region: int,
    with_premises: bool = False,
) -> NetworkGraph:
    """Build one region's tier-3 mesh.

    The mesh derives entirely from ``spawn(shard_stream_key(region))``
    of the hierarchy seed, so no region's mesh depends on how many
    others the hierarchy generates, or in what order.  It is a Waxman
    mesh on a 1,200 km plane with alpha 0.4 and beta 0.35.  With
    ``with_premises`` each PoP gets a premises node on a 20 km access
    fiber of its own SRLG.
    """
    if pops_per_region < 3:
        raise ConfigurationError(
            f"pops_per_region must be >= 3, got {pops_per_region}"
        )
    streams = RandomStreams(seed).spawn(shard_stream_key(region))
    pops = [f"{region}-P{index:02d}" for index in range(pops_per_region)]
    graph = _mesh_graph(
        pops,
        _waxman_links(streams, pops_per_region, 1200.0, 0.4, 0.35),
        region,
    )
    if with_premises:
        for pop in pops:
            premises = f"{PREMISES_PREFIX}{pop}"
            graph.add_node(Node(premises, kind="premises", region=region))
            graph.add_link(
                Link(
                    premises,
                    pop,
                    length_km=20.0,
                    srlgs=frozenset({f"srlg:access:{premises}"}),
                )
            )
    return graph


def gateway_names(
    region: str, pops_per_region: int, gateways_per_region: int
) -> Tuple[str, ...]:
    """The gateway PoPs of a region: its first N PoPs, by index.

    Purely a naming convention — derivable without generating the
    region mesh.
    """
    if not (1 <= gateways_per_region <= pops_per_region):
        raise ConfigurationError(
            f"gateways_per_region must be in [1, {pops_per_region}], "
            f"got {gateways_per_region}"
        )
    return tuple(
        f"{region}-P{index:02d}" for index in range(gateways_per_region)
    )


def express_link_specs(
    region_count: int, gateways_per_region: int, pops_per_region: int
) -> List[Tuple[str, str]]:
    """Deterministic tier-1 express pairs between region gateways.

    Two edge-disjoint rings: the primary ring joins gateway 0 of
    adjacent regions; the secondary ring (when a second gateway exists)
    joins gateway 1 of regions two apart — giving every region at least
    two disjoint express attachments for ``region_count >= 3``, and a
    gateway-disjoint pair of links for ``region_count == 2``.
    """
    if region_count < 2:
        return []
    names = [region_name(index) for index in range(region_count)]
    gateways = {
        name: gateway_names(name, pops_per_region, gateways_per_region)
        for name in names
    }
    pairs: List[Tuple[str, str]] = []
    seen = set()

    def add(a: str, b: str) -> None:
        key = (a, b) if a <= b else (b, a)
        if a != b and key not in seen:
            seen.add(key)
            pairs.append((a, b))

    for index in range(region_count):
        peer = (index + 1) % region_count
        if region_count == 2 and index == 1:
            break
        add(gateways[names[index]][0], gateways[names[peer]][0])
    if gateways_per_region >= 2:
        offset = 2 if region_count > 3 else 1
        for index in range(region_count):
            peer = (index + offset) % region_count
            if region_count == 2 and index == 1:
                break
            add(gateways[names[index]][1], gateways[names[peer]][1])
    return pairs


def build_hierarchy(
    seed: int,
    regions: int = 4,
    pops_per_region: int = 8,
    with_premises: bool = False,
) -> Hierarchy:
    """Build the full three-tier topology.

    Each region has :data:`GATEWAYS_PER_REGION` gateways; every express
    link is 600 km long.

    Args:
        seed: Master seed; every region mesh spawns its own family.
        regions: Number of regions (>= 1; 1 degenerates to a flat mesh
            with no express tier — the monolithic baseline).
        pops_per_region: Tier-3 mesh size per region (>= 3).
        with_premises: Attach one customer premises per PoP.

    Returns:
        The assembled :class:`Hierarchy`.
    """
    if regions < 1:
        raise ConfigurationError(f"regions must be >= 1, got {regions}")
    infos: Dict[str, RegionInfo] = {}
    region_graphs: Dict[str, NetworkGraph] = {}
    for index in range(regions):
        name = region_name(index)
        sub = build_region_graph(
            seed, name, pops_per_region, with_premises=with_premises
        )
        pops: List[str] = []
        premises: List[str] = []
        for node in sub.nodes:
            (premises if node.kind == "premises" else pops).append(node.name)
        region_graphs[name] = sub
        infos[name] = RegionInfo(
            name,
            tuple(pops),
            gateway_names(name, pops_per_region, GATEWAYS_PER_REGION),
            tuple(premises),
        )
    express = tuple(
        Link(a, b, length_km=600.0, srlgs=frozenset({f"srlg:express:{a}={b}"}))
        for a, b in express_link_specs(
            regions, GATEWAYS_PER_REGION, pops_per_region
        )
    )
    return Hierarchy(infos, express, region_graphs)
