"""Three-tier hierarchical topologies: regions, gateways, express links.

A continental-scale network is not one flat mesh.  Following the
hierarchical WDM DCN blueprint, the builder here composes three tiers:

* **tier 3** — per-region PoP meshes, each an independent Waxman
  backbone generated from its own spawned random-stream family
  (``spawn("shard:<region>")``), so a region's graph is reproducible
  *without* building any other region;
* **tier 2** — gateway PoPs: the first ``gateways_per_region`` PoPs of
  every region, where intra-region traffic hands off to the express
  layer;
* **tier 1** — the express backbone: long-haul links joining gateways
  of different regions in two edge-disjoint rings, so no single express
  cut partitions the region graph.

The resulting :class:`Hierarchy` knows how to slice itself into the
per-shard planning subgraphs used by :mod:`repro.shard`: one region
graph per shard plus one express graph, with every link owned by
exactly one slice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.sim.randomness import RandomStreams
from repro.topo.generator import generate_backbone
from repro.topo.graph import Link, NetworkGraph, Node

#: The reserved unit name for the express (tier-1) planning slice.
EXPRESS = "express"


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


class RegionInfo:
    """One region's membership: PoPs, gateways, attached premises."""

    __slots__ = ("name", "pops", "gateways", "premises")

    def __init__(
        self,
        name: str,
        pops: Tuple[str, ...],
        gateways: Tuple[str, ...],
        premises: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.pops = pops
        self.gateways = gateways
        self.premises = premises

    def __repr__(self) -> str:
        return (
            f"RegionInfo({self.name}, pops={len(self.pops)}, "
            f"gateways={list(self.gateways)})"
        )


class Hierarchy:
    """A built three-tier topology plus its region/express structure."""

    def __init__(
        self,
        graph: NetworkGraph,
        regions: "Dict[str, RegionInfo]",
        express_links: Tuple[Tuple[str, str], ...],
        seed: int,
        params: dict,
    ) -> None:
        self.graph = graph
        self.regions = regions
        self.express_links = express_links
        self.seed = seed
        self.params = dict(params)
        self._region_of: Dict[str, str] = {}
        for info in regions.values():
            for node in info.pops + info.premises:
                self._region_of[node] = info.name

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
        partition the link set exactly.
        """
        info = self.regions[name]
        sub = NetworkGraph()
        members = set(info.pops) | set(info.premises)
        for node_name in info.pops + info.premises:
            sub.add_node(self.graph.node(node_name))
        for link in self.graph.links:
            if link.a in members and link.b in members:
                sub.add_link(link)
        return sub

    def express_graph(self) -> NetworkGraph:
        """The tier-1 subgraph: every gateway plus the express links."""
        sub = NetworkGraph()
        for gateway in self.gateways():
            sub.add_node(self.graph.node(gateway))
        for a, b in self.express_links:
            sub.add_link(self.graph.link_between(a, b))
        return sub

    def intra_region_gateway_links(self) -> List[Tuple[str, str]]:
        """Link keys joining two gateways of the *same* region.

        A monolithic deployment planning an express segment on the full
        graph must exclude these, so its candidate routes match what the
        sharded express slice (where such links do not exist) computes.
        """
        keys: List[Tuple[str, str]] = []
        for info in self.regions.values():
            gateways = list(info.gateways)
            for i, a in enumerate(gateways):
                for b in gateways[i + 1 :]:
                    try:
                        keys.append(self.graph.link_between(a, b).key)
                    except TopologyError:
                        continue  # these two gateways are not adjacent
        return keys


# -- per-tier builders (each reproducible in isolation) ----------------------


def build_region_graph(
    seed: int,
    region: str,
    pops_per_region: int,
    region_plane_km: float = 1200.0,
    alpha: float = 0.4,
    beta: float = 0.35,
    with_premises: bool = False,
    premises_prefix: str = "DC-",
    premises_length_km: float = 20.0,
) -> NetworkGraph:
    """Build one region's tier-3 mesh.

    The mesh derives entirely from ``spawn(shard_stream_key(region))``
    of the hierarchy seed, so no region's mesh depends on how many
    others the hierarchy generates, or in what order.
    """
    if pops_per_region < 3:
        raise ConfigurationError(
            f"pops_per_region must be >= 3, got {pops_per_region}"
        )
    streams = RandomStreams(seed).spawn(shard_stream_key(region))
    mesh = generate_backbone(
        streams,
        node_count=pops_per_region,
        plane_km=region_plane_km,
        alpha=alpha,
        beta=beta,
    )

    def rename(node: str) -> str:
        return f"{region}-{node}"

    graph = NetworkGraph()
    for node in mesh.nodes:
        graph.add_node(Node(rename(node.name), kind="roadm", region=region))
    for link in mesh.links:
        a, b = rename(link.a), rename(link.b)
        graph.add_link(
            Link(a, b, length_km=link.length_km,
                 srlgs=frozenset({f"srlg:{a}={b}"}))
        )
    if with_premises:
        for node in mesh.nodes:
            pop = rename(node.name)
            premises = f"{premises_prefix}{pop}"
            graph.add_node(Node(premises, kind="premises", region=region))
            graph.add_link(
                Link(
                    premises,
                    pop,
                    length_km=premises_length_km,
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
    gateways_per_region: int = 2,
    region_plane_km: float = 1200.0,
    express_length_km: float = 600.0,
    alpha: float = 0.4,
    beta: float = 0.35,
    with_premises: bool = False,
    premises_prefix: str = "DC-",
) -> Hierarchy:
    """Build the full three-tier topology.

    Args:
        seed: Master seed; every region mesh spawns its own family.
        regions: Number of regions (>= 1; 1 degenerates to a flat mesh
            with no express tier — the monolithic baseline).
        pops_per_region: Tier-3 mesh size per region (>= 3).
        gateways_per_region: Gateways per region (>= 1).
        region_plane_km: Side of each region's Waxman plane.
        express_length_km: Length of every express link.
        alpha / beta: Waxman shape parameters for the region meshes.
        with_premises: Attach one customer premises per PoP.
        premises_prefix: Premises naming prefix.

    Returns:
        The assembled :class:`Hierarchy`.
    """
    if regions < 1:
        raise ConfigurationError(f"regions must be >= 1, got {regions}")
    graph = NetworkGraph()
    infos: Dict[str, RegionInfo] = {}
    for index in range(regions):
        name = region_name(index)
        sub = build_region_graph(
            seed,
            name,
            pops_per_region,
            region_plane_km=region_plane_km,
            alpha=alpha,
            beta=beta,
            with_premises=with_premises,
            premises_prefix=premises_prefix,
        )
        pops: List[str] = []
        premises: List[str] = []
        for node in sub.nodes:
            graph.add_node(node)
            (premises if node.kind == "premises" else pops).append(node.name)
        for link in sub.links:
            graph.add_link(link)
        infos[name] = RegionInfo(
            name,
            tuple(pops),
            gateway_names(name, pops_per_region, gateways_per_region),
            tuple(premises),
        )
    express_pairs = express_link_specs(
        regions, gateways_per_region, pops_per_region
    )
    for a, b in express_pairs:
        graph.add_link(
            Link(
                a,
                b,
                length_km=express_length_km,
                srlgs=frozenset({f"srlg:express:{a}={b}"}),
            )
        )
    return Hierarchy(
        graph,
        infos,
        tuple(express_pairs),
        seed,
        params=dict(
            regions=regions,
            pops_per_region=pops_per_region,
            gateways_per_region=gateways_per_region,
            region_plane_km=region_plane_km,
            express_length_km=express_length_km,
            alpha=alpha,
            beta=beta,
            with_premises=with_premises,
            premises_prefix=premises_prefix,
        ),
    )
