"""The shard planning unit: one graph + inventory + RWA engine.

A :class:`ShardUnit` is the self-contained planning state of one
controller shard — exactly the slice of :class:`GriphonController`
state that RWA needs: the topology, the fiber plant with its wavelength
occupancy, the equipment pools and the :class:`RwaEngine`.  The
controller itself now builds one of these and aliases
``controller.rwa`` to the unit's engine, so the monolithic and the
sharded deployments plan through the same object.

Built standalone (no tracer, no simulator), a unit is **picklable**
plain data and rebuilds deterministically from ``(seed, region params)``
via the builders below — which is how a :mod:`repro.shard.workers`
process gets its own copy: it is sent the recipe, never the unit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.inventory import InventoryDatabase
from repro.core.rwa import BatchPlanItem, PlanRequest, RwaEngine, RwaPlan
from repro.optical.impairments import ReachModel
from repro.optical.wavelength import WavelengthGrid
from repro.sim.randomness import RandomStreams
from repro.topo.graph import NetworkGraph
from repro.topo.hierarchy import (
    EXPRESS,
    build_express_graph,
    build_region_graph,
)
from repro.units import GBPS


class ShardUnit:
    """One shard's planning state: graph, inventory, RWA engine.

    Args:
        name: The unit's label (a region name, ``"express"``, or — for
            the monolithic controller — ``"controller"``).
        inventory: The inventory the unit owns.  Every resource in it
            belongs to this unit and no other; cross-unit stitching
            happens at gateway PoPs, which appear in both a region unit
            (metro side) and the express unit (long-haul side) but with
            disjoint equipment.
        reach / k_paths / assignment / streams / tracer: Forwarded to
            :class:`RwaEngine`.
    """

    def __init__(
        self,
        name: str,
        inventory: InventoryDatabase,
        reach: Optional[ReachModel] = None,
        k_paths: int = 4,
        assignment: str = "first-fit",
        streams: Optional[RandomStreams] = None,
        tracer=None,
    ) -> None:
        self.name = name
        self.inventory = inventory
        self.rwa = RwaEngine(
            inventory,
            reach=reach,
            k_paths=k_paths,
            assignment=assignment,
            streams=streams,
            tracer=tracer,
        )

    @property
    def graph(self) -> NetworkGraph:
        """The unit's topology."""
        return self.inventory.graph

    def plan(self, source: str, destination: str, rate_bps: float) -> RwaPlan:
        """Plan one request against this unit's inventory."""
        return self.rwa.plan(source, destination, rate_bps)

    def plan_batch(
        self,
        requests: Sequence[PlanRequest],
        round_ctx=None,
    ) -> List[BatchPlanItem]:
        """Batch-plan against this unit (see :meth:`RwaEngine.plan_batch`)."""
        return self.rwa.plan_batch(requests, round_ctx=round_ctx)

    def route_cache_stats(self) -> dict:
        """All-zero counters of the route cache that no longer exists.

        Kept only because the benchmark driver (``bench/child.py``)
        reads it on every run; the ROADMAP gate item — the PR allowed
        to edit ``bench/`` — removes it.
        """
        return {
            "size": 0,
            "capacity": 0,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"ShardUnit({self.name!r}, nodes={len(self.graph.nodes)}, "
            f"links={len(self.graph.links)})"
        )


# -- equipment + unit builders ------------------------------------------------


def _install_planning_equipment(
    inventory: InventoryDatabase,
    transponders_10g: int,
    regens_10g: int,
) -> None:
    """Install the wavelength-layer complement planning depends on."""
    for node in inventory.graph.nodes:
        if node.kind != "roadm":
            continue
        inventory.install_roadm(node.name, add_drop_ports=16)
        inventory.install_transponders(
            node.name, 10 * GBPS, transponders_10g
        )
        inventory.install_regens(node.name, 10 * GBPS, regens_10g)


def build_region_unit(
    seed: int,
    region: str,
    pops_per_region: int,
    region_plane_km: float = 1200.0,
    grid_size: int = 80,
    transponders_10g: int = 6,
    regens_10g: int = 4,
    k_paths: int = 4,
    alpha: float = 0.4,
    beta: float = 0.35,
    with_premises: bool = False,
    premises_prefix: str = "DC-",
) -> ShardUnit:
    """Build one region's planning unit, standalone and picklable.

    Deterministic in ``(seed, region, params)`` — a shard worker calling
    this reproduces exactly the region slice the parent derived from
    :func:`repro.topo.hierarchy.build_hierarchy` with the same seed.
    ``with_premises`` must match the hierarchy's so a worker mirroring a
    premises-bearing deployment sees the identical graph (premises are
    leaves, so candidate PoP routes are unaffected either way).
    """
    graph = build_region_graph(
        seed,
        region,
        pops_per_region,
        region_plane_km=region_plane_km,
        alpha=alpha,
        beta=beta,
        with_premises=with_premises,
        premises_prefix=premises_prefix,
    )
    inventory = InventoryDatabase(graph, WavelengthGrid(grid_size))
    _install_planning_equipment(inventory, transponders_10g, regens_10g)
    return ShardUnit(region, inventory, k_paths=k_paths)


def build_express_unit(
    regions: int,
    gateways_per_region: int,
    pops_per_region: int,
    express_length_km: float = 600.0,
    grid_size: int = 80,
    transponders_10g: int = 6,
    regens_10g: int = 4,
    k_paths: int = 4,
) -> ShardUnit:
    """Build the express tier's planning unit, standalone and picklable.

    The express unit's transponders/regens at a gateway are *separate
    hardware* from the region unit's at the same PoP: each unit owns
    its own inventory, so a gateway's metro-facing and express-facing
    equipment can never be double-claimed across units.
    """
    graph = build_express_graph(
        regions,
        gateways_per_region,
        pops_per_region,
        express_length_km=express_length_km,
    )
    inventory = InventoryDatabase(graph, WavelengthGrid(grid_size))
    _install_planning_equipment(inventory, transponders_10g, regens_10g)
    return ShardUnit(EXPRESS, inventory, k_paths=k_paths)
