"""Sharded continental-scale control: per-region planning units.

``repro.shard`` splits one continental controller into per-region
shards over a 3-tier hierarchical topology
(:mod:`repro.topo.hierarchy`):

* :mod:`repro.shard.planner` — gateway selection and the decomposition
  of a cross-region order into per-unit segments;
* :mod:`repro.shard.network` — :class:`ShardedNetwork`, per-region
  controllers stitched at gateways with saga-unwound cross-region
  orders, plus the equivalent monolithic deployment for differential
  testing;
* :mod:`repro.shard.intake` — :class:`ShardIntake`, the placement-round
  queue in front of a :class:`ShardedNetwork`;
* :mod:`repro.shard.workers` — :class:`ShardWorkerPool`, long-lived
  plan-RPC worker processes (one per :class:`UnitRecipe`: a unit's
  graph, handed over by the parent) holding a delta-synced plant
  mirror: the ``backend="pool"`` planning layer of
  :class:`ShardedNetwork`.
"""

from repro.shard.intake import ShardIntake
from repro.shard.network import ShardedNetwork, build_sharded_network
from repro.shard.planner import SegmentSpec, ShardPlanner
from repro.shard.workers import ShardWorkerPool, UnitRecipe

__all__ = [
    "SegmentSpec",
    "ShardPlanner",
    "ShardedNetwork",
    "ShardIntake",
    "build_sharded_network",
    "ShardWorkerPool",
    "UnitRecipe",
]
