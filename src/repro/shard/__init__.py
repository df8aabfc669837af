"""Sharded continental-scale control: per-region planning units.

``repro.shard`` splits one continental controller into per-region
shards over a 3-tier hierarchical topology
(:mod:`repro.topo.hierarchy`):

* :mod:`repro.shard.unit` — :class:`ShardUnit`, the picklable
  graph + inventory + RWA-engine bundle one shard owns (the
  monolithic controller now embeds one too);
* :mod:`repro.shard.planner` — gateway selection and the decomposition
  of a cross-region order into per-unit segments;
* :mod:`repro.shard.network` — :class:`ShardedNetwork`, per-region
  controllers stitched at gateways with saga-unwound cross-region
  orders, plus the equivalent monolithic deployment for differential
  testing;
* :mod:`repro.shard.workers` — :class:`ShardWorkerPool`, long-lived
  plan-RPC worker processes (one per :class:`UnitRecipe`) holding a
  delta-synced plant mirror: the ``backend="pool"`` planning layer of
  :class:`ShardedNetwork`.

``ShardedNetwork`` (and everything in ``network``) is exported lazily:
``unit`` is imported *by* ``repro.core.controller``, so eagerly
importing the network module here (which needs the facade, which needs
the controller) would be a cycle.
"""

from repro.shard.unit import (
    ShardUnit,
    build_express_unit,
    build_region_unit,
)

__all__ = [
    "ShardUnit",
    "build_express_unit",
    "build_region_unit",
    "SegmentSpec",
    "ShardPlanner",
    "ShardedNetwork",
    "ShardIntake",
    "build_sharded_network",
    "ShardWorkerPool",
    "UnitRecipe",
]

_LAZY = {
    "SegmentSpec": "repro.shard.planner",
    "ShardPlanner": "repro.shard.planner",
    "ShardedNetwork": "repro.shard.network",
    "ShardIntake": "repro.shard.intake",
    "build_sharded_network": "repro.shard.network",
    "ShardWorkerPool": "repro.shard.workers",
    "UnitRecipe": "repro.shard.workers",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.shard' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
