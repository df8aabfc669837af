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
  plan-RPC worker processes (one per usable core, each hosting several
  :class:`UnitRecipe` units: a unit's graph, handed over by the parent)
  holding plant mirrors that each round's message syncs: the
  ``backend="pool"`` planning layer of :class:`ShardedNetwork`.
"""
