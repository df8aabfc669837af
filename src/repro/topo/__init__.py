"""Network topologies: the generic graph model plus concrete builders.

* :mod:`repro.topo.graph` — nodes, links, SRLGs, and path search.
* :mod:`repro.topo.testbed` — the paper's Fig. 4 laboratory testbed.
* :mod:`repro.topo.backbone` — a synthetic US inter-city backbone used for
  the scaling/planning experiments that the 4-node testbed is too small for.
* :mod:`repro.topo.builders` — premises-attach and equipment-install
  helpers shared by the benchmarks and the sweep engine's factories.
* :mod:`repro.topo.hierarchy` — the 3-tier continental builder
  (per-region meshes, gateway PoPs, express links) behind
  :mod:`repro.shard`.
"""

from repro.topo.builders import attach_premises, install_pop_equipment
from repro.topo.graph import Link, NetworkGraph, Node
from repro.topo.hierarchy import (
    EXPRESS,
    Hierarchy,
    RegionInfo,
    build_hierarchy,
    build_region_graph,
)
from repro.topo.testbed import (
    TESTBED_PREMISES,
    TESTBED_ROADMS,
    build_testbed_graph,
)
from repro.topo.backbone import BACKBONE_CITIES, build_backbone_graph

__all__ = [
    "attach_premises",
    "install_pop_equipment",
    "Link",
    "NetworkGraph",
    "Node",
    "TESTBED_PREMISES",
    "TESTBED_ROADMS",
    "build_testbed_graph",
    "BACKBONE_CITIES",
    "build_backbone_graph",
    "EXPRESS",
    "Hierarchy",
    "RegionInfo",
    "build_hierarchy",
    "build_region_graph",
]
