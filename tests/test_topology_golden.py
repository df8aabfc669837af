"""Golden of every generated topology the product and the benchmark build.

``tests/golden/topology.json`` pins, per case, one sha256 over a graph:
each node's ``(name, kind, region)`` and each link's ``(a, b,
length_km, sorted srlgs)``, in insertion order.  Insertion order is in
the digest on purpose: path search breaks ties by name, but fingerprints,
audits and the sharded planner's controller groups walk nodes and links
in the order they were added.

The cases:

* ``generate_backbone`` for seeds 0-39 at 3, 5, 12, 32, 64, 101 and 130
  nodes.  From 101 nodes on, name order (``P100`` < ``P11``) differs
  from index order, and the connectivity patch walks names.
* ``build_hierarchy`` at the benchmark's shape (topology seed 2026, 16
  regions of 32 PoPs with premises) and at ``seed=5``, 4 regions of 6
  PoPs, with and without premises: the whole graph and every
  ``region_graph`` and ``express_graph`` slice.
* ``build_waxman_network`` with the ``mono-churn`` workload's arguments.

A change to how a topology is built must leave every digest as it is.
After an intentional change to a topology, regenerate and say why in
the change's notes::

    PYTHONPATH=src python -c \
        "from tests.test_topology_golden import regenerate; regenerate()"
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.sim.randomness import RandomStreams
from repro.sweep.studies import build_waxman_network
from repro.topo.generator import generate_backbone
from repro.topo.hierarchy import build_hierarchy

GOLDEN_PATH = Path(__file__).parent / "golden" / "topology.json"

BACKBONE_SEEDS = range(40)
BACKBONE_SIZES = [3, 5, 12, 32, 64, 101, 130]
#: name -> ``build_hierarchy`` keyword arguments.
HIERARCHIES = {
    "bench": dict(seed=2026, regions=16, pops_per_region=32, with_premises=True),
    "small": dict(seed=5, regions=4, pops_per_region=6),
    "small-premises": dict(
        seed=5, regions=4, pops_per_region=6, with_premises=True
    ),
}
#: ``build_waxman_network`` arguments of the ``mono-churn`` workload.
MONO_CHURN = dict(
    seed=2026, node_count=64, with_otn=True,
    transponders_10g=48, regens_10g=12, add_drop_ports=64,
    fxc_ports=128, nte_interfaces=32, premises_fxc_ports=64,
    otn_client_ports=128,
)


def digest(graph):
    """sha256 over the graph's nodes and links, in insertion order."""
    h = hashlib.sha256()
    for node in graph.nodes:
        h.update(repr(("node", node.name, node.kind, node.region)).encode())
    for link in graph.links:
        h.update(
            repr(
                ("link", link.a, link.b, link.length_km, sorted(link.srlgs))
            ).encode()
        )
    return h.hexdigest()


def backbone_key(seed, nodes):
    return f"backbone/seed={seed}/nodes={nodes}"


def hierarchy_digests(name):
    """``{key: digest}`` for one hierarchy: its graph and every slice."""
    hierarchy = build_hierarchy(**HIERARCHIES[name])
    result = {f"hierarchy/{name}/graph": digest(hierarchy.graph)}
    for region in hierarchy.region_names:
        result[f"hierarchy/{name}/region/{region}"] = digest(
            hierarchy.region_graph(region)
        )
    result[f"hierarchy/{name}/express"] = digest(hierarchy.express_graph())
    return result


def mono_churn_digest():
    return digest(build_waxman_network(**MONO_CHURN).inventory.graph)


def current():
    """Every case's digest, as the code builds it now."""
    result = {
        backbone_key(seed, nodes): digest(
            generate_backbone(RandomStreams(seed), node_count=nodes)
        )
        for nodes in BACKBONE_SIZES
        for seed in BACKBONE_SEEDS
    }
    for name in HIERARCHIES:
        result.update(hierarchy_digests(name))
    result["waxman/mono-churn"] = mono_churn_digest()
    return result


def regenerate():
    GOLDEN_PATH.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("nodes", BACKBONE_SIZES)
def test_backbone(golden, nodes):
    got = {
        backbone_key(seed, nodes): digest(
            generate_backbone(RandomStreams(seed), node_count=nodes)
        )
        for seed in BACKBONE_SEEDS
    }
    assert got == {key: golden[key] for key in got}


@pytest.mark.parametrize("name", list(HIERARCHIES))
def test_hierarchy_and_every_slice(golden, name):
    got = hierarchy_digests(name)
    assert got == {
        key: value for key, value in golden.items()
        if key.startswith(f"hierarchy/{name}/")
    }


def test_mono_churn_waxman_network(golden):
    assert mono_churn_digest() == golden["waxman/mono-churn"]
