"""The paper's Fig. 4 laboratory testbed topology.

The testbed's DWDM layer has four ROADM nodes — two 3-degree and two
2-degree — in a mesh that supports the three paths measured in Table 2:

* 1 hop:  ``ROADM-I — ROADM-IV``
* 2 hops: ``ROADM-I — ROADM-III — ROADM-IV``
* 3 hops: ``ROADM-I — ROADM-II — ROADM-III — ROADM-IV``

which fixes the inter-ROADM links as I–IV, I–III, III–IV, I–II and II–III,
giving ROADM-I and ROADM-III degree 3 and ROADM-II and ROADM-IV degree 2,
matching the paper's "two 3-degree ROADMs and two 2-degree ROADMs".

Three customer premises (data-center sites) attach via fixed dedicated
access pipes — emulated in the paper by a 10G/40G muxponder pair — to core
PoPs colocated with ROADM-I, ROADM-III, and ROADM-IV.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topo.graph import Link, NetworkGraph, Node

#: Names of the four ROADM nodes in the Fig. 4 testbed.
TESTBED_ROADMS = ("ROADM-I", "ROADM-II", "ROADM-III", "ROADM-IV")

#: Link exclusions that force each Table 2 path (ROADM-I -> ROADM-IV,
#: by hop count) on the testbed.
TABLE2_EXCLUSIONS: Dict[int, List[Tuple[str, str]]] = {
    1: [],
    2: [("ROADM-I", "ROADM-IV")],
    3: [("ROADM-I", "ROADM-IV"), ("ROADM-I", "ROADM-III")],
}

#: Table 2 of the paper: mean wavelength-connection establishment time
#: (seconds) by ROADM-layer path length, over ten iterations.
PAPER_TABLE2 = {1: 62.48, 2: 65.67, 3: 70.94}

#: Customer premises name -> the core-PoP ROADM its access pipe lands on.
TESTBED_PREMISES: Dict[str, str] = {
    "PREMISES-A": "ROADM-I",
    "PREMISES-B": "ROADM-III",
    "PREMISES-C": "ROADM-IV",
}

#: Inter-ROADM fiber links (lab spools; short, uniform lengths).
_TESTBED_LINKS = (
    ("ROADM-I", "ROADM-IV", 80.0),
    ("ROADM-I", "ROADM-III", 60.0),
    ("ROADM-III", "ROADM-IV", 60.0),
    ("ROADM-I", "ROADM-II", 50.0),
    ("ROADM-II", "ROADM-III", 50.0),
)

#: Access pipe length from each premises to its core PoP (a metro span).
_ACCESS_KM = 10.0


def build_testbed_graph() -> NetworkGraph:
    """Build the Fig. 4 testbed as a :class:`NetworkGraph`.

    The returned graph contains the four ROADMs, the five inter-ROADM
    links, the three customer premises, and their access links.  Each
    inter-ROADM link carries a unique SRLG tag so fiber-cut experiments
    can target individual spans.
    """
    graph = NetworkGraph()
    for name in TESTBED_ROADMS:
        graph.add_node(Node(name, kind="roadm", region="lab-core"))
    for premises in TESTBED_PREMISES:
        graph.add_node(Node(premises, kind="premises", region="lab-edge"))
    for a, b, km in _TESTBED_LINKS:
        graph.add_link(Link(a, b, length_km=km, srlgs=frozenset({f"srlg:{a}={b}"})))
    for premises, pop in TESTBED_PREMISES.items():
        graph.add_link(
            Link(
                premises,
                pop,
                length_km=_ACCESS_KM,
                srlgs=frozenset({f"srlg:access:{premises}"}),
            )
        )
    return graph


def table2_paths() -> Dict[int, list]:
    """The three ROADM-layer paths measured in Table 2, keyed by hop count."""
    return {
        1: ["ROADM-I", "ROADM-IV"],
        2: ["ROADM-I", "ROADM-III", "ROADM-IV"],
        3: ["ROADM-I", "ROADM-II", "ROADM-III", "ROADM-IV"],
    }
