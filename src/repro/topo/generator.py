"""Random topology generation for scaling studies.

The Fig. 4 testbed and the 12-city backbone are fixed; scaling studies
(blocking vs network size, planner behavior on unfamiliar meshes) need
families of random-but-realistic carrier topologies.  The generator
follows a Waxman-flavored recipe: scatter PoPs on a plane, connect with
probability decaying in distance, then patch connectivity and enforce a
minimum degree of 2 so every span is restorable.
"""

from __future__ import annotations

import math
from typing import List, Set, Tuple

from repro.errors import ConfigurationError
from repro.sim.randomness import RandomStreams
from repro.topo.graph import Link, NetworkGraph, Node


def generate_backbone(
    streams: RandomStreams,
    node_count: int = 16,
    plane_km: float = 4000.0,
    alpha: float = 0.4,
    beta: float = 0.35,
    stream_name: str = "topo-gen",
) -> NetworkGraph:
    """Generate a random two-connected carrier backbone.

    Args:
        streams: Random substreams (deterministic per master seed).
        node_count: Number of PoPs (>= 3).
        plane_km: Side of the square the PoPs scatter over.
        alpha: Waxman distance-decay parameter (larger = longer links).
        beta: Waxman base link probability (larger = denser mesh).

    Returns:
        A connected :class:`NetworkGraph` where every node has degree
        >= 2 and every link carries an SRLG tag.

    Raises:
        ConfigurationError: for invalid parameters.
    """
    links = _waxman_links(streams, node_count, plane_km, alpha, beta, stream_name)
    return _mesh_graph([f"P{index:02d}" for index in range(node_count)], links)


def _mesh_graph(
    names: List[str], links: List[Tuple[int, int, float]], region: str = ""
) -> NetworkGraph:
    """A generated mesh with PoP ``i`` named ``names[i]``, named once."""
    graph = NetworkGraph()
    for name in names:
        graph.add_node(Node(name, kind="roadm", region=region))
    for i, j, km in links:
        a, b = names[i], names[j]
        graph.add_link(
            Link(a, b, length_km=km, srlgs=frozenset({f"srlg:{a}={b}"}))
        )
    return graph


def _waxman_links(
    streams: RandomStreams, node_count: int, plane_km: float, alpha: float,
    beta: float, stream_name: str = "topo-gen",
) -> List[Tuple[int, int, float]]:
    """The mesh as geometry: ``(i, j, length_km)`` per link over PoP
    indices, in the order the links are added.  Patches walk neighbours
    in ``P{i:02d}`` name order (``P100`` before ``P11``), so a caller's
    names must sort the same way.
    """
    if node_count < 3:
        raise ConfigurationError(f"need >= 3 nodes, got {node_count}")
    if plane_km <= 0:
        raise ConfigurationError(f"plane must be positive, got {plane_km}")
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise ConfigurationError("alpha and beta must be in (0, 1]")

    # ``Random.uniform(a, b)`` is ``a + (b - a) * random()``: the same
    # draws, with each stream looked up once.
    draw_x = streams.stream(f"{stream_name}:x").random
    draw_y = streams.stream(f"{stream_name}:y").random
    draw_p = streams.stream(f"{stream_name}:p").random
    positions = [
        (0.0 + (plane_km - 0.0) * draw_x(), 0.0 + (plane_km - 0.0) * draw_y())
        for _ in range(node_count)
    ]

    def distance(i: int, j: int) -> float:
        (xi, yi), (xj, yj) = positions[i], positions[j]
        return math.hypot(xi - xj, yi - yj)

    links: List[Tuple[int, int, float]] = []
    adjacency: List[Set[int]] = [set() for _ in range(node_count)]

    def add(i: int, j: int) -> None:
        links.append((i, j, max(25.0, round(distance(i, j), 1))))
        adjacency[i].add(j)
        adjacency[j].add(i)

    # Waxman pass, the build's hot loop: ``distance`` written out.
    decay = alpha * (plane_km * math.sqrt(2))
    hypot, exp = math.hypot, math.exp
    for i, (xi, yi) in enumerate(positions):
        for j in range(i + 1, node_count):
            xj, yj = positions[j]
            probability = beta * exp(-hypot(xi - xj, yi - yj) / decay)
            if 0.0 + (1.0 - 0.0) * draw_p() < probability:
                add(i, j)

    # Connectivity patch: chain any disconnected components together
    # through their nearest node pair.
    def components() -> List[List[int]]:
        seen: set = set()
        result = []
        for start in range(node_count):
            if start in seen:
                continue
            stack, comp = [start], []
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                comp.append(current)
                stack.extend(sorted(adjacency[current], key="P{:02d}".format))
            result.append(comp)
        return result

    comps = components()
    while len(comps) > 1:
        best = None
        for i in comps[0]:
            for j in comps[1]:
                d = distance(i, j)
                if best is None or d < best[0]:
                    best = (d, i, j)
        add(best[1], best[2])
        comps = components()

    # Degree patch: every PoP gets at least two distinct spans, so a
    # single cut never isolates it.
    for i in range(node_count):
        while len(adjacency[i]) < 2:
            _, j = min(
                (distance(i, j), j)
                for j in range(node_count)
                if j != i and j not in adjacency[i]
            )
            add(i, j)
    return links
