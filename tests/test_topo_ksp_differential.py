"""Differential test: ``NetworkGraph`` path search vs. the previous one.

``reference_shortest_path`` / ``reference_k_shortest_paths`` are the
heap-Dijkstra and plain-Yen bodies ``NetworkGraph`` shipped before the
Lawler/BFS rewrite, kept here verbatim (``self`` spelled ``graph``,
adjacency read through the public ``neighbors`` / ``link_between``).
Every determinism gate and golden file in the repo was recorded against
them, so the rewrite must return the same paths in the same order and
raise the same errors on the same inputs -- not merely paths of equal
cost.
"""

import heapq
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NoPathError, TopologyError
from repro.topo.graph import Link, NetworkGraph, Node

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Link probabilities: near-tree, mesh, near-clique.
DENSITIES = (0.15, 0.4, 0.85)
NAMES = [f"N{index:02d}" for index in range(14)]


# -- the reference ------------------------------------------------------------


def _canonical(key):
    a, b = key
    return (a, b) if a <= b else (b, a)


def _reconstruct(previous, source, target):
    path = [target]
    while path[-1] != source:
        path.append(previous[path[-1]])
    path.reverse()
    return path


def reference_shortest_path(
    graph, source, target, weight=None, excluded_links=(), excluded_nodes=()
):
    graph.node(source)
    graph.node(target)
    if weight is None:
        weight = lambda link: 1.0  # noqa: E731 - hop count default
    banned_links = {_canonical(k) for k in excluded_links}
    banned_nodes = set(excluded_nodes) - {source, target}

    distances = {source: 0.0}
    previous = {}
    counter = itertools.count()
    frontier = [(0.0, next(counter), source)]
    visited = set()
    while frontier:
        dist, _, current = heapq.heappop(frontier)
        if current in visited:
            continue
        visited.add(current)
        if current == target:
            return _reconstruct(previous, source, target)
        for neighbor in graph.neighbors(current):
            link = graph.link_between(current, neighbor)
            if neighbor in banned_nodes or neighbor in visited:
                continue
            if link.key in banned_links:
                continue
            cost = weight(link)
            if cost < 0:
                raise TopologyError(
                    f"negative link weight {cost} on {link.key}"
                )
            candidate = dist + cost
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                previous[neighbor] = current
                heapq.heappush(frontier, (candidate, next(counter), neighbor))
    raise NoPathError(f"no path from {source!r} to {target!r}")


def reference_k_shortest_paths(
    graph, source, target, k, weight=None, excluded_links=(), excluded_nodes=()
):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if weight is None:
        weight = lambda link: 1.0  # noqa: E731 - hop count default
    base_excluded_links = {_canonical(key) for key in excluded_links}
    base_excluded_nodes = set(excluded_nodes)

    first = reference_shortest_path(
        graph,
        source,
        target,
        weight,
        excluded_links=base_excluded_links,
        excluded_nodes=base_excluded_nodes,
    )
    paths = [first]
    candidates = []
    seen_candidates = {tuple(first)}

    while len(paths) < k:
        prev_path = paths[-1]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            removed_links = set(base_excluded_links)
            for path in paths:
                if path[: i + 1] == root and len(path) > i + 1:
                    removed_links.add(_canonical((path[i], path[i + 1])))
            removed_nodes = set(base_excluded_nodes) | set(root[:-1])
            try:
                spur = reference_shortest_path(
                    graph,
                    spur_node,
                    target,
                    weight,
                    excluded_links=removed_links,
                    excluded_nodes=removed_nodes,
                )
            except NoPathError:
                continue
            total = root[:-1] + spur
            key = tuple(total)
            if key in seen_candidates:
                continue
            seen_candidates.add(key)
            cost = sum(weight(link) for link in graph.links_on_path(total))
            heapq.heappush(candidates, (cost, total))
        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        paths.append(best)
    return paths


# -- generated inputs ---------------------------------------------------------


@st.composite
def search_cases(draw):
    """A graph plus one query: endpoints, k, metric and exclusions."""
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(min_value=2, max_value=14))
    density = draw(st.sampled_from(DENSITIES))
    # Insertion order is a shuffle of the names, so the name-sorted
    # adjacency the tie-breaks rest on differs from construction order.
    names = NAMES[:count]
    rng.shuffle(names)
    graph = NetworkGraph()
    for name in names:
        graph.add_node(Node(name))
    pairs = list(itertools.combinations(names, 2))
    rng.shuffle(pairs)
    for a, b in pairs:
        if rng.random() < density:
            if rng.random() < 0.5:
                a, b = b, a
            # Few distinct lengths: equal-cost ties are the hard case.
            graph.add_link(Link(a, b, length_km=float(rng.choice((50, 100, 150)))))
    links = [link.key for link in graph.links]
    excluded_links = [
        (b, a) if rng.random() < 0.5 else (a, b)
        for a, b in links
        if rng.random() < 0.15
    ]
    excluded_nodes = [name for name in names if rng.random() < 0.15]
    return {
        "graph": graph,
        "source": rng.choice(names),
        "target": rng.choice(names),
        "k": draw(st.integers(min_value=1, max_value=6)),
        "by_length": draw(st.booleans()),
        "excluded_links": excluded_links,
        "excluded_nodes": excluded_nodes,
        "poisoned": rng.choice(links) if links else None,
    }


def outcome(call):
    """What a search did: its paths, or the error it raised."""
    try:
        return call()
    except (NoPathError, TopologyError, ValueError) as exc:
        return type(exc), str(exc)


def length_km(link):
    return link.length_km


def assert_same(case, weight, source=None, k=None):
    graph = case["graph"]
    source = case["source"] if source is None else source
    k = case["k"] if k is None else k
    query = dict(
        weight=weight,
        excluded_links=case["excluded_links"],
        excluded_nodes=case["excluded_nodes"],
    )
    assert outcome(
        lambda: graph.shortest_path(source, case["target"], **query)
    ) == outcome(
        lambda: reference_shortest_path(graph, source, case["target"], **query)
    )
    assert outcome(
        lambda: graph.k_shortest_paths(source, case["target"], k, **query)
    ) == outcome(
        lambda: reference_k_shortest_paths(
            graph, source, case["target"], k, **query
        )
    )


# -- the properties -----------------------------------------------------------


@SETTINGS
@given(search_cases())
def test_same_paths_in_the_same_order(case):
    assert_same(case, length_km if case["by_length"] else None)


@SETTINGS
@given(search_cases())
def test_same_errors_on_the_same_inputs(case):
    """k < 1, an unknown endpoint and a negative weight are each raised
    by the rewrite exactly when (and worded as) the reference does."""
    weight = length_km if case["by_length"] else None
    assert_same(case, weight, k=0)
    assert_same(case, weight, source="ghost")
    assert_same(case, weight, source="ghost", k=0)

    def poisoned(link):
        return -1.0 if link.key == case["poisoned"] else link.length_km

    assert_same(case, poisoned)


def test_equal_cost_routes_come_out_in_name_order():
    """One readable instance of the contract the properties pin."""
    graph = NetworkGraph()
    for name in "ABCD":
        graph.add_node(Node(name))
    for a, b in (("A", "C"), ("C", "D"), ("A", "B"), ("B", "D")):
        graph.add_link(Link(a, b))
    expected = [["A", "B", "D"], ["A", "C", "D"]]
    assert reference_k_shortest_paths(graph, "A", "D", 2) == expected
    assert graph.k_shortest_paths("A", "D", 2) == expected
    with pytest.raises(NoPathError):
        graph.k_shortest_paths("A", "D", 2, excluded_nodes=["B", "C"])
