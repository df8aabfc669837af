"""The network graph: nodes, bidirectional fiber links, and path search.

The graph is layer-agnostic: the DWDM layer, the OTN layer, and the legacy
SONET layer each interpret the same node/link structure through their own
equipment models.  Links are *bidirectional fiber pairs* (the paper's
DWDM links), carry a length in kilometers for optical-reach computations,
and may belong to shared-risk link groups (SRLGs) so a single conduit cut
can take down several logical links at once.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import sys
from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import NoPathError, TopologyError

#: ``dataclass`` options of the records made by the thousand (graph
#: nodes and links, connection and order records): slotted, with no
#: per-instance ``__dict__``, on the Pythons that can (3.10 and later).
RECORD_OPTIONS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **RECORD_OPTIONS)
class Node:
    """A network location.

    Attributes:
        name: Unique node name, e.g. ``'ROADM-I'`` or ``'DC-A'``.
        kind: Role tag: ``'roadm'``, ``'premises'``, ``'pop'``, etc.
        region: Optional grouping label (metro area / city).
    """

    name: str
    kind: str = "roadm"
    region: str = ""


@dataclass(frozen=True, **RECORD_OPTIONS)
class Link:
    """A bidirectional fiber pair between two nodes.

    Attributes:
        a: One endpoint node name.
        b: The other endpoint node name.
        length_km: Fiber route distance, used by the optical reach model.
        srlgs: Shared-risk link group identifiers (conduits, bridges...).
        key: Canonical (sorted) endpoint pair identifying this link.  It
            is built once, so the graph, the plant and every record keyed
            by link hold this one tuple; it is no ``__init__`` argument,
            and equality, hashing and repr read only the four fields above.
    """

    a: str
    b: str
    length_km: float = 100.0
    srlgs: FrozenSet[str] = frozenset()
    key: Tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop link at node {self.a!r}")
        if self.length_km <= 0:
            raise TopologyError(
                f"link {self.a}-{self.b} must have positive length, "
                f"got {self.length_km}"
            )
        object.__setattr__(
            self, "key", (self.a, self.b) if self.a <= self.b else (self.b, self.a)
        )

    def other(self, node: str) -> str:
        """Return the endpoint opposite ``node``.

        Raises:
            TopologyError: if ``node`` is not an endpoint of this link.
        """
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node!r} is not an endpoint of link {self.key}")

    def __str__(self) -> str:
        return f"{self.key[0]}={self.key[1]}"


#: Name-sorted ``(neighbor, link key, link)`` lists per node: the path
#: search's view of a graph, or of a restriction of it.
Adjacency = Dict[str, List[Tuple[str, Tuple[str, str], Link]]]


class NetworkGraph:
    """An undirected simple graph of nodes and fiber links.

    Provides Dijkstra shortest paths and Yen's k-shortest simple paths,
    with pluggable link weights and link/node exclusion — the primitives
    the GRIPhoN controller's routing engine builds on.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        # The one adjacency: name-sorted (neighbor, link key, link) lists
        # per node, kept in order as links are added, so the path search
        # inner loops need neither sorted(), link_between() nor Link.key.
        self._adjacency: Adjacency = {}
        # (generation, SRLG -> links): built on the first links_in_srlg().
        self._srlg_index: Optional[Tuple[int, Dict[str, List[Link]]]] = None
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic counter bumped on every topology mutation.

        Structures derived from the topology (the grooming engine's
        switch-only adjacency) are stamped with it and rebuilt when it
        moves.
        """
        return self._generation

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Add a node; re-adding an identical node is a no-op.

        Raises:
            TopologyError: if a different node with the same name exists.
        """
        existing = self._nodes.get(node.name)
        if existing is not None:
            if existing != node:
                raise TopologyError(
                    f"node {node.name!r} already exists with different attributes"
                )
            return existing
        self._nodes[node.name] = node
        self._adjacency[node.name] = []
        self._generation += 1
        return node

    def add_link(self, link: Link) -> Link:
        """Add a link between two existing nodes.

        Raises:
            TopologyError: if either endpoint is unknown or the node pair
                is already linked (parallel links are modeled as added
                capacity on one link, not as multigraph edges).
        """
        for endpoint in (link.a, link.b):
            if endpoint not in self._nodes:
                raise TopologyError(f"link references unknown node {endpoint!r}")
        if link.key in self._links:
            raise TopologyError(f"duplicate link {link.key}")
        self._links[link.key] = link
        # Neighbours are distinct, so the tuples order on the name alone.
        bisect.insort(self._adjacency[link.a], (link.b, link.key, link))
        bisect.insort(self._adjacency[link.b], (link.a, link.key, link))
        self._generation += 1
        return link

    # -- lookup ----------------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def links(self) -> List[Link]:
        """All links, in insertion order."""
        return list(self._links.values())

    def node(self, name: str) -> Node:
        """Look up a node by name.

        Raises:
            TopologyError: for an unknown name.
        """
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        """Whether a node with this name exists."""
        return name in self._nodes

    def link_between(self, a: str, b: str) -> Link:
        """Return the link joining ``a`` and ``b``.

        Raises:
            TopologyError: if the nodes are not adjacent.
        """
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise TopologyError(f"no link between {a!r} and {b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        """Whether a link joins ``a`` and ``b``."""
        return ((a, b) if a <= b else (b, a)) in self._links

    def neighbors(self, name: str) -> List[str]:
        """Sorted neighbor names of ``name``."""
        return [entry[0] for entry in self._sorted_neighbors(name)]

    def degree(self, name: str) -> int:
        """Number of distinct inter-node fiber links at ``name``."""
        return len(self._sorted_neighbors(name))

    def links_on_path(self, path: List[str]) -> List[Link]:
        """The link objects along a node path.

        Raises:
            TopologyError: if consecutive nodes are not adjacent.
        """
        return [self.link_between(u, v) for u, v in zip(path, path[1:])]

    def path_length_km(self, path: List[str]) -> float:
        """Total fiber kilometers along a node path."""
        return sum(link.length_km for link in self.links_on_path(path))

    def srlgs_on_path(self, path: List[str]) -> Set[str]:
        """Union of SRLG identifiers along the path."""
        groups: Set[str] = set()
        for link in self.links_on_path(path):
            groups |= link.srlgs
        return groups

    def links_in_srlg(self, srlg: str) -> List[Link]:
        """All links belonging to the given shared-risk group, in
        insertion order.  The index is built on the first call, and again
        on the first call after the topology changes."""
        cached = self._srlg_index
        if cached is None or cached[0] != self._generation:
            index: Dict[str, List[Link]] = {}
            for link in self._links.values():
                for group in link.srlgs:
                    index.setdefault(group, []).append(link)
            cached = self._srlg_index = (self._generation, index)
        return list(cached[1].get(srlg, ()))

    def _sorted_neighbors(
        self, name: str
    ) -> List[Tuple[str, Tuple[str, str], Link]]:
        """Name-sorted (neighbor, link key, link) triples for ``name``:
        the graph's own list.  Read it; never change it."""
        try:
            return self._adjacency[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def induced_adjacency(self, members: Collection[str]) -> Adjacency:
        """Name-sorted ``(neighbor, link key, link)`` lists of the
        subgraph induced by ``members``, for :meth:`hop_path_within`.

        Nodes are visited in insertion order and tested for membership,
        so the result never depends on how ``members`` iterates.  A
        member that is not a node of this graph is left out.
        """
        return {
            name: [
                entry
                for entry in self._sorted_neighbors(name)
                if entry[0] in members
            ]
            for name in self._nodes
            if name in members
        }

    # -- path search -------------------------------------------------------------

    def shortest_path(
        self,
        source: str,
        target: str,
        weight: Optional[Callable[[Link], float]] = None,
        excluded_links: Iterable[Tuple[str, str]] = (),
        excluded_nodes: Iterable[str] = (),
    ) -> List[str]:
        """Shortest path from ``source`` to ``target``.

        Args:
            weight: Link cost function; default is hop count (cost 1/link).
            excluded_links: Link keys (canonical endpoint pairs) to avoid.
            excluded_nodes: Intermediate nodes to avoid (endpoints are
                always allowed).

        Returns:
            The node path, beginning with ``source`` and ending with
            ``target``.  Among equal-cost paths the choice is fixed by
            the name-sorted adjacency (see :meth:`_search`).

        Raises:
            NoPathError: if no path survives the exclusions.
            TopologyError: for unknown endpoints.
        """
        self.node(source)
        self.node(target)
        banned_links = {self._canonical(k) for k in excluded_links}
        banned_nodes = set(excluded_nodes) - {source, target}
        return self._search(source, target, weight, banned_links, banned_nodes)

    def hop_path_within(
        self,
        adjacency: Adjacency,
        source: str,
        target: str,
        excluded_links: Iterable[Tuple[str, str]] = (),
        excluded_nodes: Iterable[str] = (),
    ) -> List[str]:
        """Fewest-hop path over ``adjacency``, a restriction of this
        graph such as :meth:`induced_adjacency` returns.

        The search is :meth:`shortest_path`'s: same exclusions, same
        tie-breaks among the neighbours ``adjacency`` keeps.  Its cost
        is the nodes it reaches plus the exclusions, never the nodes
        the restriction leaves out.

        Raises:
            NoPathError: if an endpoint is not in ``adjacency`` or no
                path survives the exclusions.
        """
        for endpoint in (source, target):
            if endpoint not in adjacency:
                raise NoPathError(
                    f"no path from {source!r} to {target!r}: "
                    f"{endpoint!r} is outside the searched adjacency"
                )
        return self._bfs_path(
            adjacency.__getitem__,
            source,
            target,
            {self._canonical(key) for key in excluded_links},
            set(excluded_nodes) - {source, target},
            (),
        )

    def k_shortest_paths(
        self,
        source: str,
        target: str,
        k: int,
        weight: Optional[Callable[[Link], float]] = None,
        excluded_links: Iterable[Tuple[str, str]] = (),
        excluded_nodes: Iterable[str] = (),
    ) -> List[List[str]]:
        """Yen's algorithm: up to ``k`` loop-free shortest paths in cost order.

        Equal-cost paths come out in lexicographic node-path order: the
        candidate heap orders on ``(cost, node list)`` and candidates
        are distinct, so which one is popped depends only on the
        candidate *set*, never on the order spur searches found them.

        Spur searches follow Lawler's rule.  A path accepted from the
        heap remembers the index at which it left its parent; below that
        index it shares root *and* next hop with the parent, so the spur
        search there has the same root and the same removed hops as one
        already run, and would only rediscover a path in
        ``seen_candidates``.  Only spur nodes at or after the deviation
        index are searched.

        Returns fewer than ``k`` paths when the graph does not contain that
        many simple paths.  Raises :class:`NoPathError` if there is none.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.node(source)
        self.node(target)
        banned_links = {self._canonical(key) for key in excluded_links}
        # Accepted paths hold only the endpoints and non-excluded nodes,
        # so a spur node past the source is never in this set.
        base_banned_nodes = set(excluded_nodes) - {source, target}

        first = self._search(
            source, target, weight, banned_links, base_banned_nodes
        )
        paths: List[List[str]] = [first]
        start = 0  # deviation index of the path accepted last
        candidates: List[Tuple[float, List[str], int]] = []
        seen_candidates: Set[Tuple[str, ...]] = {tuple(first)}

        while len(paths) < k:
            prev_path = paths[-1]
            banned_nodes = base_banned_nodes.union(prev_path[:start])
            for i in range(start, len(prev_path) - 1):
                spur_node = prev_path[i]
                root = prev_path[: i + 1]
                # Every link Yen removes here leaves the spur node, and
                # the search never re-enters its own source, so banning
                # the far ends as first hops is the same exclusion.
                banned_hops = {
                    path[i + 1]
                    for path in paths
                    if len(path) > i + 1 and path[: i + 1] == root
                }
                try:
                    spur = self._search(
                        spur_node, target, weight,
                        banned_links, banned_nodes, banned_hops,
                    )
                except NoPathError:
                    continue
                finally:
                    banned_nodes.add(spur_node)
                total = root[:-1] + spur
                key = tuple(total)
                if key in seen_candidates:
                    continue
                seen_candidates.add(key)
                heapq.heappush(
                    candidates, (self._path_cost(total, weight), total, i)
                )
            if not candidates:
                break
            _, best, start = heapq.heappop(candidates)
            paths.append(best)
        return paths

    # -- internals ------------------------------------------------------------

    def _search(
        self,
        source: str,
        target: str,
        weight: Optional[Callable[[Link], float]],
        banned_links: Set[Tuple[str, str]],
        banned_nodes: Set[str],
        banned_hops: Collection[str] = (),
    ) -> List[str]:
        """One shortest path over canonical exclusions.

        ``banned_hops`` are neighbors of ``source`` that may not be the
        path's first hop.  Hop count (``weight is None``) is served by
        :meth:`_bfs_path`, any other metric by :meth:`_dijkstra_path`.
        Under unit weights the Dijkstra heap pops in ``(distance, push
        order)``, every node is pushed exactly once (a later discovery
        is never strictly shorter), and all nodes at distance ``d`` are
        pushed before any at ``d + 1`` — which is first-in-first-out
        with first-discoverer predecessors.  So the two agree on every
        path, not just on its cost.
        """
        if weight is None:
            return self._bfs_path(
                self._adjacency.__getitem__,
                source, target, banned_links, banned_nodes, banned_hops,
            )
        if banned_hops:
            banned_links = banned_links.union(
                self._canonical((source, hop)) for hop in banned_hops
            )
        return self._dijkstra_path(
            source, target, weight, banned_links, banned_nodes
        )

    def _bfs_path(
        self,
        neighbors_of: Callable[[str], List[Tuple[str, Tuple[str, str], Link]]],
        source: str,
        target: str,
        banned_links: Set[Tuple[str, str]],
        banned_nodes: Set[str],
        banned_hops: Collection[str],
    ) -> List[str]:
        """The one hop-count search, over the adjacency ``neighbors_of``
        reads: the whole graph's or a restriction of it
        (:meth:`hop_path_within`)."""
        if source == target:
            return [source]
        # One membership test per edge: a banned node looks already
        # discovered, the link-key test runs only when a link is banned,
        # and banned_hops bind the source's expansion only.
        previous: Dict[str, Optional[str]] = dict.fromkeys(banned_nodes)
        previous[source] = source
        queue: List[str] = []  # FIFO: read front to back while it grows
        for neighbor, key, _ in neighbors_of(source):
            if (
                neighbor in previous
                or neighbor in banned_hops
                or key in banned_links
            ):
                continue
            previous[neighbor] = source
            if neighbor == target:
                return [source, target]
            queue.append(neighbor)
        for current in queue:
            for neighbor, key, _ in neighbors_of(current):
                if neighbor in previous or (banned_links and key in banned_links):
                    continue
                previous[neighbor] = current
                if neighbor == target:
                    # The first discovery fixes the predecessor for
                    # good, so the path is known before target is dequeued.
                    return self._reconstruct(previous, source, target)
                queue.append(neighbor)
        raise NoPathError(f"no path from {source!r} to {target!r}")

    def _dijkstra_path(
        self,
        source: str,
        target: str,
        weight: Callable[[Link], float],
        banned_links: Set[Tuple[str, str]],
        banned_nodes: Set[str],
    ) -> List[str]:
        distances: Dict[str, float] = {source: 0.0}
        previous: Dict[str, str] = {}
        counter = itertools.count()
        frontier: List[Tuple[float, int, str]] = [(0.0, next(counter), source)]
        visited: Set[str] = set()
        while frontier:
            dist, _, current = heapq.heappop(frontier)
            if current in visited:
                continue
            visited.add(current)
            if current == target:
                return self._reconstruct(previous, source, target)
            for neighbor, key, link in self._adjacency[current]:
                if neighbor in banned_nodes or neighbor in visited:
                    continue
                if key in banned_links:
                    continue
                cost = weight(link)
                if cost < 0:
                    raise TopologyError(
                        f"negative link weight {cost} on {key}"
                    )
                candidate = dist + cost
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    previous[neighbor] = current
                    heapq.heappush(frontier, (candidate, next(counter), neighbor))
        raise NoPathError(f"no path from {source!r} to {target!r}")

    def _path_cost(
        self, path: List[str], weight: Optional[Callable[[Link], float]]
    ) -> float:
        if weight is None:
            return len(path) - 1
        return sum(weight(link) for link in self.links_on_path(path))

    @staticmethod
    def _canonical(key: Tuple[str, str]) -> Tuple[str, str]:
        a, b = key
        return (a, b) if a <= b else (b, a)

    @staticmethod
    def _reconstruct(
        previous: Dict[str, str], source: str, target: str
    ) -> List[str]:
        path = [target]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return path
