"""Generation-stamped LRU cache for RWA candidate routes.

Route search is the part of :meth:`RwaEngine.plan` that does not depend
on wavelength occupancy, and on a warm controller most requests repeat
(source, destination) pairs against an unchanged topology, so the
searched routes can be reused wholesale.  The engine plans shortest
first: it looks up the ``k = 1`` entry (one BFS on a miss) and asks for
the full ``k = k_paths`` entry (Yen's spur searches on a miss) only when
the shortest route is down or has no free wavelength — ``k`` is part of
the key, so the two live side by side and a warm plan is one hit.
Correctness comes from two monotonic counters:

* the topology **generation** (:attr:`NetworkGraph.generation`), bumped
  on every ``add_node``/``add_link``;
* the fiber plant's **failure epoch**
  (:attr:`FiberPlant.failure_epoch`), bumped on every cut and repair.

Each cache entry is stamped with the (generation, epoch) pair current
when it was computed; a lookup whose stamps do not both match is a miss
and the stale entry is dropped.  Wavelength occupancy is deliberately
*not* part of the stamp: routes do not depend on which channels are
lit, and wavelength picking always runs live against the per-link
masks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

#: A fully-normalized cache key: (source, dest, k, excluded links, excluded nodes).
RouteKey = Tuple[str, str, int, FrozenSet[Tuple[str, str]], FrozenSet[str]]


def make_route_key(
    source: str,
    destination: str,
    k: int,
    excluded_links: Iterable[Tuple[str, str]] = (),
    excluded_nodes: Iterable[str] = (),
) -> RouteKey:
    """Normalize a plan request into a hashable cache key."""
    return (
        source,
        destination,
        k,
        frozenset(tuple(key) for key in excluded_links),
        frozenset(excluded_nodes),
    )


class RouteCache:
    """A bounded LRU cache of candidate routes with stamp-based invalidation."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[RouteKey, Tuple[int, int, List[List[str]]]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of cached (request, routes) entries."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: RouteKey, generation: int, epoch: int
    ) -> Optional[List[List[str]]]:
        """Return cached routes for ``key`` if stamped with the live state.

        A stale entry (either stamp moved) is evicted and counted as an
        invalidation plus a miss.
        """
        routes = self.get_ref(key, generation, epoch)
        # Copy the outer list: callers may filter/reorder candidates.
        return None if routes is None else list(routes)

    def get_ref(
        self, key: RouteKey, generation: int, epoch: int
    ) -> Optional[List[List[str]]]:
        """Like :meth:`get` but returns the cached list itself, uncopied.

        For read-only callers on a hot path (the planner only iterates
        the routes); the caller must not mutate the returned list or its
        paths.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        cached_generation, cached_epoch, routes = entry
        if cached_generation != generation or cached_epoch != epoch:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return routes

    def put(
        self, key: RouteKey, generation: int, epoch: int, routes: List[List[str]]
    ) -> None:
        """Store ``routes`` under ``key`` stamped with the live state."""
        self._entries[key] = (generation, epoch, list(routes))
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/invalidation/eviction counters plus current size."""
        total = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"RouteCache(size={len(self._entries)}, capacity={self._capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
