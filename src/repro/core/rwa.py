"""Routing and wavelength assignment (RWA) for wavelength services.

Given a request between two ROADM nodes at a line rate, the engine:

1. walks the k shortest candidate routes (hop-count metric by default,
   matching how the testbed paths are described in Table 2) shortest
   first, searching for the other k - 1 only when the shortest is down
   or cannot be assigned;
2. segments each route at regenerator sites dictated by the optical
   reach model (a regen resets both the impairment budget *and* the
   wavelength-continuity constraint);
3. picks a wavelength per segment — **first-fit** by default, with a
   random policy available for the ablation benchmark;
4. returns a :class:`RwaPlan` listing route, per-segment channels, and
   regen sites — or raises a specific error explaining which resource
   blocked the request.

The plan is pure computation: nothing is allocated until the setup
workflow executes it step by step.

For a scheduling round of many concurrent orders, :meth:`RwaEngine.plan_batch`
plans a whole list of requests against one shared :class:`_PlanningRound`:
candidate routes, liveness checks, regen segmentation, and free-channel
sets are computed once per distinct route, and every successful plan's
channels are recorded in a shadow overlay so later requests in the same
round cannot be assigned a wavelength an earlier one already won.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    GriphonError,
    NoPathError,
    SignalError,
    WavelengthBlockedError,
)
from repro.core.inventory import InventoryDatabase
from repro.obs.trace import Span, Tracer
from repro.optical.impairments import ReachModel
from repro.optical.lightpath import Segment
from repro.sim.randomness import RandomStreams


@dataclass
class RwaPlan:
    """The output of routing and wavelength assignment.

    Attributes:
        path: Node route from source to destination ROADM.
        segments: Wavelength assignment per regen-free segment.
        regen_sites: Intermediate nodes needing a regenerator.
        rate_bps: Line rate the plan was computed for.
    """

    path: List[str]
    segments: List[Segment]
    regen_sites: List[str]
    rate_bps: float

    @property
    def hop_count(self) -> int:
        """ROADM-layer hops along the route."""
        return len(self.path) - 1


@dataclass(frozen=True)
class PlanRequest:
    """One wavelength request inside a :meth:`RwaEngine.plan_batch` round.

    Attributes:
        source: Source ROADM node.
        destination: Destination ROADM node.
        rate_bps: Requested line rate.
        excluded_links: Link keys to route around.
        excluded_nodes: Intermediate nodes to avoid.
    """

    source: str
    destination: str
    rate_bps: float
    excluded_links: Tuple[Tuple[str, str], ...] = ()
    excluded_nodes: Tuple[str, ...] = ()


class BatchPlanItem:
    """Per-request outcome of a :meth:`RwaEngine.plan_batch` round.

    A plain ``__slots__`` class rather than a dataclass: scheduling
    rounds allocate one per order, so the per-instance ``__dict__`` is
    measurable overhead at batch sizes in the hundreds.

    Attributes:
        request: The request this outcome answers.
        plan: The assignment, when planning succeeded.
        error: The planning error, when it did not.
        contended: True when the request failed *only* because earlier
            requests in the same round claimed the wavelengths it needed
            — i.e. it would have planned against the live inventory
            alone.  Contended failures are worth retrying next round;
            uncontended ones are genuine blocks.
    """

    __slots__ = ("request", "plan", "error", "contended")

    def __init__(
        self,
        request: PlanRequest,
        plan: Optional[RwaPlan] = None,
        error: Optional[GriphonError] = None,
        contended: bool = False,
    ) -> None:
        self.request = request
        self.plan = plan
        self.error = error
        self.contended = contended

    @property
    def ok(self) -> bool:
        """True when the request received a plan."""
        return self.plan is not None

    def __repr__(self) -> str:
        status = "ok" if self.ok else (
            "contended" if self.contended else "blocked"
        )
        return (
            f"BatchPlanItem({self.request.source}->"
            f"{self.request.destination}, {status})"
        )


class _PlanningRound:
    """Shared per-round planning state for :meth:`RwaEngine.plan_batch`.

    Memoizes the pure, inventory-derived intermediates (candidate
    routes, path liveness, regen segmentation, per-segment free-channel
    sets) so a round of N requests over few distinct routes does the
    expensive work once, and carries the round's *shadow claims*: the
    channels already promised to earlier plans in the round, per link.
    Channel sets are kept as bitmasks (bit ``c`` = channel ``c``), the
    form the fiber plant computes them in.
    Nothing here touches the inventory — the overlay mirrors exactly
    what :meth:`LightpathProvisioner.claim` will occupy when the round's
    plans are executed.
    """

    __slots__ = ("routes", "live", "regens", "free", "claimed", "overlay_on")

    def __init__(self) -> None:
        #: route-memo key -> list of candidate paths, or a NoPathError.
        self.routes: Dict[tuple, object] = {}
        #: path tuple -> FiberPlant.path_is_up result.
        self.live: Dict[Tuple[str, ...], bool] = {}
        #: (path tuple, rate) -> regen sites tuple.
        self.regens: Dict[tuple, Tuple[str, ...]] = {}
        #: segment node tuple -> base free-channel mask (live inventory).
        self.free: Dict[Tuple[str, ...], int] = {}
        #: link key -> mask of channels shadow-claimed earlier this round.
        self.claimed: Dict[Tuple[str, str], int] = {}
        #: Cleared while probing whether a failure was contention-only.
        self.overlay_on = True

    def reset(self) -> None:
        """Empty every memo and the overlay so the round can be reused.

        The memoized intermediates depend on live occupancy and plant
        state, so they cannot survive between rounds — but the dict
        objects themselves can, saving reallocation on every scheduling
        tick of a long-running pipeline.
        """
        self.routes.clear()
        self.live.clear()
        self.regens.clear()
        self.free.clear()
        self.claimed.clear()
        self.overlay_on = True

    def claimed_on(self, nodes: Sequence[str]) -> int:
        """Mask of channels already promised on any link of a segment."""
        taken = 0
        if not self.claimed:
            return taken
        for u, v in zip(nodes, nodes[1:]):
            taken |= self.claimed.get((u, v) if u <= v else (v, u), 0)
        return taken

    def commit(self, plan: RwaPlan) -> None:
        """Record a successful plan's channels as claimed for the round."""
        for segment in plan.segments:
            bit = 1 << segment.channel
            for key in segment.links:
                self.claimed[key] = self.claimed.get(key, 0) | bit


class RwaEngine:
    """Computes RWA plans against the live inventory."""

    def __init__(
        self,
        inventory: InventoryDatabase,
        reach: Optional[ReachModel] = None,
        k_paths: int = 4,
        assignment: str = "first-fit",
        streams: Optional[RandomStreams] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if assignment not in ("first-fit", "random"):
            raise ConfigurationError(
                f"assignment must be 'first-fit' or 'random', got {assignment!r}"
            )
        if assignment == "random" and streams is None:
            raise ConfigurationError("random assignment needs RandomStreams")
        if k_paths < 1:
            raise ConfigurationError(f"k_paths must be >= 1, got {k_paths}")
        self._inventory = inventory
        self._reach = reach or ReachModel()
        self._k_paths = k_paths
        self._assignment = assignment
        self._streams = streams
        self._tracer = tracer
        # Reused (reset, not reallocated) by every plan call and every
        # plan_batch call that does not bring its own round.
        self._round = _PlanningRound()

    @property
    def reach_model(self) -> ReachModel:
        """The optical reach model the engine segments routes with.

        Exposed so the re-optimization snapshot can segment candidate
        routes exactly the way :meth:`plan` and :meth:`plan_explicit`
        will.
        """
        return self._reach

    def route_cache_stats(self) -> dict:
        """All-zero counters of the route cache that no longer exists.

        Kept while ``bench/`` is frozen: ``bench/workloads.py`` reads it
        (through ``controller.planning``) on every run.
        """
        return {
            "size": 0,
            "capacity": 0,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }

    def plan(
        self,
        source: str,
        destination: str,
        rate_bps: float,
        excluded_links: Iterable[Tuple[str, str]] = (),
        excluded_nodes: Iterable[str] = (),
        avoid_srlgs_of: Optional[List[str]] = None,
        parent_span: Optional[Span] = None,
    ) -> RwaPlan:
        """Compute a route and wavelength assignment.

        Args:
            source: Source ROADM node.
            destination: Destination ROADM node.
            rate_bps: Requested line rate.
            excluded_links: Link keys to route around (failed or under
                maintenance).
            excluded_nodes: Intermediate nodes to avoid.
            avoid_srlgs_of: When set to a node path, the plan must also be
                SRLG-disjoint from it (the bridge-and-roll constraint).
            parent_span: Tracing span to nest the ``rwa.plan`` span
                under (ignored unless the engine's tracer is enabled).

        Raises:
            NoPathError: if no candidate route survives the exclusions.
            WavelengthBlockedError: if routes exist but no wavelength (or
                regen segmentation) satisfies continuity on any of them.
        """
        # A one-request round: its memos start empty, nothing is claimed.
        round_ctx = self._round
        round_ctx.reset()
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            # Hot path: one attribute check when tracing is off.
            return self._plan(
                source, destination, rate_bps, excluded_links,
                excluded_nodes, avoid_srlgs_of, round_ctx=round_ctx,
            )
        with tracer.span(
            "rwa.plan", parent=parent_span, source=source,
            destination=destination,
        ) as span:
            result = self._plan(
                source, destination, rate_bps, excluded_links,
                excluded_nodes, avoid_srlgs_of, round_ctx=round_ctx,
            )
            span.set_tag("hops", result.hop_count)
            span.set_tag("regens", len(result.regen_sites))
            return result

    def plan_batch(
        self,
        requests: Sequence[PlanRequest],
        parent_span: Optional[Span] = None,
        round_ctx: Optional["_PlanningRound"] = None,
    ) -> List[BatchPlanItem]:
        """Plan a scheduling round of requests with shared state.

        Requests are planned in order against one :class:`_PlanningRound`:
        route enumeration, liveness filtering, regen segmentation, and
        free-channel scans are memoized across the round, and each
        successful plan's channels are shadow-claimed so later requests
        cannot be assigned a wavelength an earlier request already won.
        A single-request batch is exactly equivalent to :meth:`plan` —
        same plan, same errors — because both run the same ``_plan``
        pipeline under a freshly reset round.

        Failures never raise; each request gets a :class:`BatchPlanItem`
        carrying either the plan or the error, with ``contended`` set
        when the request lost only to earlier claims in this round.

        Args:
            requests: The round's requests, planned in order.
            parent_span: Tracing parent for the ``rwa.plan_batch`` span.
            round_ctx: An externally owned round to plan under.  The
                default (``None``) uses an engine-owned round reset at
                entry — the common case.  Callers that split one logical
                round across several ``plan_batch`` calls (the sharded
                planner claiming gateway/express resources) pass their
                own round so shadow claims accumulate across calls; the
                caller is then responsible for resetting it between
                logical rounds.
        """
        if round_ctx is None:
            # Reuse one engine-owned round across calls: the memo dicts
            # are cleared, not reallocated, on every scheduling tick.
            round_ctx = self._round
            round_ctx.reset()
        items: List[BatchPlanItem] = []
        tracer = self._tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.span(
                "rwa.plan_batch", parent=parent_span, requests=len(requests)
            )
        try:
            for request in requests:
                try:
                    plan = self._plan(
                        request.source,
                        request.destination,
                        request.rate_bps,
                        request.excluded_links,
                        request.excluded_nodes,
                        round_ctx=round_ctx,
                    )
                except GriphonError as exc:
                    contended = self._contention_only(request, exc, round_ctx)
                    items.append(
                        BatchPlanItem(request, error=exc, contended=contended)
                    )
                    continue
                round_ctx.commit(plan)
                items.append(BatchPlanItem(request, plan=plan))
        finally:
            if span is not None:
                span.set_tag("planned", sum(1 for i in items if i.ok))
                span.set_tag(
                    "contended", sum(1 for i in items if i.contended)
                )
                span.finish()
        return items

    def plan_explicit(
        self,
        path: Sequence[str],
        channels: Sequence[int],
        rate_bps: float,
    ) -> RwaPlan:
        """Build a plan for an explicit route and per-segment channels.

        The global re-optimizer's entry into the claim machinery: a
        :class:`~repro.optimize.planner.MigrationMove` already names the
        exact route and wavelength per regen-free segment, and the
        migration executor realizes it by handing the resulting plan to
        ``migrations.move(plan=...)``.  The route is segmented with the
        engine's own reach model (so the segmentation matches what
        :meth:`plan` would produce for the same route), and each
        requested channel is validated to be currently free along its
        whole segment.

        Args:
            path: Node route from source to destination ROADM.
            channels: One channel per regen-free segment, in path order.
            rate_bps: Line rate of the wavelength.

        Raises:
            ConfigurationError: for a malformed path or a channel count
                that does not match the route's regen segmentation.
            NoPathError: when the route crosses a failed link.
            WavelengthBlockedError: when a requested channel is not free
                on every link of its segment.
        """
        path = list(path)
        if len(path) < 2:
            raise ConfigurationError("explicit path needs >= 2 nodes")
        graph = self._inventory.graph
        graph.links_on_path(path)  # raises TopologyError on a bad route
        if not self._inventory.plant.path_is_up(path):
            raise NoPathError(f"explicit route {' - '.join(path)} is failed")
        regen_sites = self._reach.regen_sites(graph, path, rate_bps)
        boundaries = [path[0]] + regen_sites + [path[-1]]
        position = {node: index for index, node in enumerate(path)}
        indices = [position[b] for b in boundaries]
        segment_nodes = [
            path[start : end + 1] for start, end in zip(indices, indices[1:])
        ]
        if len(channels) != len(segment_nodes):
            raise ConfigurationError(
                f"route {' - '.join(path)} has {len(segment_nodes)} regen "
                f"segment(s); got {len(channels)} channel(s)"
            )
        segments = []
        for nodes, channel in zip(segment_nodes, channels):
            free = self._inventory.plant.common_free_channels(nodes)
            if channel not in free:
                raise WavelengthBlockedError(
                    f"channel {channel} is not free on the whole segment "
                    f"{' - '.join(nodes)}"
                )
            segments.append(Segment(list(nodes), int(channel)))
        return RwaPlan(path, segments, list(regen_sites), rate_bps)

    def _contention_only(
        self,
        request: PlanRequest,
        exc: GriphonError,
        round_ctx: "_PlanningRound",
    ) -> bool:
        """Would the failed request have planned without the round overlay?

        Only wavelength blocks can be caused by the overlay (routes and
        reach do not depend on occupancy), and only when something was
        actually claimed this round.
        """
        if not round_ctx.claimed or not isinstance(exc, WavelengthBlockedError):
            return False
        round_ctx.overlay_on = False
        try:
            self._plan(
                request.source,
                request.destination,
                request.rate_bps,
                request.excluded_links,
                request.excluded_nodes,
                round_ctx=round_ctx,
            )
            return True
        except GriphonError:
            return False
        finally:
            round_ctx.overlay_on = True

    def _plan(
        self,
        source: str,
        destination: str,
        rate_bps: float,
        excluded_links: Iterable[Tuple[str, str]] = (),
        excluded_nodes: Iterable[str] = (),
        avoid_srlgs_of: Optional[List[str]] = None,
        *,
        round_ctx: _PlanningRound,
    ) -> RwaPlan:
        """The untraced planning pipeline behind :meth:`plan` and
        :meth:`plan_batch`, memoized on (and shadowed by) ``round_ctx``."""
        if source == destination:
            raise ConfigurationError("source and destination must differ")
        graph = self._inventory.graph
        banned_links = set(excluded_links)
        banned_nodes = set(excluded_nodes)
        if avoid_srlgs_of is not None:
            banned_links |= {
                link.key for link in graph.links_on_path(avoid_srlgs_of)
            }
            for srlg in graph.srlgs_on_path(avoid_srlgs_of):
                banned_links |= {link.key for link in graph.links_in_srlg(srlg)}
            banned_nodes |= set(avoid_srlgs_of[1:-1])
        live = 0
        failures = []
        for path in self._routes_shortest_first(
            source, destination, banned_links, banned_nodes, round_ctx
        ):
            if not self._path_is_up(path, round_ctx):
                continue
            live += 1
            try:
                segments, regen_sites = self._assign(path, rate_bps, round_ctx)
            except (WavelengthBlockedError, SignalError) as exc:
                # SignalError: a single link on this route exceeds the
                # optical reach at this rate, so the route is unusable.
                failures.append(str(exc))
                continue
            return RwaPlan(path, segments, regen_sites, rate_bps)
        if not live:
            raise NoPathError(
                f"all candidate routes {source} -> {destination} are failed"
            )
        raise WavelengthBlockedError(
            f"no wavelength assignment on any of {live} routes "
            f"{source} -> {destination}: " + "; ".join(failures)
        )

    # -- internals ------------------------------------------------------------

    def _routes_shortest_first(
        self,
        source: str,
        destination: str,
        banned_links: set,
        banned_nodes: set,
        round_ctx: _PlanningRound,
    ) -> Iterator[List[str]]:
        """The ``k_paths`` candidate routes, searched only as far as read.

        Nearly every plan takes the shortest route, so that one is
        fetched alone (``k = 1``: a single search, no Yen spurs); the
        full ``k_paths`` list is asked for only when the caller comes
        back for more because the shortest was down or unassignable.
        Yen's first path does not depend on ``k``, so the sequence
        yielded equals ``k_shortest_paths(..., k_paths)`` exactly.
        """
        yield self._candidate_routes(
            source, destination, 1, banned_links, banned_nodes, round_ctx
        )[0]
        if self._k_paths > 1:
            yield from islice(
                self._candidate_routes(
                    source, destination, self._k_paths,
                    banned_links, banned_nodes, round_ctx,
                ),
                1,
                None,
            )

    def _candidate_routes(
        self,
        source: str,
        destination: str,
        k: int,
        banned_links: set,
        banned_nodes: set,
        round_ctx: _PlanningRound,
    ) -> List[List[str]]:
        """The ``k`` shortest routes: one graph search per distinct request.

        Within a planning round the result (or the NoPathError) is
        memoized on the round, so a repeated request does no search at
        all; nothing is kept between rounds, so there is nothing to
        invalidate.  A memoized list is shared: read-only.
        """
        memo_key = (
            source,
            destination,
            k,
            frozenset(banned_links),
            frozenset(banned_nodes),
        )
        memoized = round_ctx.routes.get(memo_key)
        if memoized is not None:
            if isinstance(memoized, NoPathError):
                raise memoized
            return memoized  # type: ignore[return-value]
        try:
            routes = self._inventory.graph.k_shortest_paths(
                source,
                destination,
                k,
                excluded_links=banned_links,
                excluded_nodes=banned_nodes,
            )
        except NoPathError as exc:
            round_ctx.routes[memo_key] = exc
            raise
        round_ctx.routes[memo_key] = routes
        return routes

    def _path_is_up(self, path: List[str], round_ctx: _PlanningRound) -> bool:
        """Liveness of a candidate path, memoized across a planning round."""
        key = tuple(path)
        up = round_ctx.live.get(key)
        if up is None:
            up = self._inventory.plant.path_is_up(path)
            round_ctx.live[key] = up
        return up

    def _assign(
        self,
        path: List[str],
        rate_bps: float,
        round_ctx: _PlanningRound,
    ) -> Tuple[List[Segment], List[str]]:
        """Segment a route at regen sites and pick a channel per segment."""
        regen_key = (tuple(path), rate_bps)
        memoized = round_ctx.regens.get(regen_key)
        if memoized is None:
            regen_sites = self._reach.regen_sites(
                self._inventory.graph, path, rate_bps
            )
            round_ctx.regens[regen_key] = tuple(regen_sites)
        else:
            regen_sites = list(memoized)
        boundaries = [path[0]] + regen_sites + [path[-1]]
        # Candidate routes are simple paths, so node names are unique and
        # a single node->index map replaces the O(n^2) repeated .index().
        position = {node: index for index, node in enumerate(path)}
        indices = [position[b] for b in boundaries]
        segments = []
        for start, end in zip(indices, indices[1:]):
            nodes = path[start : end + 1]
            channel = self._pick_channel(nodes, round_ctx)
            segments.append(Segment(nodes, channel))
        return segments, regen_sites

    def _pick_channel(
        self,
        nodes: List[str],
        round_ctx: _PlanningRound,
    ) -> int:
        key = tuple(nodes)
        free = round_ctx.free.get(key)
        if free is None:
            free = round_ctx.free[key] = self._inventory.plant.common_free_mask(
                nodes
            )
        if round_ctx.overlay_on:
            free &= ~round_ctx.claimed_on(nodes)
        # The end ROADMs must also have the channel free on the relevant
        # degree (a previous segment of this very plan could contend, but
        # plans are executed atomically per segment, so link occupancy is
        # the authoritative constraint here).
        if not free:
            raise WavelengthBlockedError(
                f"no common free wavelength on segment {' - '.join(nodes)}"
            )
        if self._assignment == "first-fit":
            return (free & -free).bit_length() - 1
        return self._streams.choice(
            "rwa:random-channel",
            [ch for ch in range(free.bit_length()) if free >> ch & 1],
        )
