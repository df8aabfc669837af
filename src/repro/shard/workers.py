"""Persistent shard workers: long-lived plan-RPC processes.

The resident planning layer behind ``ShardedNetwork(backend="pool")``:
one worker process per usable core hosts several planning units.  Each
unit stands up an empty fiber plant over its graph once, keeps it a
warm mirror of the parent's plant, and plans the requests each
placement round sends it.

* :class:`UnitRecipe` — the unit's name, graph and planning knobs.  It
  is frozen, hashable, and the pool's unit key: two callers handing
  over the same graph object share one warm unit.
* ``_worker_main`` — the worker process loop.  It builds its units
  **once**, then serves messages over a multiprocessing pipe until told
  to shut down.  A message is a list of calls, each addressed to one
  hosted unit, and is answered by one list of ``(tag, result)``:
  ``round`` (one placement round's message to a unit: a round number
  that resets the unit's persistent shadow-claim overlay when it
  changes, on first contact in the round the occupancy delta from the
  parent-side plant mirror, and the unit's requests as plain tuples —
  see :func:`round_payload` and :func:`round_items`),
  ``cut``/``repair`` (chaos hooks), ``fingerprint`` (structural digest
  for determinism gates), ``ping``, and ``adopt`` (build one more unit
  from a recipe that arrived after the fork).
* :class:`ShardWorkerPool` — the parent-side pool: units dealt onto
  ``min(units, usable cores)`` processes, a fan-out that costs one
  message per touched process and always drains every reply,
  journal-based rebuild-and-replay recovery after a crash
  (:class:`~repro.errors.WorkerCrashed`, which costs every unit of the
  dead process) for single calls and fan-outs alike, and graceful
  context-manager shutdown.

**Determinism.**  A plan's outcome depends only on the unit's graph,
its fiber plant (occupancy bitmasks, link liveness), and the reach
model — never on equipment pools, which are consumed at claim time in
the parent.  A unit planning over the parent's graph with a mirrored
plant (a ``round`` message's delta-sync) therefore plans
byte-identically to the in-process engine, with no equipment installed;
``tests/test_shard_pool_differential.py`` pins this.  The only planning
state a unit carries from one message to the next is the round's
:class:`_PlanningRound` (route memo + shadow claims), reset when the
round number changes — the same lifetime it has in process.  Units
sharing a process share nothing else, so how they are dealt cannot
change a plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.inventory import InventoryDatabase
from repro.core.rwa import (
    BatchPlanItem,
    PlanRequest,
    RwaEngine,
    RwaPlan,
    _PlanningRound,
)
from repro.errors import ConfigurationError, GriphonError, WorkerCrashed
from repro.fingerprint import plant_fingerprint
from repro.optical.lightpath import Segment
from repro.optical.wavelength import WavelengthGrid
from repro.topo.graph import NetworkGraph

#: Channel owner of everything a worker lights: delta-sync occupancy
#: held only to mirror the parent plant.
MIRROR_OWNER = "~mirror"

#: RPC ops that mutate unit state and therefore enter the replay
#: journal (``round`` for its sync and for the overlay its plans leave,
#: which the round's next message plans against).
_MUTATING_OPS = frozenset({"round", "cut", "repair"})

#: Seconds a worker gets to exit before :func:`_reap` escalates.
_REAP_TIMEOUT_S = 10.0

#: Seconds a fresh worker gets to report ready.  It only builds empty
#: plants over the graphs it was handed — no topology generation, no
#: equipment — so a worker this slow is stuck, not busy.
_BUILD_TIMEOUT_S = 60.0

#: Seconds a worker gets to answer one message.  The slowest, a fan-out
#: of ``round`` calls, is milliseconds of planning (a batch of segment
#: plans per hosted unit), so a worker silent this long is stuck, not
#: busy.
_RPC_TIMEOUT_S = 60.0


def _usable_cores() -> int:
    """The cores this process may run on: the pool's process cap."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return os.cpu_count() or 1
    return len(affinity(0))


@dataclass(frozen=True)
class UnitRecipe:
    """What a unit plans over: one graph and the planning knobs.

    The pool keys units by this recipe: same recipe, same unit, same
    warm state.  ``graph`` compares and hashes by identity, so a recipe
    names the parent's own graph object, not a topology equal to it.
    ``unit`` is the unit's label (a region name, :data:`~repro.topo.
    hierarchy.EXPRESS`, or the monolithic twin's name).
    """

    unit: str
    graph: NetworkGraph
    grid_size: int = 80
    k_paths: int = 4


def _encode_error(exc: BaseException) -> Tuple[str, str]:
    return type(exc).__name__, str(exc)


def _rebuild_error(type_name: str, message: str) -> GriphonError:
    """Rebuild a worker-reported error as its original library type."""
    from repro import errors as errors_module

    cls = getattr(errors_module, type_name, None)
    if isinstance(cls, type) and issubclass(cls, GriphonError):
        return cls(message)
    return GriphonError(f"{type_name}: {message}")


# -- the round message --------------------------------------------------------


def round_payload(
    round_no: int, sync: Optional[dict], requests: Sequence[PlanRequest]
) -> dict:
    """One unit's ``round`` message: its requests travel as plain tuples."""
    return {
        "round": round_no,
        "sync": sync,
        "requests": [
            (
                request.source,
                request.destination,
                request.rate_bps,
                request.excluded_links,
                request.excluded_nodes,
            )
            for request in requests
        ],
    }


def _compact(items: Sequence[BatchPlanItem]) -> List[tuple]:
    """A unit's plans as a ``round`` reply carries them."""
    return [
        (
            item.plan.path,
            [segment.channel for segment in item.plan.segments],
            item.plan.regen_sites,
        )
        if item.plan is not None
        else (None, _encode_error(item.error), item.contended)
        for item in items
    ]


def round_items(
    requests: Sequence[PlanRequest], reply: Sequence[tuple]
) -> List[BatchPlanItem]:
    """Rebuild a ``round`` reply around the parent's own requests.

    Segments are cut at the regen sites exactly as ``RwaEngine._assign``
    cuts them, and errors come back as their original types with their
    original messages, so each item equals the one the unit planned.
    """
    items: List[BatchPlanItem] = []
    for request, (path, channels, regen_sites) in zip(requests, reply):
        if path is None:
            (type_name, message), contended = channels, regen_sites
            items.append(
                BatchPlanItem(
                    request,
                    error=_rebuild_error(type_name, message),
                    contended=contended,
                )
            )
            continue
        cuts = [0, *(path.index(site) for site in regen_sites), len(path) - 1]
        segments = [
            Segment(path[start : end + 1], channel)
            for start, end, channel in zip(cuts, cuts[1:], channels)
        ]
        items.append(
            BatchPlanItem(
                request,
                plan=RwaPlan(path, segments, regen_sites, request.rate_bps),
            )
        )
    return items


# -- the worker process -------------------------------------------------------


class _WorkerState:
    """Everything one hosted unit holds between messages."""

    def __init__(self, recipe: UnitRecipe) -> None:
        self.unit = recipe.unit
        #: An empty plant over the parent's graph: no equipment, since
        #: no plan reads any.  Delta syncs light it as the parent's.
        self.inventory = InventoryDatabase(
            recipe.graph, WavelengthGrid(recipe.grid_size)
        )
        self.rwa = RwaEngine(self.inventory, k_paths=recipe.k_paths)
        #: The shadow-claim overlay every ``round`` message of one
        #: placement round plans under, and that round's number.
        self.round = _PlanningRound()
        self.round_no: Optional[int] = None

    # -- delta sync -----------------------------------------------------------

    def _apply_sync(
        self,
        masks: Dict[Tuple[str, str], int],
        cut: Iterable[Tuple[str, str]],
        repair: Iterable[Tuple[str, str]],
    ) -> None:
        """Reconcile the plant with the parent's occupancy + failures.

        Repairs first (occupancy can only change on live links), then
        occupancy deltas under :data:`MIRROR_OWNER`, then cuts.
        """
        plant = self.inventory.plant
        for a, b in repair:
            plant.repair_link(a, b)
        for key, target in masks.items():
            link = plant.dwdm_link(*key)
            full = (1 << link.grid.size) - 1
            current = full & ~link.free_mask()
            stale = current & ~target
            fresh = target & ~current
            # The parent preserves occupancy across fiber cuts (for
            # restoration), so a delta can touch an already-cut link;
            # lift the failure flag around the edit (liveness isn't
            # changing).
            lifted = link.failed and bool(fresh)
            if lifted:
                link.repair()
            while stale:
                low = stale & -stale
                link.release(low.bit_length() - 1, MIRROR_OWNER)
                stale ^= low
            while fresh:
                low = fresh & -fresh
                link.occupy(low.bit_length() - 1, MIRROR_OWNER)
                fresh ^= low
            if lifted:
                link.fail()
        for a, b in cut:
            plant.cut_link(a, b)

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, op: str, payload: Any) -> Any:
        plant = self.inventory.plant
        if op == "round":
            if payload["round"] != self.round_no:
                self.round_no = payload["round"]
                self.round.reset()
            sync = payload["sync"]
            if sync is not None:
                self._apply_sync(sync["masks"], sync["cut"], sync["repair"])
            return _compact(
                self.rwa.plan_batch(
                    [PlanRequest(*request) for request in payload["requests"]],
                    round_ctx=self.round,
                )
            )
        if op == "cut":
            return sorted(plant.cut_link(payload["a"], payload["b"]))
        if op == "repair":
            plant.repair_link(payload["a"], payload["b"])
            return None
        if op == "fingerprint":
            return {"unit": self.unit, "state": plant_fingerprint(plant)}
        if op == "ping":
            return "pong"
        raise ConfigurationError(f"unknown shard-worker op {op!r}")


def _worker_main(conn, recipes: List[UnitRecipe]) -> None:
    """The worker process: build its units once, serve until shutdown.

    A message is a list of ``(slot, op, payload)`` calls — ``slot``
    being the unit's index in this process — or ``None`` to exit.
    """
    try:
        units = [_WorkerState(recipe) for recipe in recipes]
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send(("fatal", _encode_error(exc)))
        finally:
            conn.close()
        return
    conn.send(("ready", None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        replies = []
        for slot, op, payload in message:
            try:
                if op == "adopt":
                    units.append(_WorkerState(payload))
                    result = None
                else:
                    result = units[slot].dispatch(op, payload)
            except Exception as exc:  # noqa: BLE001 - errors are replies
                replies.append(("error", _encode_error(exc)))
            else:
                replies.append(("ok", result))
        try:
            conn.send(replies)
        except OSError:  # the parent went away
            break
    conn.close()


# -- the parent-side pool -----------------------------------------------------


def _reap(process, timeout_s: float) -> None:
    """Leave ``process`` dead and joined — SIGTERM, wait, SIGKILL — so a
    worker deaf to SIGTERM cannot hang the parent recovering from it."""
    if process.is_alive():
        process.terminate()
        process.join(timeout=timeout_s)
    if process.is_alive():
        process.kill()
    process.join()


class _Host:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("units", "process", "conn", "failed")

    def __init__(self) -> None:
        #: The units this process hosts, in slot order.
        self.units: List[_Unit] = []
        self.process = None
        self.conn = None
        #: Why this process is condemned: its pipe may hold a reply no
        #: message will match, so send and receive re-raise until respawn.
        self.failed: Optional[WorkerCrashed] = None

    @property
    def label(self) -> str:
        return "+".join(unit.recipe.unit for unit in self.units)


class _Unit:
    """Parent-side bookkeeping for one hosted planning unit."""

    __slots__ = ("recipe", "host", "slot", "journal")

    def __init__(self, recipe: UnitRecipe, host: _Host) -> None:
        self.recipe = recipe
        self.host = host
        #: The unit's index in its process: what a call addresses.
        self.slot = len(host.units)
        #: Mutating ops the unit acknowledged, in order — replayed into
        #: a fresh process to rebuild identical state after a crash.
        self.journal: List[Tuple[str, Any]] = []


class ShardWorkerPool:
    """Long-lived plan-RPC worker processes hosting :class:`UnitRecipe` units.

    The pool is the resident planning layer: a unit builds its plant
    once and keeps its occupancy bitmasks warm across rounds and
    callers.  The units of the first :meth:`ensure` are dealt onto
    ``min(units, usable cores)`` processes, so a fan-out costs one pipe
    round trip per process, however many units it touches.  Use it as a
    context manager — ``close()`` shuts every process down gracefully
    and reaps it (no zombies).

    Args:
        recipes: Recipes to host at once; more join via :meth:`ensure`.
        recover: When True, a :class:`~repro.errors.WorkerCrashed` on
            :meth:`call`/:meth:`call_many` triggers automatic
            rebuild-and-replay (:meth:`respawn`) and one retry instead
            of propagating.
    """

    def __init__(
        self, recipes: Iterable[UnitRecipe] = (), recover: bool = False
    ) -> None:
        self._units: Dict[UnitRecipe, _Unit] = {}
        self._hosts: List[_Host] = []
        self._recover = recover
        self._closed = False
        self._ctx = get_context()
        self.ensure(*recipes)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def size(self) -> int:
        """Planning units the pool hosts (on at most one process per core)."""
        return len(self._units)

    def recipes(self) -> List[UnitRecipe]:
        """The hosted recipes, in the order they were ensured."""
        return list(self._units)

    def process_of(self, recipe: UnitRecipe):
        """The :class:`multiprocessing.Process` hosting ``recipe``."""
        return self._units[recipe].host.process

    def answered(self, recipe: UnitRecipe, payload: Any) -> bool:
        """Whether ``recipe``'s unit replied (an error reply counts) to
        the mutating RPC carrying ``payload``, so a respawn replays it.

        Only the unit's latest mutating RPC is looked at: ask right
        after the call, before sending that unit another.
        """
        unit = self._units.get(recipe)
        return (
            unit is not None
            and bool(unit.journal)
            and unit.journal[-1][1] is payload
        )

    def ensure(self, *recipes: UnitRecipe) -> None:
        """Host every recipe not hosted yet.

        The first call that brings recipes forks the processes and deals
        the recipes onto them round-robin in argument order, so each
        process builds its units from memory inherited at the fork.  A
        recipe that arrives after that is adopted: sent to the process
        whose turn it is in the same deal.
        """
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        fresh = [
            recipe for recipe in dict.fromkeys(recipes)
            if recipe not in self._units
        ]
        if not fresh:
            return
        if self._hosts:
            for recipe in fresh:
                self._adopt(recipe)
            return
        hosts = [_Host() for _ in range(min(len(fresh), _usable_cores()))]
        units = {}
        for index, recipe in enumerate(fresh):
            host = hosts[index % len(hosts)]
            units[recipe] = _Unit(recipe, host)
            host.units.append(units[recipe])
        self._spawn(hosts)
        self._hosts = hosts
        self._units.update(units)

    def close(self, timeout_s: float = _REAP_TIMEOUT_S) -> None:
        """Shut every process down and reap it.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for host in self._hosts:
            if host.process.is_alive():
                try:
                    host.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for host in self._hosts:
            host.process.join(timeout=timeout_s)
            _reap(host.process, timeout_s)
            host.conn.close()

    def respawn(self, recipe: UnitRecipe) -> None:
        """Replace the (crashed) process hosting ``recipe`` and replay.

        The fresh process builds every unit the old one hosted, then
        replays each unit's journal: every acknowledged mutating op, in
        order, so each unit deterministically reaches the exact state it
        held — including ops that *failed* deterministically (their
        replay fails identically and is dropped).  In-flight
        unacknowledged calls are not replayed; the caller re-issues them.
        """
        self._respawn(self._units[recipe].host)

    def _respawn(self, host: _Host) -> None:
        _reap(host.process, _REAP_TIMEOUT_S)
        host.conn.close()
        try:
            self._spawn([host])
        except WorkerCrashed:
            # Nothing is left to host these units: forget them.
            self._hosts.remove(host)
            for unit in host.units:
                del self._units[unit.recipe]
            raise
        replay = [
            (unit.slot, op, payload)
            for unit in host.units
            for op, payload in unit.journal
        ]
        if replay:
            self._send(host, replay)
            self._receive(host)

    def _spawn(self, hosts: List[_Host]) -> None:
        """Fork a process per host, then wait until each built its units.

        If any does not come up, every one of them is reaped and our pipe
        end and its sentinel closed here, or a failed spawn leaks them.
        """
        for host in hosts:
            parent_conn, child_conn = self._ctx.Pipe()
            host.process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, [unit.recipe for unit in host.units]),
                name=f"shard-worker:{host.label}",
                daemon=True,
            )
            host.process.start()
            child_conn.close()
            host.conn = parent_conn
            host.failed = None
        for host in hosts:
            failure = self._ready(host)
            if failure is not None:
                for doomed in hosts:
                    _reap(doomed.process, _REAP_TIMEOUT_S)
                    doomed.process.close()
                    doomed.conn.close()
                raise WorkerCrashed(f"shard worker {host.label!r} {failure}")

    @staticmethod
    def _ready(host: _Host) -> Optional[str]:
        """None once ``host`` reports its units built, else why not."""
        if not host.conn.poll(_BUILD_TIMEOUT_S):
            return f"did not come up within {_BUILD_TIMEOUT_S}s"
        try:
            tag, info = host.conn.recv()
        except (EOFError, OSError) as exc:  # died without a word
            tag, info = "fatal", _encode_error(exc)
        if tag == "ready":
            return None
        return f"failed to build: {info[0]}: {info[1]}"

    def _adopt(self, recipe: UnitRecipe) -> None:
        """Host ``recipe`` in a running process, continuing the deal."""
        host = self._hosts[len(self._units) % len(self._hosts)]
        unit = _Unit(recipe, host)
        self._send(host, [(unit.slot, "adopt", recipe)])
        [(tag, info)] = self._receive(host)
        if tag == "error":
            raise WorkerCrashed(
                f"shard worker {recipe.unit!r} failed to build: "
                f"{info[0]}: {info[1]}"
            )
        host.units.append(unit)
        self._units[recipe] = unit

    # -- RPC plumbing ---------------------------------------------------------

    def _send(self, host: _Host, message: List[Tuple[int, str, Any]]) -> None:
        if host.failed is not None:
            raise host.failed
        try:
            host.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            host.failed = WorkerCrashed(
                f"shard worker {host.label!r} died before a message could "
                f"be sent: {exc}"
            )
            raise host.failed from None

    def _receive(self, host: _Host) -> List[Tuple[str, Any]]:
        if host.failed is not None:
            raise host.failed
        try:
            if not host.conn.poll(_RPC_TIMEOUT_S):
                raise TimeoutError(f"no reply within {_RPC_TIMEOUT_S}s")
            return host.conn.recv()
        except (EOFError, OSError) as exc:
            # A late reply must never answer a later message: the
            # process is condemned, not just this message.
            host.failed = WorkerCrashed(
                f"shard worker {host.label!r} lost awaiting its reply: "
                f"{exc or 'pipe closed'}"
            )
            raise host.failed from None

    def _answers(
        self, host: _Host, message: List[Tuple[int, str, Any]]
    ) -> List[Tuple[str, Any]]:
        """``host``'s reply to ``message``, recovering the process once:
        respawn, replay every hosted unit's journal, resend the message.
        Processes share no state, so the others' replies — read before
        or after — are unaffected."""
        try:
            return self._receive(host)
        except WorkerCrashed:
            if not self._recover or self._closed:
                raise
        self._respawn(host)
        self._send(host, message)
        return self._receive(host)

    def _exchange(self, calls: Sequence[Tuple[UnitRecipe, str, Any]]) -> List[Any]:
        # Shared by call/call_many so neither runs through the other's
        # public name (callers instrument both and must not count twice).
        self.ensure(*(recipe for recipe, _, _ in calls))
        messages: Dict[_Host, List[Tuple[int, str, Any]]] = {}
        indices: Dict[_Host, List[int]] = {}
        for index, (recipe, op, payload) in enumerate(calls):
            unit = self._units[recipe]
            messages.setdefault(unit.host, []).append((unit.slot, op, payload))
            indices.setdefault(unit.host, []).append(index)
        for host, message in messages.items():
            try:
                self._send(host, message)
            except WorkerCrashed:
                pass  # resurfaces, and is recovered, at this host's reply
        replies: List[Any] = [None] * len(calls)
        errors: List[Tuple[int, GriphonError]] = []
        for host, message in messages.items():
            # Every reply is read even after an error, or the next
            # message to that process would be answered by this
            # fan-out's leftovers.
            try:
                answers = self._answers(host, message)
            except WorkerCrashed as exc:
                errors.append((indices[host][0], exc))
                continue
            for index, (slot, op, payload), (tag, result) in zip(
                indices[host], message, answers
            ):
                if op in _MUTATING_OPS:
                    host.units[slot].journal.append((op, payload))
                if tag == "error":
                    errors.append((index, _rebuild_error(*result)))
                else:
                    replies[index] = result
        if errors:
            raise min(errors, key=lambda error: error[0])[1]
        return replies

    # -- public RPC surface ---------------------------------------------------

    def call(self, recipe: UnitRecipe, op: str, payload: Any = None) -> Any:
        """One RPC to one unit; blocks for the reply.

        Worker-reported errors are re-raised as their original library
        types.  With ``recover=True`` a crashed process is respawned,
        its units' journals replayed, and the RPC retried once.
        """
        return self._exchange([(recipe, op, payload)])[0]

    def call_many(
        self, calls: Sequence[Tuple[UnitRecipe, str, Any]]
    ) -> List[Any]:
        """Fan RPCs out to their units, then collect replies in order.

        The calls are grouped by process, each unit's in call order, and
        every touched process gets one message, all sent before any
        reply is read — so the processes compute concurrently.  Every
        reply is read before the first error (in call order) is raised,
        and crash recovery works per process exactly as in :meth:`call`.
        """
        return self._exchange(list(calls))
