"""Persistent shard workers: long-lived plan-RPC processes.

The resident planning layer behind ``ShardedNetwork(backend="pool")``:
one worker process per planning unit stands up an empty fiber plant
over the unit's graph once, keeps it a warm mirror of the parent's
plant, and plans the requests each placement round sends it.

* :class:`UnitRecipe` — the unit's name, graph and planning knobs.  It
  is frozen, hashable, and the pool's worker key: two callers handing
  over the same graph object share one warm worker.
* ``_worker_main`` — the worker process loop.  It builds its plant
  **once**, then serves RPCs over a multiprocessing pipe until told to
  shut down: ``round`` (one placement round's message: a round number
  that resets the worker's persistent shadow-claim overlay when it
  changes, on first contact in the round the occupancy delta from the
  parent-side plant mirror, and the unit's request list),
  ``cut``/``repair`` (chaos hooks), ``fingerprint`` (structural digest
  for determinism gates) and ``ping``.
* :class:`ShardWorkerPool` — the parent-side pool: spawn, RPC fan-out
  with per-worker FIFO pipelining that always drains every reply,
  journal-based rebuild-and-replay recovery after a crash
  (:class:`~repro.errors.WorkerCrashed`) for single calls and fan-outs
  alike, and graceful context-manager shutdown.

**Determinism.**  A plan's outcome depends only on the unit's graph,
its fiber plant (occupancy bitmasks, link liveness), and the reach
model — never on equipment pools, which are consumed at claim time in
the parent.  A worker planning over the parent's graph with a mirrored
plant (a ``round`` message's delta-sync) therefore plans
byte-identically to the in-process engine, with no equipment installed;
``tests/test_shard_pool_differential.py`` pins this.  The only planning
state a worker carries from one RPC to the next is the round's
:class:`_PlanningRound` (route memo + shadow claims), reset when the
round number changes — the same lifetime it has in process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.inventory import InventoryDatabase
from repro.core.rwa import RwaEngine, _PlanningRound
from repro.errors import ConfigurationError, GriphonError, WorkerCrashed
from repro.fingerprint import plant_fingerprint
from repro.optical.wavelength import WavelengthGrid
from repro.topo.graph import NetworkGraph

#: Channel owner of everything a worker lights: delta-sync occupancy
#: held only to mirror the parent plant.
MIRROR_OWNER = "~mirror"

#: RPC ops that mutate worker state and therefore enter the replay
#: journal (``round`` for its sync and for the overlay its plans leave,
#: which the round's next message plans against).
_MUTATING_OPS = frozenset({"round", "cut", "repair"})

#: Seconds a worker gets to exit before :func:`_reap` escalates.
_REAP_TIMEOUT_S = 10.0

#: Seconds a fresh worker gets to report ready.  It only builds an
#: empty plant over the graph it was handed — no topology generation,
#: no equipment — so a worker this slow is stuck, not busy.
_BUILD_TIMEOUT_S = 60.0

#: Seconds a worker gets to answer one RPC.  The slowest, a ``round``
#: message, is milliseconds of planning (a batch of segment plans over
#: one unit's plant), so a worker silent this long is stuck, not busy.
_RPC_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class UnitRecipe:
    """What a worker plans over: one unit's graph and planning knobs.

    The pool keys workers by this recipe: same recipe, same worker, same
    warm state.  ``graph`` compares and hashes by identity, so a recipe
    names the parent's own graph object, not a topology equal to it.
    ``unit`` is the unit's label (a region name, :data:`~repro.topo.
    hierarchy.EXPRESS`, or the monolithic twin's name).
    """

    unit: str
    graph: NetworkGraph
    grid_size: int = 80
    k_paths: int = 4


# -- the worker process -------------------------------------------------------


def _encode_error(exc: BaseException) -> Tuple[str, str]:
    return type(exc).__name__, str(exc)


def _rebuild_error(type_name: str, message: str) -> GriphonError:
    """Rebuild a worker-reported error as its original library type."""
    from repro import errors as errors_module

    cls = getattr(errors_module, type_name, None)
    if isinstance(cls, type) and issubclass(cls, GriphonError):
        return cls(message)
    return GriphonError(f"{type_name}: {message}")


class _WorkerState:
    """Everything one worker holds between RPCs."""

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
            return self.rwa.plan_batch(
                payload["requests"], round_ctx=self.round
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


def _worker_main(conn, recipe: UnitRecipe) -> None:
    """The worker process: build once, serve RPCs until shutdown."""
    try:
        state = _WorkerState(recipe)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send(("fatal", _encode_error(exc)))
        finally:
            conn.close()
        return
    conn.send(("ready", None))
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        if op == "shutdown":
            conn.send(("ok", None))
            break
        try:
            result = state.dispatch(op, payload)
        except Exception as exc:  # noqa: BLE001 - errors are replies
            try:
                conn.send(("error", _encode_error(exc)))
            except Exception:  # noqa: BLE001 - parent went away
                break
        else:
            conn.send(("ok", result))
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


class _Worker:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("recipe", "process", "conn", "journal", "pending", "failed")

    def __init__(self, recipe, process, conn, journal) -> None:
        self.recipe = recipe
        self.process = process
        self.conn = conn
        #: Why this worker is condemned: its pipe may hold a reply no
        #: request will match, so send and receive re-raise until respawn.
        self.failed: Optional[WorkerCrashed] = None
        #: Mutating ops acknowledged by the worker, in order — replayed
        #: into a fresh process to rebuild identical state after a crash.
        self.journal: List[Tuple[str, Any]] = journal
        #: RPCs sent but not yet answered (per-worker FIFO pipeline).
        self.pending: Deque[Tuple[str, Any]] = deque()


class ShardWorkerPool:
    """Long-lived plan-RPC workers, one per distinct :class:`UnitRecipe`.

    The pool is the resident planning layer: a worker builds its plant
    once and keeps its occupancy bitmasks warm across rounds and
    callers.  Use it as a context manager — ``close()``
    shuts every worker down gracefully and reaps the processes (no
    zombies).

    Args:
        recipes: Recipes to spawn eagerly; more join via :meth:`ensure`.
        recover: When True, a :class:`~repro.errors.WorkerCrashed` on
            :meth:`call`/:meth:`call_many` triggers automatic
            rebuild-and-replay (:meth:`respawn`) and one retry instead
            of propagating.
    """

    def __init__(
        self, recipes: Iterable[UnitRecipe] = (), recover: bool = False
    ) -> None:
        self._workers: Dict[UnitRecipe, _Worker] = {}
        self._recover = recover
        self._closed = False
        self._ctx = get_context()
        for recipe in recipes:
            self.ensure(recipe)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def size(self) -> int:
        """Worker processes currently in the pool."""
        return len(self._workers)

    def recipes(self) -> List[UnitRecipe]:
        """The recipes with a live worker, in spawn order."""
        return list(self._workers)

    def process_of(self, recipe: UnitRecipe):
        """The :class:`multiprocessing.Process` serving ``recipe``."""
        return self._workers[recipe].process

    def answered(self, recipe: UnitRecipe, payload: Any) -> bool:
        """Whether ``recipe``'s worker replied (an error reply counts) to
        the mutating RPC carrying ``payload``, so a respawn replays it.

        Only the worker's latest mutating RPC is looked at: ask right
        after the call, before sending that worker another.
        """
        worker = self._workers.get(recipe)
        return (
            worker is not None
            and bool(worker.journal)
            and worker.journal[-1][1] is payload
        )

    def ensure(self, recipe: UnitRecipe) -> None:
        """Spawn a worker for ``recipe`` unless one is already live."""
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        if recipe not in self._workers:
            self._workers[recipe] = self._spawn(recipe)

    def close(self, timeout_s: float = _REAP_TIMEOUT_S) -> None:
        """Shut every worker down and reap the processes.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.conn.send(("shutdown", None))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers.values():
            worker.process.join(timeout=timeout_s)
            _reap(worker.process, timeout_s)
            worker.conn.close()

    def respawn(self, recipe: UnitRecipe) -> None:
        """Replace a (crashed) worker and replay its journal.

        The journal holds every acknowledged mutating op in order, so
        the fresh process deterministically reaches the exact state the
        old one held — including ops that *failed* deterministically
        (their replay fails identically and is swallowed).  In-flight
        unacknowledged RPCs are not replayed; the caller re-issues them.
        """
        old = self._workers.pop(recipe)
        _reap(old.process, _REAP_TIMEOUT_S)
        old.conn.close()
        fresh = self._spawn(recipe)
        self._workers[recipe] = fresh
        for op, payload in list(old.journal):
            self._send(fresh, op, payload)
            try:
                self._receive(fresh)
            except WorkerCrashed:
                raise
            except GriphonError:
                pass

    def _spawn(self, recipe: UnitRecipe) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, recipe),
            name=f"shard-worker:{recipe.unit}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_BUILD_TIMEOUT_S):
            failure = f"did not come up within {_BUILD_TIMEOUT_S}s"
        else:
            try:
                tag, info = parent_conn.recv()
            except (EOFError, OSError) as exc:  # died without a word
                tag, info = "fatal", _encode_error(exc)
            if tag == "ready":
                return _Worker(recipe, process, parent_conn, journal=[])
            failure = f"failed to build: {info[0]}: {info[1]}"
        # No worker to hand back: reap the process and give up our pipe
        # end and its sentinel here, or every failed spawn leaks them.
        _reap(process, _REAP_TIMEOUT_S)
        process.close()
        parent_conn.close()
        raise WorkerCrashed(f"shard worker {recipe.unit!r} {failure}")

    # -- RPC plumbing ---------------------------------------------------------

    def _require(self, recipe: UnitRecipe) -> _Worker:
        self.ensure(recipe)
        return self._workers[recipe]

    def _send(self, worker: _Worker, op: str, payload: Any) -> None:
        if worker.failed is not None:
            raise worker.failed
        try:
            worker.conn.send((op, payload))
        except (BrokenPipeError, OSError) as exc:
            worker.failed = WorkerCrashed(
                f"shard worker {worker.recipe.unit!r} died before "
                f"{op!r} could be sent: {exc}"
            )
            raise worker.failed from None
        worker.pending.append((op, payload))

    def _receive(self, worker: _Worker) -> Any:
        if worker.failed is not None:
            raise worker.failed
        op = worker.pending[0][0] if worker.pending else "?"
        try:
            if not worker.conn.poll(_RPC_TIMEOUT_S):
                raise TimeoutError(f"no reply within {_RPC_TIMEOUT_S}s")
            tag, result = worker.conn.recv()
        except (EOFError, OSError) as exc:
            # A late reply must never answer a later request: the worker
            # is condemned, not just this RPC.
            worker.pending.clear()
            worker.failed = WorkerCrashed(
                f"shard worker {worker.recipe.unit!r} lost awaiting the "
                f"reply to {op!r}: {exc or 'pipe closed'}"
            )
            raise worker.failed from None
        op, payload = worker.pending.popleft()
        if op in _MUTATING_OPS:
            worker.journal.append((op, payload))
        if tag == "error":
            raise _rebuild_error(*result)
        return result

    def _reply(self, calls: Sequence[Tuple[UnitRecipe, str, Any]], index: int):
        """The reply to ``calls[index]``, recovering its worker once:
        respawn, replay the journal, resend this and the worker's later
        calls of the fan-out.  Workers share no state, so the others'
        replies — read before or after — are unaffected."""
        recipe = calls[index][0]
        try:
            return self._receive(self._workers[recipe])
        except WorkerCrashed:
            if not self._recover or self._closed:
                raise
        self.respawn(recipe)
        for again, op, payload in calls[index:]:
            if again == recipe:
                self._send(self._workers[recipe], op, payload)
        return self._receive(self._workers[recipe])

    def _exchange(self, calls: Sequence[Tuple[UnitRecipe, str, Any]]) -> List[Any]:
        # Shared by call/call_many so neither runs through the other's
        # public name (callers instrument both and must not count twice).
        workers = [self._require(recipe) for recipe, _, _ in calls]
        for worker, (_, op, payload) in zip(workers, calls):
            try:
                self._send(worker, op, payload)
            except WorkerCrashed:
                pass  # resurfaces, and is recovered, at this call's reply
        replies: List[Any] = []
        errors: List[GriphonError] = []
        for index in range(len(calls)):
            # Every reply is read even after an error, or the next RPC to
            # that worker would be answered by this fan-out's leftovers.
            try:
                replies.append(self._reply(calls, index))
            except GriphonError as exc:
                replies.append(None)
                errors.append(exc)
        if errors:
            raise errors[0]
        return replies

    # -- public RPC surface ---------------------------------------------------

    def call(self, recipe: UnitRecipe, op: str, payload: Any = None) -> Any:
        """One RPC to one worker; blocks for the reply.

        Worker-reported errors are re-raised as their original library
        types.  With ``recover=True`` a crashed worker is respawned,
        its journal replayed, and the RPC retried once.
        """
        return self._exchange([(recipe, op, payload)])[0]

    def call_many(
        self, calls: Sequence[Tuple[UnitRecipe, str, Any]]
    ) -> List[Any]:
        """Fan RPCs out to their workers, then collect replies in order.

        All sends happen before any receive, so calls to *different*
        workers execute concurrently; calls to the same worker pipeline
        FIFO through its pipe.  Every reply is read before the first
        error (in call order) is raised, and crash recovery works per
        worker exactly as in :meth:`call`.
        """
        return self._exchange(list(calls))
