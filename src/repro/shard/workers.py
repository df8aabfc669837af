"""Persistent shard workers: long-lived plan-RPC processes.

The resident planning layer behind ``ShardedNetwork(backend="pool")``:
one worker process per planning unit builds its unit once, keeps a
mirror of the parent's fiber plant warm, and plans the requests each
placement round sends it.

* :class:`UnitRecipe` — the deterministic ``(topology_seed, unit name,
  params)`` recipe a unit rebuilds from.  It is tiny, hashable, and the
  pool's worker key: two callers asking for the same recipe share one
  warm worker.
* ``_worker_main`` — the worker process loop.  It builds its unit
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
the parent.  A worker that rebuilds the unit from the same recipe and
mirrors the plant (a ``round`` message's delta-sync) therefore plans
byte-identically to the in-process engine;
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

from repro.core.rwa import _PlanningRound
from repro.errors import ConfigurationError, GriphonError, WorkerCrashed
from repro.fingerprint import plant_fingerprint
from repro.shard.unit import (
    ShardUnit,
    _install_planning_equipment,
    build_express_unit,
    build_region_unit,
)
from repro.topo.hierarchy import EXPRESS, Hierarchy

#: The recipe unit name for a full-hierarchy (monolithic-twin) worker.
MONOLITH = "mono"

#: Channel owner of everything a worker lights: delta-sync occupancy
#: held only to mirror the parent plant.
MIRROR_OWNER = "~mirror"

#: RPC ops that mutate worker state and therefore enter the replay
#: journal (``round`` for its sync and for the overlay its plans leave,
#: which the round's next message plans against).
_MUTATING_OPS = frozenset({"round", "cut", "repair"})

#: Seconds a worker gets to exit before :func:`_reap` escalates.
_REAP_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class UnitRecipe:
    """Everything needed to rebuild one planning unit deterministically.

    The pool keys workers by this recipe: same recipe, same worker, same
    warm state.  ``unit`` is a region name, :data:`~repro.topo.hierarchy.
    EXPRESS`, or :data:`MONOLITH` for a full-hierarchy worker.
    """

    unit: str
    topology_seed: int
    regions: int
    pops_per_region: int
    gateways_per_region: int = 2
    grid_size: int = 80
    k_paths: int = 4
    region_plane_km: float = 1200.0
    express_length_km: float = 600.0
    alpha: float = 0.4
    beta: float = 0.35
    with_premises: bool = False
    premises_prefix: str = "DC-"
    transponders_10g: int = 6
    regens_10g: int = 4

    @classmethod
    def for_network_unit(
        cls,
        hierarchy: Hierarchy,
        unit: str,
        grid_size: int = 80,
        k_paths: int = 4,
    ) -> "UnitRecipe":
        """The recipe mirroring one :class:`ShardedNetwork` unit."""
        params = hierarchy.params
        return cls(
            unit=unit,
            topology_seed=hierarchy.seed,
            regions=int(params["regions"]),
            pops_per_region=int(params["pops_per_region"]),
            gateways_per_region=int(params["gateways_per_region"]),
            grid_size=grid_size,
            k_paths=k_paths,
            region_plane_km=float(params["region_plane_km"]),
            express_length_km=float(params["express_length_km"]),
            alpha=float(params["alpha"]),
            beta=float(params["beta"]),
            with_premises=bool(params["with_premises"]),
            premises_prefix=str(params["premises_prefix"]),
        )

    def build(self) -> ShardUnit:
        """Rebuild the unit — the one-time cost a worker pays at spawn."""
        if self.unit == EXPRESS:
            return build_express_unit(
                self.regions,
                self.gateways_per_region,
                self.pops_per_region,
                express_length_km=self.express_length_km,
                grid_size=self.grid_size,
                transponders_10g=self.transponders_10g,
                regens_10g=self.regens_10g,
                k_paths=self.k_paths,
            )
        if self.unit == MONOLITH:
            from repro.core.inventory import InventoryDatabase
            from repro.optical.wavelength import WavelengthGrid
            from repro.topo.hierarchy import build_hierarchy

            hierarchy = build_hierarchy(
                self.topology_seed,
                regions=self.regions,
                pops_per_region=self.pops_per_region,
                gateways_per_region=self.gateways_per_region,
                region_plane_km=self.region_plane_km,
                express_length_km=self.express_length_km,
                alpha=self.alpha,
                beta=self.beta,
                with_premises=self.with_premises,
                premises_prefix=self.premises_prefix,
            )
            inventory = InventoryDatabase(
                hierarchy.graph, WavelengthGrid(self.grid_size)
            )
            _install_planning_equipment(
                inventory, self.transponders_10g, self.regens_10g
            )
            return ShardUnit(MONOLITH, inventory, k_paths=self.k_paths)
        return build_region_unit(
            self.topology_seed,
            self.unit,
            self.pops_per_region,
            region_plane_km=self.region_plane_km,
            grid_size=self.grid_size,
            transponders_10g=self.transponders_10g,
            regens_10g=self.regens_10g,
            k_paths=self.k_paths,
            alpha=self.alpha,
            beta=self.beta,
            with_premises=self.with_premises,
            premises_prefix=self.premises_prefix,
        )


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

    def __init__(self, unit: ShardUnit) -> None:
        self.unit = unit
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
        plant = self.unit.inventory.plant
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
        unit = self.unit
        if op == "round":
            if payload["round"] != self.round_no:
                self.round_no = payload["round"]
                self.round.reset()
            sync = payload["sync"]
            if sync is not None:
                self._apply_sync(sync["masks"], sync["cut"], sync["repair"])
            return unit.plan_batch(payload["requests"], round_ctx=self.round)
        if op == "cut":
            return sorted(
                unit.inventory.plant.cut_link(payload["a"], payload["b"])
            )
        if op == "repair":
            unit.inventory.plant.repair_link(payload["a"], payload["b"])
            return None
        if op == "fingerprint":
            return {
                "unit": unit.name,
                "state": plant_fingerprint(unit.inventory.plant),
            }
        if op == "ping":
            return "pong"
        raise ConfigurationError(f"unknown shard-worker op {op!r}")


def _worker_main(conn, recipe: UnitRecipe) -> None:
    """The worker process: build once, serve RPCs until shutdown."""
    try:
        state = _WorkerState(recipe.build())
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

    The pool is the resident planning layer: a worker builds its unit
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
        build_timeout_s / rpc_timeout_s: Watchdogs on worker startup and
            on each reply.
    """

    def __init__(
        self,
        recipes: Iterable[UnitRecipe] = (),
        recover: bool = False,
        build_timeout_s: float = 600.0,
        rpc_timeout_s: float = 600.0,
    ) -> None:
        self._workers: Dict[UnitRecipe, _Worker] = {}
        self._recover = recover
        self._build_timeout_s = build_timeout_s
        self._rpc_timeout_s = rpc_timeout_s
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
        if not parent_conn.poll(self._build_timeout_s):
            failure = f"did not come up within {self._build_timeout_s}s"
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
            if not worker.conn.poll(self._rpc_timeout_s):
                raise TimeoutError(f"no reply within {self._rpc_timeout_s}s")
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
