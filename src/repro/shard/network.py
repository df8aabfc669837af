"""Sharded continental control: per-region controllers stitched at gateways.

A :class:`ShardedNetwork` serves a 3-tier :class:`~repro.topo.hierarchy.
Hierarchy` with one :class:`GriphonController` per planning unit — one
per region plus one for the express tier — all sharing a single
simulator.  A cross-region order is decomposed by the
:class:`~repro.shard.planner.ShardPlanner` into per-unit segments,
claimed synchronously unit by unit (with reverse unwind on any claim
failure), and set up segment by segment through each unit's provisioning
saga.  A segment whose saga rolls back mid-setup unwinds the whole
order: already-UP segments are torn down, every claim is released, and
the order settles BLOCKED with zero residue in *any* shard — the same
guarantee the monolithic controller gives a single-segment order.

**Ownership partitioning.**  Every resource belongs to exactly one
unit.  A gateway PoP appears in two inventories — its region's (metro
side) and the express tier's (long-haul side) — but with disjoint
hardware: separate transponder/regen pools, separate FXCs, separate
ROADM ports.  Region link sets and the express link set are disjoint by
construction, so per-unit planning rounds can never shadow-claim the
same fiber channel, and two shards can never double-claim a gateway or
express resource.  The flip side: the partitioned pools can exhaust
independently where a monolithic shared pool would not, so differential
workloads must stay below transponder exhaustion.

**The monolithic twin.**  ``mode="monolithic"`` builds one controller
over the full 3-tier graph with the same total equipment (gateways get
the doubled complement: region-side plus express-side hardware), and
routes every segment through the *same* decomposition with per-segment
node/link exclusions confining candidate routes to the owning unit's
subgraph.  Identical candidate routes + identical first-fit channel
scans + identical claim order mean identical structural outcomes,
which :func:`repro.fingerprint.outcome_fingerprint` hashes for the differential test.

**The placement round.**  :meth:`ShardedNetwork.place_orders` runs
three phases: *open* every request in order (order id, admission,
decomposition), *plan* each unit's request list once against that
unit's round overlay, *finish* each order in order (failure check, plan
record, claim, setup workflow).  Batching is exact: a unit's plans
depend only on its plant at round start and the sequence of requests
*to that unit* — unit link sets are disjoint, a blocked order's shadow
claims stay for the round, and the overlay already holds whatever a
claim would light — so the only coupling between orders is admission.
One rule keeps that exact too: when admission or decomposition refuses
an order while earlier orders of the round are still unplanned, those
are planned and finished first and the order is looked at again, so it
sees the quota an earlier order's block gave back, and ``blocked``
notifications fire in order.

**The pool backend.**  ``backend="pool"`` moves the plan phase into the
persistent worker processes of :class:`repro.shard.workers.
ShardWorkerPool` — one long-lived worker per unit, each holding a
delta-synced mirror of its unit's fiber plant — while
the controllers stay authoritative for everything stateful: admission,
claims, sagas, teardown.  The plan phase is one ``call_many`` with one
``round`` message per *touched* worker: the round number (a new one
resets the worker's overlay), the unit's requests and, on first contact
in the round, the occupancy/liveness delta since the worker last heard
from us.  An idle worker costs no RPC and no plant scan; its delta
waits.  Because plans depend only on graph + plant + reach — never on
the equipment pools consumed at claim time — pool outcomes are
byte-identical to in-process outcomes, which the pool and round
differential tests pin fingerprint-for-fingerprint.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.admission import AdmissionControl, CustomerProfile
from repro.core.connection import Connection, ConnectionKind, ConnectionState
from repro.core.controller import GriphonController
from repro.core.inventory import InventoryDatabase
from repro.core.rwa import BatchPlanItem, PlanRequest, RwaPlan, _PlanningRound
from repro.errors import ConfigurationError, GriphonError
from repro.faults.audit import AuditReport, audit_network
from repro.faults.plan import FaultPlan
# ``outcome_fingerprint`` is re-exported: the shard differential tests
# import it from here.
from repro.fingerprint import outcome_fingerprint, plant_fingerprint  # noqa: F401
from repro.optical.lightpath import LightpathState
from repro.optical.wavelength import WavelengthGrid
from repro.shard.planner import SegmentSpec, ShardPlanner
from repro.shard.workers import ShardWorkerPool, UnitRecipe
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.topo.hierarchy import EXPRESS, Hierarchy, build_hierarchy
from repro.units import GBPS

#: The monolithic twin's one controller: its label, its audit /
#: fingerprint key, and its worker's unit name.
MONOLITH = "mono"


class _OrderSegment:
    """One claimed segment of an order: its spec and its lightpath."""

    __slots__ = ("spec", "lightpath", "include_fxc")

    def __init__(self, spec: SegmentSpec, lightpath, include_fxc: bool) -> None:
        self.spec = spec
        self.lightpath = lightpath
        self.include_fxc = include_fxc


class ShardOrder:
    """A cross-shard order: one customer request, many unit segments.

    Attributes:
        order_id: Unique id across the sharded network.
        state: Customer-visible state, same enum the monolithic
            controller uses (REQUESTED/SETTING_UP/UP/BLOCKED/...).
        children: Per-unit child :class:`Connection` records — each
            registered with its unit's controller so that shard's
            invariant audit sees a live owner for every claim.
        segments: The claimed lightpath segments, in path order.
        plan_record: Structural planning outcome (unit, path, channels,
            regen sites) captured at plan time — what the differential
            fingerprint hashes, stable even for later-blocked orders.
    """

    __slots__ = (
        "order_id", "customer", "premises_a", "premises_b", "rate_bps",
        "state", "blocked_reason", "children", "segments", "plan_record",
        "up_at", "released_at",
    )

    def __init__(
        self,
        order_id: str,
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
    ) -> None:
        self.order_id = order_id
        self.customer = customer
        self.premises_a = premises_a
        self.premises_b = premises_b
        self.rate_bps = rate_bps
        self.state = ConnectionState.REQUESTED
        self.blocked_reason = ""
        self.children: Dict[str, Connection] = {}
        self.segments: List[_OrderSegment] = []
        self.plan_record: List[dict] = []
        self.up_at: Optional[float] = None
        self.released_at: Optional[float] = None

    def __repr__(self) -> str:
        return (
            f"ShardOrder({self.order_id} [{self.state.value}] "
            f"{self.premises_a} <-> {self.premises_b})"
        )


class _PlantMirror:
    """What a worker has acknowledged of its unit's fiber plant.

    :meth:`delta` is what the next ``round`` message must carry;
    :meth:`acknowledged` adopts it once the worker has replied, never
    before — a worker respawned from its journal holds acknowledged
    syncs only.  ``round`` is the last round the worker opened.  Cut /
    repair RPCs forwarded eagerly (:meth:`ShardedNetwork.cut_fiber`) are
    noted here too, so the next delta doesn't re-send them.
    """

    __slots__ = ("plant", "round", "_masks", "_failed", "_sent")

    def __init__(self, plant) -> None:
        self.plant = plant
        self.round = 0
        self._masks: Dict[Tuple[str, str], int] = {}
        self._failed: frozenset = frozenset()

    def delta(self) -> dict:
        current = self.plant.occupancy_snapshot()
        failed = frozenset(self.plant.failed_links())
        masks = {
            key: mask
            for key, mask in current.items()
            if self._masks.get(key, 0) != mask
        }
        for key in self._masks:
            if key not in current:
                masks[key] = 0
        self._sent = (current, failed)
        return {
            "masks": masks,
            "cut": sorted(failed - self._failed),
            "repair": sorted(self._failed - failed),
        }

    def acknowledged(self, round_no: int) -> None:
        self.round = round_no
        self._masks, self._failed = self._sent

    def note_cut(self, key: Tuple[str, str]) -> None:
        self._failed |= {key}

    def note_repair(self, key: Tuple[str, str]) -> None:
        self._failed -= {key}


class ShardedNetwork:
    """Per-unit controllers over a hierarchy, or their monolithic twin.

    Args:
        hierarchy: The built 3-tier topology (must have premises).
        mode: ``"sharded"`` (one controller per region + express) or
            ``"monolithic"`` (one controller over the full graph).
        backend: ``"inprocess"`` plans through the controllers' own RWA
            engines; ``"pool"`` fans planning out to the persistent
            worker processes of a :class:`~repro.shard.workers.
            ShardWorkerPool` (byte-identical outcomes — see the module
            docstring).  Pool mode makes the network a context manager;
            use ``with`` or call :meth:`close`.
        seed: Seeds each controller's random-stream family.
        transponders_10g / regens_10g: Per-node complement per unit
            (monolithic gateways get double — both units' hardware).
        grid_size: DWDM channels per fiber.
        k_paths: Candidate routes per segment plan.
        fault_plans: Optional per-unit fault plans, keyed by unit name
            (region name or :data:`EXPRESS`).  The monolithic twin merges
            them into its single controller.
        pool: An existing :class:`~repro.shard.workers.ShardWorkerPool`
            to share (workers for this network's recipes are ensured —
            a recipe names the unit controller's own graph, so no two
            networks share a worker); by default pool mode spawns and
            owns its own.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        mode: str = "sharded",
        seed: int = 0,
        transponders_10g: int = 8,
        regens_10g: int = 4,
        grid_size: int = 80,
        k_paths: int = 4,
        fault_plans: Optional[Dict[str, FaultPlan]] = None,
        backend: str = "inprocess",
        pool: Optional[ShardWorkerPool] = None,
    ) -> None:
        if mode not in ("sharded", "monolithic"):
            raise ConfigurationError(
                f"mode must be 'sharded' or 'monolithic', got {mode!r}"
            )
        if backend not in ("inprocess", "pool"):
            raise ConfigurationError(
                f"backend must be 'inprocess' or 'pool', got {backend!r}"
            )
        self.hierarchy = hierarchy
        self.mode = mode
        self.backend = backend
        self.sim = Simulator()
        self.planner = ShardPlanner(hierarchy)
        self.admission = AdmissionControl()
        self.orders: Dict[str, ShardOrder] = {}
        #: Observers called with ``(order, event)`` on order lifecycle
        #: edges: ``"blocked"`` (refused at placement or rolled back by
        #: the setup saga), ``"up"``, and ``"released"``.  This is the
        #: sharded counterpart of ``GriphonController.observers`` and
        #: what :class:`repro.shard.intake.ShardIntake` re-broadcasts.
        self.order_listeners: List[Callable[[ShardOrder, str], None]] = []
        self._order_seq = itertools.count()
        self._streams = RandomStreams(seed)
        self._prefix = hierarchy.params.get("premises_prefix", "DC-")
        fault_plans = fault_plans or {}
        #: unit name -> the controller planning/claiming for that unit.
        self._unit_controller: Dict[str, GriphonController] = {}
        if mode == "sharded":
            for name in hierarchy.region_names:
                controller = self._build_controller(
                    name,
                    hierarchy.region_graph(name),
                    transponders_10g,
                    regens_10g,
                    grid_size,
                    k_paths,
                    fault_plans.get(name),
                )
                self._unit_controller[name] = controller
            if hierarchy.express_links:
                self._unit_controller[EXPRESS] = self._build_controller(
                    EXPRESS,
                    hierarchy.express_graph(),
                    transponders_10g,
                    regens_10g,
                    grid_size,
                    k_paths,
                    fault_plans.get(EXPRESS),
                )
        else:
            merged = FaultPlan()
            for plan in fault_plans.values():
                for spec in plan.specs:
                    merged.add(spec)
            controller = self._build_controller(
                MONOLITH,
                hierarchy.graph,
                transponders_10g,
                regens_10g,
                grid_size,
                k_paths,
                merged if merged.specs else None,
                gateway_scale=2,
            )
            for name in hierarchy.unit_names():
                self._unit_controller[name] = controller
        #: unit name -> what plans its batches: the unit's worker recipe
        #: (one recipe for every unit of the monolithic twin), else the unit.
        self._planner: Dict[str, object] = {
            unit: unit for unit in self._unit_controller
        }
        #: recipe -> parent-side plant mirror (pool backend only).
        self._mirrors: Dict[UnitRecipe, _PlantMirror] = {}
        #: Number of the current placement round (or explicit sync).
        self._round_no = 0
        self._pool: Optional[ShardWorkerPool] = None
        self._owns_pool = False
        if backend == "pool":
            # Each worker plans over its unit controller's own graph —
            # the full graph for every unit of the monolithic twin, whose
            # equal recipes share one worker.
            self._planner = {
                unit: UnitRecipe(
                    unit if mode == "sharded" else MONOLITH,
                    controller.inventory.graph,
                    grid_size=grid_size,
                    k_paths=k_paths,
                )
                for unit, controller in self._unit_controller.items()
            }
            for unit, recipe in self._planner.items():
                if recipe not in self._mirrors:
                    self._mirrors[recipe] = _PlantMirror(
                        self._unit_controller[unit].inventory.plant
                    )
            if pool is None:
                pool = ShardWorkerPool(recipes=self._mirrors)
                self._owns_pool = True
            else:
                for recipe in self._mirrors:
                    pool.ensure(recipe)
            self._pool = pool

    # -- pool lifecycle -------------------------------------------------------

    def __enter__(self) -> "ShardedNetwork":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut down an owned worker pool (no-op for other backends)."""
        if self._pool is not None and self._owns_pool:
            self._pool.close()
        self._pool = None

    def _live_pool(self) -> ShardWorkerPool:
        """The worker pool, or a typed refusal when there is none to ask."""
        if self.backend != "pool":
            raise ConfigurationError("this needs backend='pool'")
        if self._pool is None:
            raise ConfigurationError(
                "network is closed: its worker pool is shut down"
            )
        return self._pool

    def sync_workers(self) -> None:
        """Push plant deltas to every worker and reset their rounds.

        The all-workers, no-request form of a placement round's message.
        Placement itself syncs only the workers it plans on, so call
        this before comparing :meth:`worker_fingerprints` against
        :meth:`plant_fingerprints`.
        """
        self._live_pool()
        self._round_no += 1
        self._plan_on_workers({recipe: [] for recipe in self._mirrors})

    def _plan_on_workers(
        self, batches: Dict[UnitRecipe, List[PlanRequest]]
    ) -> Dict[UnitRecipe, List[BatchPlanItem]]:
        """One ``round`` message to each worker in ``batches``.

        A worker not yet contacted in this round also gets its plant
        delta; its mirror moves on only once the replies are in.
        """
        calls, syncing = [], []
        for recipe, requests in batches.items():
            mirror = self._mirrors[recipe]
            sync = None
            if mirror.round != self._round_no:
                sync = mirror.delta()
                syncing.append(mirror)
            payload = {"round": self._round_no, "sync": sync, "requests": requests}
            calls.append((recipe, "round", payload))
        replies = self._pool.call_many(calls)
        for mirror in syncing:
            mirror.acknowledged(self._round_no)
        return dict(zip(batches, replies))

    def _build_controller(
        self,
        label: str,
        graph,
        transponders_10g: int,
        regens_10g: int,
        grid_size: int,
        k_paths: int,
        fault_plan: Optional[FaultPlan],
        gateway_scale: int = 1,
    ) -> GriphonController:
        """Equip one unit's inventory and stand up its controller.

        ``gateway_scale=2`` (the monolithic twin) installs the doubled
        complement at gateways: the region-side plus express-side
        hardware that two separate inventories hold in sharded mode.
        """
        inventory = InventoryDatabase(graph, WavelengthGrid(grid_size))
        gateways = set(self.hierarchy.gateways())
        for node in graph.nodes:
            if node.kind == "premises":
                continue
            scale = gateway_scale if node.name in gateways else 1
            inventory.install_roadm(node.name, add_drop_ports=16 * scale)
            inventory.install_transponders(
                node.name, 10 * GBPS, transponders_10g * scale
            )
            inventory.install_regens(node.name, 10 * GBPS, regens_10g * scale)
            inventory.install_fxc(node.name, port_count=32 * scale)
        for node in graph.nodes:
            if node.kind != "premises":
                continue
            pop = node.name[len(self._prefix):]
            inventory.install_nte(
                node.name, pop, interface_rate_bps=10 * GBPS,
                interface_count=8,
            )
        return GriphonController(
            self.sim,
            inventory,
            self._streams.spawn(f"controller:{label}"),
            k_paths=k_paths,
            auto_restore=False,
            fault_plan=fault_plan,
        )

    # -- introspection --------------------------------------------------------

    @property
    def controllers(self) -> Dict[str, GriphonController]:
        """Unit name -> controller (all the same object in monolithic)."""
        return dict(self._unit_controller)

    def register_customer(self, profile: CustomerProfile) -> None:
        """Register a CSP customer with the network-wide admission."""
        self.admission.register_customer(profile)

    def run(self, until: Optional[float] = None) -> int:
        """Advance the shared simulator."""
        return self.sim.run(until=until)

    def audit_shards(self) -> Dict[str, "AuditReport"]:
        """Run the invariant auditor on every shard.

        Returns ``{unit: AuditReport}`` — every report ``ok`` on a
        healthy network.  In monolithic mode the single controller is
        audited once, under the key ``"mono"``.
        """
        return {
            key: audit_network(controller)
            for key, controller in self._shard_controllers()
        }

    def route_cache_stats(self) -> Dict[str, dict]:
        """Per-unit zero records of the route cache that no longer exists.

        Kept only because the benchmark driver (``bench/child.py``)
        reads it on every run; the ROADMAP gate item — the PR allowed
        to edit ``bench/`` — removes it.
        """
        if self.backend == "pool":
            self._live_pool()  # still refuses on a closed network
        return {
            key: controller.rwa.route_cache_stats()
            for key, controller in self._shard_controllers()
        }

    def _shard_controllers(self) -> Iterator[Tuple[str, GriphonController]]:
        """Each distinct controller once, under its reporting key."""
        if self.mode != "sharded":
            yield MONOLITH, next(iter(self._unit_controller.values()))
            return
        yield from self._unit_controller.items()

    def plant_fingerprints(self) -> Dict[str, str]:
        """Structural digest of each unit's authoritative fiber plant.

        Backend-independent: the controllers own occupancy and failure
        state in both backends, so this is the cross-deployment
        comparison surface.
        """
        return {
            key: plant_fingerprint(controller.inventory.plant)
            for key, controller in self._shard_controllers()
        }

    def worker_fingerprints(self) -> Dict[str, dict]:
        """Each worker's ``fingerprint`` RPC result (pool backend only).

        After :meth:`sync_workers`, every worker's ``state`` digest
        equals the matching :meth:`plant_fingerprints` entry — the
        mirror-correctness invariant the differential test asserts.
        """
        return {
            recipe.unit: fingerprint
            for recipe, fingerprint in zip(
                self._mirrors,
                self._live_pool().call_many(
                    [(r, "fingerprint", None) for r in self._mirrors]
                ),
            )
        }

    # -- chaos hooks ----------------------------------------------------------

    def _owning_unit(self, a: str, b: str) -> str:
        region_a = self.hierarchy.region_of(a)
        region_b = self.hierarchy.region_of(b)
        if region_a is not None and region_a == region_b:
            return region_a
        return EXPRESS

    def cut_fiber(self, a: str, b: str) -> None:
        """Cut one fiber on the authoritative plant (both backends).

        The owning controller fails affected lightpaths exactly as
        in-process; with the pool backend the ``cut`` RPC is forwarded
        eagerly so the worker plans around the break within the same
        round.
        """
        if self.backend == "pool":
            self._live_pool()  # refuse before the plant is touched
        unit = self._owning_unit(a, b)
        self._unit_controller[unit].cut_link(a, b)
        if self._pool is not None:
            recipe = self._planner[unit]
            self._pool.call(recipe, "cut", {"a": a, "b": b})
            self._mirrors[recipe].note_cut((a, b) if a <= b else (b, a))

    def repair_fiber(self, a: str, b: str) -> None:
        """Repair one fiber (inverse of :meth:`cut_fiber`)."""
        if self.backend == "pool":
            self._live_pool()  # refuse before the plant is touched
        unit = self._owning_unit(a, b)
        self._unit_controller[unit].repair_link(a, b)
        if self._pool is not None:
            recipe = self._planner[unit]
            self._pool.call(recipe, "repair", {"a": a, "b": b})
            self._mirrors[recipe].note_repair((a, b) if a <= b else (b, a))

    # -- order intake ---------------------------------------------------------

    def place_order(
        self,
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float = 10 * GBPS,
    ) -> ShardOrder:
        """Place one order (a single-order planning round)."""
        return self.place_orders([(customer, premises_a, premises_b, rate_bps)])[0]

    def place_orders(
        self, requests: Sequence[Tuple[str, str, str, float]]
    ) -> List[ShardOrder]:
        """Place a batch of orders as one logical planning round.

        Requests are opened in order, each unit's segments planned as
        one batch against that unit's round overlay — two orders in the
        same round can never be promised the same gateway/express
        channel, in either deployment mode — and orders finished in
        order: claiming is immediate (inventory bookkeeping); the EMS
        setup workflows run on the shared simulator.  Outcomes equal
        one-at-a-time placement (module docstring, "the placement round").
        """
        if self.backend == "pool":
            self._live_pool()  # refuse before an id or any quota is taken
        self._round_no += 1
        rounds = defaultdict(_PlanningRound)  # in-process overlays, by unit
        orders: List[ShardOrder] = []
        opened: List[Tuple[ShardOrder, List[SegmentSpec]]] = []
        for request in requests:
            order = ShardOrder(f"xo-{next(self._order_seq)}", *request)
            self.orders[order.order_id] = order
            orders.append(order)
            while True:
                try:
                    opened.append((order, self._open(order)))
                except GriphonError as exc:
                    if opened:
                        # An earlier order may yet block and hand back
                        # the quota this one needs, and would notify
                        # first: settle those, then look again.
                        self._settle(opened, rounds)
                        continue
                    self._block(order, exc)
                break
        if opened:
            self._settle(opened, rounds)
        return orders

    def teardown_order(self, order: ShardOrder) -> ShardOrder:
        """Tear an UP order down across every shard it touches."""
        if order.state is not ConnectionState.UP:
            raise ConfigurationError(
                f"{order.order_id} is {order.state.value}; teardown needs UP"
            )
        order.state = ConnectionState.TEARING_DOWN
        for child in order.children.values():
            child.transition(ConnectionState.TEARING_DOWN)
        Process(
            self.sim,
            self._teardown_workflow(order),
            label=f"shard-teardown:{order.order_id}",
        )
        return order

    # -- order internals ------------------------------------------------------

    def _open(self, order: ShardOrder) -> List[SegmentSpec]:
        """Admit and decompose ``order``; a refusal leaves no quota held."""
        self.admission.admit(
            order.customer, order.premises_a, order.premises_b, order.rate_bps
        )
        try:
            return self.planner.decompose(
                self._pop_of(order.premises_a),
                self._pop_of(order.premises_b),
                monolithic=self.mode == "monolithic",
            )
        except GriphonError:
            self.admission.release(order.customer, order.rate_bps)
            raise

    def _settle(
        self,
        opened: List[Tuple[ShardOrder, List[SegmentSpec]]],
        rounds: Dict[str, _PlanningRound],
    ) -> None:
        """Plan the opened orders' segments, finish each, empty ``opened``.

        Segments are batched per planner in order index, then path
        order: each planner sees its requests in the order one-at-a-time
        placement would send them.  Every segment of an order is planned
        before failure checking: a failed segment blocks the whole order
        and the channels its siblings shadow-claimed stay claimed for
        the rest of the round — conservative, but identical across modes
        *and* backends.
        """
        batches: Dict[object, List[PlanRequest]] = {}
        for order, specs in opened:
            for spec in specs:
                batches.setdefault(self._planner[spec.unit], []).append(
                    PlanRequest(
                        spec.source,
                        spec.destination,
                        order.rate_bps,
                        excluded_links=tuple(spec.excluded_links),
                        excluded_nodes=tuple(spec.excluded_nodes),
                    )
                )
        if self.backend == "inprocess":
            planned = {
                unit: self._unit_controller[unit].rwa.plan_batch(
                    batch, round_ctx=rounds[unit]
                )
                for unit, batch in batches.items()
            }
        else:
            planned = self._plan_on_workers(batches)
        feeds = {planner: iter(items) for planner, items in planned.items()}
        for order, specs in opened:
            self._finish(
                order,
                specs,
                [next(feeds[self._planner[spec.unit]]) for spec in specs],
            )
        opened.clear()

    def _finish(
        self,
        order: ShardOrder,
        specs: List[SegmentSpec],
        items: List[BatchPlanItem],
    ) -> None:
        """Record the plans, claim them and start setup — or block."""
        plans: List[RwaPlan] = []
        try:
            for spec, item in zip(specs, items):
                if not item.ok:
                    raise item.error
                plans.append(item.plan)
                order.plan_record.append(
                    {
                        "unit": spec.unit,
                        "path": list(item.plan.path),
                        "channels": [
                            segment.channel for segment in item.plan.segments
                        ],
                        "regens": list(item.plan.regen_sites),
                    }
                )
            self._claim(order, specs, plans)
        except GriphonError as exc:
            self.admission.release(order.customer, order.rate_bps)
            self._block(order, exc)
            return
        for child in order.children.values():
            child.transition(ConnectionState.SETTING_UP)
        order.state = ConnectionState.SETTING_UP
        Process(
            self.sim,
            self._setup_workflow(order),
            label=f"shard-setup:{order.order_id}",
        )

    def _pop_of(self, premises: str) -> str:
        """The PoP a premises hangs off (pure naming, mode-independent)."""
        if not premises.startswith(self._prefix):
            raise ConfigurationError(f"unknown premises {premises!r}")
        return premises[len(self._prefix):]

    def _block(self, order: ShardOrder, exc: Exception) -> None:
        order.state = ConnectionState.BLOCKED
        order.blocked_reason = str(exc)
        self._notify_order(order, "blocked")

    def _notify_order(self, order: ShardOrder, event: str) -> None:
        for listener in list(self.order_listeners):
            listener(order, event)

    def _child(self, order: ShardOrder, unit: str, a: str, b: str) -> Connection:
        """Get or create the order's child connection in ``unit``'s shard."""
        child = order.children.get(unit)
        if child is None:
            controller = self._unit_controller[unit]
            child = Connection(
                f"{order.order_id}/{unit}",
                order.customer,
                a,
                b,
                order.rate_bps,
                ConnectionKind.WAVELENGTH,
                requested_at=self.sim.now,
            )
            controller.connections[child.connection_id] = child
            order.children[unit] = child
        return child

    def _claim(
        self,
        order: ShardOrder,
        specs: List[SegmentSpec],
        plans: List[RwaPlan],
    ) -> None:
        """Claim every segment's resources, unwinding in reverse on failure.

        Claim order is deterministic (segments in path order, then NTE
        ends, then FXC steering), so both deployment modes consume
        first-fit resources identically.
        """
        hierarchy = self.hierarchy
        region_a = hierarchy.region_of(order.premises_a)
        region_b = hierarchy.region_of(order.premises_b)
        pop_a = self._pop_of(order.premises_a)
        pop_b = self._pop_of(order.premises_b)
        claimed: List[_OrderSegment] = []
        try:
            for spec, plan in zip(specs, plans):
                controller = self._unit_controller[spec.unit]
                child = self._child(order, spec.unit, spec.source, spec.destination)
                lightpath = controller.provisioner.claim(plan)
                child.lightpath_ids.append(lightpath.lightpath_id)
                controller._lightpath_conn[lightpath.lightpath_id] = (
                    child.connection_id
                )
                claimed.append(
                    _OrderSegment(
                        spec, lightpath, include_fxc=spec.unit != EXPRESS
                    )
                )
            order.segments = claimed
            # Endpoint region children always exist — even when their
            # region segment is degenerate (the premises' PoP *is* the
            # gateway) they own the premises NTE interface and the
            # access-side FXC steering, which live in region inventory.
            for unit, pop, premises in (
                (region_a, pop_a, order.premises_a),
                (region_b, pop_b, order.premises_b),
            ):
                child = self._child(order, unit, pop, pop)
                self._unit_controller[unit].claim_nte(child, premises)
            self._claim_steering(order)
        except GriphonError:
            self._unwind_claims(order, claimed)
            raise

    def _claim_steering(self, order: ShardOrder) -> None:
        """Program the FXC stitching at endpoints and traversed gateways.

        Each unit's cross-connects go through that unit's own FXCs: the
        access signal enters at the source PoP, hands off region-OT to
        express-OT at each gateway (two cross-connects — one per unit,
        on that unit's gateway FXC), and exits at the destination PoP.
        """
        handoff = f"handoff:{order.order_id}"
        access = f"access:{order.order_id}"
        region_a = self.hierarchy.region_of(order.premises_a)
        region_b = self.hierarchy.region_of(order.premises_b)
        pop_a = self._pop_of(order.premises_a)
        pop_b = self._pop_of(order.premises_b)
        segments_of: Dict[str, _OrderSegment] = {
            seg.spec.unit: seg for seg in order.segments
        }
        for unit, child in order.children.items():
            controller = self._unit_controller[unit]
            segment = segments_of.get(unit)
            if segment is None:
                # Degenerate endpoint region: the PoP is the gateway;
                # steer access straight into the express handoff.
                pop = pop_a if unit == region_a else pop_b
                controller.steer(child, pop, access, handoff)
                continue
            lightpath = segment.lightpath
            source_ot, dest_ot = lightpath.ot_ids[0], lightpath.ot_ids[1]
            source_label = access if lightpath.source == pop_a and unit == region_a else handoff
            dest_label = access if lightpath.destination == pop_b and unit == region_b else handoff
            controller.steer(child, lightpath.source, source_label, source_ot)
            controller.steer(child, lightpath.destination, dest_ot, dest_label)

    def _unwind_claims(
        self, order: ShardOrder, claimed: List[_OrderSegment]
    ) -> None:
        """Release everything a partially claimed order holds, in reverse."""
        for unit, child in order.children.items():
            controller = self._unit_controller[unit]
            controller.release_claims(child)
            del controller.connections[child.connection_id]
        for segment in reversed(claimed):
            controller = self._unit_controller[segment.spec.unit]
            controller._lightpath_conn.pop(
                segment.lightpath.lightpath_id, None
            )
            controller.provisioner.release(segment.lightpath)
        order.children = {}
        order.segments = []

    # -- simulated workflows --------------------------------------------------

    def _setup_workflow(self, order: ShardOrder):
        """Set up every segment in path order; unwind all on any abort.

        Each segment runs its unit's provisioning saga.  A saga that
        rolls back (EMS failure with retries exhausted) leaves its
        lightpath RELEASED; this workflow then tears down the already-UP
        segments of *other* shards, releases every endpoint claim, and
        settles the order BLOCKED — the cross-shard extension of the
        single-controller saga guarantee.
        """
        completed: List[_OrderSegment] = []
        failed: Optional[_OrderSegment] = None
        for segment in order.segments:
            controller = self._unit_controller[segment.spec.unit]
            yield from controller.provisioner.setup_workflow(
                segment.lightpath, include_fxc=segment.include_fxc
            )
            if segment.lightpath.state is not LightpathState.UP:
                failed = segment
                break
            completed.append(segment)
        if failed is None:
            for child in order.children.values():
                child.transition(ConnectionState.UP)
                child.up_at = self.sim.now
            order.state = ConnectionState.UP
            order.up_at = self.sim.now
            self._notify_order(order, "up")
            return
        # Cross-shard unwind.
        error = failed.lightpath.setup_error
        for segment in reversed(completed):
            controller = self._unit_controller[segment.spec.unit]
            yield from controller.provisioner.teardown_workflow(
                segment.lightpath, include_fxc=segment.include_fxc
            )
        failed_controller = self._unit_controller[failed.spec.unit]
        if failed.lightpath.state is LightpathState.FAILED:
            # Died to a fiber cut during setup rather than a saga
            # rollback: the claim bookkeeping is still in place.
            failed_controller.provisioner.release(failed.lightpath)
        for unit, child in order.children.items():
            controller = self._unit_controller[unit]
            for lightpath_id in child.lightpath_ids:
                controller._lightpath_conn.pop(lightpath_id, None)
            child.lightpath_ids = []
            controller.release_claims(child)
            child.setup_error = error
            child.blocked_reason = f"setup failed: {error}"
            child.transition(ConnectionState.BLOCKED)
        self.admission.release(order.customer, order.rate_bps)
        order.state = ConnectionState.BLOCKED
        order.blocked_reason = f"setup failed: {error}"
        self._notify_order(order, "blocked")

    def _teardown_workflow(self, order: ShardOrder):
        for segment in reversed(order.segments):
            controller = self._unit_controller[segment.spec.unit]
            if segment.lightpath.state in (
                LightpathState.UP, LightpathState.FAILED
            ):
                yield from controller.provisioner.teardown_workflow(
                    segment.lightpath, include_fxc=segment.include_fxc
                )
            controller._lightpath_conn.pop(
                segment.lightpath.lightpath_id, None
            )
        for unit, child in order.children.items():
            self._unit_controller[unit].release_claims(child)
            child.lightpath_ids = []
            child.transition(ConnectionState.RELEASED)
            child.released_at = self.sim.now
        self.admission.release(order.customer, order.rate_bps)
        order.state = ConnectionState.RELEASED
        order.released_at = self.sim.now
        self._notify_order(order, "released")


def build_sharded_network(
    seed: int = 0,
    regions: int = 4,
    pops_per_region: int = 8,
    gateways_per_region: int = 2,
    mode: str = "sharded",
    transponders_10g: int = 8,
    regens_10g: int = 4,
    grid_size: int = 80,
    k_paths: int = 4,
    fault_plans: Optional[Dict[str, FaultPlan]] = None,
    hierarchy: Optional[Hierarchy] = None,
    backend: str = "inprocess",
    pool: Optional[ShardWorkerPool] = None,
) -> ShardedNetwork:
    """Build a ready-to-order sharded (or monolithic-twin) network.

    The hierarchy is built with premises attached (one per PoP) so
    orders have NTE endpoints; pass ``hierarchy`` to reuse one already
    built — e.g. to run both modes of the differential test on the
    exact same topology object.  ``backend="pool"`` plans through
    persistent worker processes (close the network, or use ``with``).
    """
    if hierarchy is None:
        hierarchy = build_hierarchy(
            seed,
            regions=regions,
            pops_per_region=pops_per_region,
            gateways_per_region=gateways_per_region,
            with_premises=True,
        )
    return ShardedNetwork(
        hierarchy,
        mode=mode,
        seed=seed,
        transponders_10g=transponders_10g,
        regens_10g=regens_10g,
        grid_size=grid_size,
        k_paths=k_paths,
        fault_plans=fault_plans,
        backend=backend,
        pool=pool,
    )
