"""Sharded continental control: per-region controllers stitched at gateways.

A :class:`ShardedNetwork` serves a 3-tier :class:`~repro.topo.hierarchy.
Hierarchy` with one :class:`GriphonController` per planning unit — one
per region plus one for the express tier — all sharing a single
simulator.  A cross-region order is decomposed by the
:class:`~repro.shard.planner.ShardPlanner` into per-unit segments.
Each segment is one child connection that its unit's controller opens,
claims into, puts into service and gives back; the coordinator keeps
the decomposition, the batch plan, the gateway steering and the order
of the cross-shard saga.  Segments are claimed synchronously unit by
unit and set up one after another through each unit's provisioning
saga.  A segment whose saga rolls back, or that a cut fails, mid-setup
unwinds the whole order: already-UP segments are torn down, every claim
is released, and the order settles BLOCKED with zero residue in *any*
shard — the same guarantee the monolithic controller gives a
single-segment order.

**The order is a connection.**  A :class:`ShardOrder` is a
:class:`~repro.core.connection.Connection` moved only through
``transition``, and :attr:`ShardedNetwork.observers` hears the
controller's event names.  The coordinator observes every unit
controller, so the order follows its segments: a child ``<order>/<unit>``
reporting ``connection-failed`` fails its UP order, the last dark
child's ``revived`` brings it back UP, and a rolled-back order carries
the abort's ``setup_error``.

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

**The monolithic twin is a grouping.**  The network groups units onto
controllers: ``mode="sharded"`` gives each unit its own controller over
its own graph, ``mode="monolithic"`` puts every unit on one controller
over the full 3-tier graph.  The rest is derived from the grouping: a
node gets one equipment complement per unit graph it belongs to (a twin
gateway holds region-side plus express-side hardware), a controller
merges its units' fault plans, and each unit's route exclusions are the
nodes and the links between its own nodes that its controller's graph
has and the unit's graph lacks — empty when a controller plans over the
unit's own graph.  Every segment runs through the *same* decomposition
under its unit's exclusions: identical candidate routes + identical
first-fit channel scans + identical claim order mean identical
structural outcomes, which :func:`repro.fingerprint.outcome_fingerprint`
hashes for the differential test.

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
ShardWorkerPool` — one long-lived process per usable core, each hosting
several units, each unit holding a delta-synced mirror of its fiber
plant — while the controllers stay authoritative for everything
stateful: admission, claims, sagas, teardown.  The plan phase is one
``call_many`` with one ``round`` call per *touched* unit, which the pool
carries as one message per touched process: the round number (a new one
resets the unit's overlay), the unit's requests as plain tuples and, on
first contact in the round, the occupancy/liveness delta since the unit
last heard from us.  The delta looks only at the links the plant
recorded as touched, not at every link.  An idle unit costs no call and
no plant work; its delta waits.  Because plans depend only on graph +
plant + reach — never on the equipment pools consumed at claim time —
pool outcomes are byte-identical to in-process outcomes, which the pool
and round differential tests pin fingerprint-for-fingerprint.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.admission import AdmissionControl, CustomerProfile
from repro.core.connection import Connection, ConnectionKind, ConnectionState
from repro.core.controller import GriphonController
from repro.core.inventory import InventoryDatabase
from repro.core.rwa import BatchPlanItem, PlanRequest, RwaPlan, _PlanningRound
from repro.errors import ConfigurationError, GriphonError
from repro.faults.audit import (
    AuditReport, AuditViolation, audit_network, audit_orphan_lightpaths,
)
from repro.faults.plan import FaultPlan
# ``outcome_fingerprint`` is re-exported: the shard differential tests
# import it from here.
from repro.fingerprint import outcome_fingerprint, plant_fingerprint  # noqa: F401
from repro.optical.lightpath import LightpathState
from repro.optical.wavelength import WavelengthGrid
from repro.shard.planner import SegmentSpec, ShardPlanner
from repro.shard.workers import ShardWorkerPool, UnitRecipe, round_items, round_payload
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.topo.hierarchy import EXPRESS, Hierarchy, build_hierarchy
from repro.units import GBPS

#: The monolithic twin's one controller: its label, its audit /
#: fingerprint key, and its worker's unit name.
MONOLITH = "mono"


def _exclusions(graph, unit_graph) -> tuple:
    """``(excluded_links, excluded_nodes)`` that confine routes planned
    on ``graph`` to ``unit_graph``: the links between the unit's own
    nodes that only ``graph`` has, and the nodes the unit lacks.  Both
    are empty when ``graph`` is the unit's own graph.
    """
    inside = unit_graph.has_node
    return (
        tuple(sorted(
            link.key for link in graph.links
            if inside(link.a) and inside(link.b)
            and link.b not in unit_graph.adjacent(link.a)
        )),
        tuple(sorted(node.name for node in graph.nodes if not inside(node.name))),
    )


@dataclass
class ShardOrder(Connection):
    """A cross-shard order: one customer connection, many unit segments.

    The order is a :class:`~repro.core.connection.Connection` that moves
    through :meth:`~repro.core.connection.Connection.transition` like any
    other; the coordinator adds only what stitching needs.

    Attributes:
        children: Per-unit child :class:`Connection` records, each
            driven by its unit's controller (so that shard's audit sees
            a live owner for every claim); a child's lightpath is the
            order's segment there, those children first, in path order.
        plan_record: Structural planning outcome (unit, path, channels,
            regen sites) captured at plan time — what the differential
            fingerprint hashes, stable even for later-blocked orders.
    """

    children: Dict[str, Connection] = field(default_factory=dict)
    plan_record: List[dict] = field(default_factory=list)

    @property
    def order_id(self) -> str:
        """The order's id across the sharded network (its connection id)."""
        return self.connection_id


def _disagrees(order: ShardOrder, child: Connection) -> bool:
    """Whether ``child``'s state contradicts its order's."""
    state = order.state
    if state is ConnectionState.UP:
        return child.state is not ConnectionState.UP
    if state is ConnectionState.FAILED:
        return not any(
            sibling.state is ConnectionState.FAILED
            for sibling in order.children.values()
        )
    if state in (ConnectionState.BLOCKED, ConnectionState.RELEASED):
        return child.state is not state
    return False


class _PlantMirror:
    """What a worker has acknowledged of its unit's fiber plant.

    :meth:`delta` is what the next ``round`` message must carry;
    :meth:`acknowledged` adopts it once the worker has replied, never
    before — a worker respawned from its journal holds acknowledged
    syncs only.  ``round`` is the last round the worker opened.  Cut /
    repair RPCs forwarded eagerly (:meth:`ShardedNetwork.cut_fiber`) are
    noted here too, so the next delta doesn't re-send them.

    A link's mask can differ from the acknowledged one only if the plant
    recorded it as touched (:meth:`~repro.optical.fiber.FiberPlant.
    touched_links`) since, or if a delta the worker never acknowledged
    carried it — so those keys are all :meth:`delta` looks at, and its
    masks equal a scan of every link.
    """

    __slots__ = ("plant", "round", "_masks", "_failed", "_touched", "_owed", "_sent")

    def __init__(self, plant) -> None:
        self.plant = plant
        self.round = 0
        #: Acknowledged occupied-channel masks, dark links omitted.
        self._masks: Dict[Tuple[str, str], int] = {}
        self._failed: frozenset = frozenset()
        self._touched = plant.touched_links()
        #: Keys an unacknowledged delta looked at — to begin with, the
        #: links lit before the plant kept a record.
        self._owed: Set[Tuple[str, str]] = set(plant.occupancy_snapshot())

    def delta(self) -> dict:
        owed = self._owed
        owed |= self._touched
        self._touched.clear()
        plant = self.plant
        full = (1 << plant.grid.size) - 1
        masks = {}
        for key in owed:
            mask = full & ~plant.dwdm_link(*key).free_mask()
            if self._masks.get(key, 0) != mask:
                masks[key] = mask
        failed = frozenset(plant.failed_links())
        self._sent = (masks, failed)
        return {
            "masks": masks,
            "cut": sorted(failed - self._failed),
            "repair": sorted(self._failed - failed),
        }

    def acknowledged(self, round_no: int) -> None:
        self.round = round_no
        masks, self._failed = self._sent
        for key, mask in masks.items():
            if mask:
                self._masks[key] = mask
            else:
                self._masks.pop(key, None)
        self._owed.clear()

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
            them, in unit order, into its single controller.
        pool: An existing :class:`~repro.shard.workers.ShardWorkerPool`
            to share (this network's recipes are ensured — a recipe
            names the unit controller's own graph, so no two networks
            share a unit); by default pool mode spawns and owns its own.
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
        self.backend = backend
        self.sim = Simulator()
        self.planner = ShardPlanner(hierarchy)
        self.admission = AdmissionControl()
        self.orders: Dict[str, ShardOrder] = {}
        #: Observers called with ``(event, {"connection": order})`` on
        #: order lifecycle edges, in ``GriphonController.observers``'
        #: vocabulary: ``"blocked"`` (refused at placement), ``"up"``,
        #: ``"setup-failed"`` (rolled back by the setup saga),
        #: ``"connection-failed"``, ``"revived"`` and ``"released"``.
        self.observers: List[Callable[[str, dict], None]] = []
        self._order_seq = itertools.count()
        self._streams = RandomStreams(seed)
        self._prefix = hierarchy.params.get("premises_prefix", "DC-")
        fault_plans = fault_plans or {}
        units = {
            unit: hierarchy.express_graph() if unit == EXPRESS
            else hierarchy.region_graph(unit)
            for unit in hierarchy.unit_names()
        }
        # The grouping of units onto controllers: controller key -> the
        # graph it plans over and the units it serves.  Everything below
        # that differs between the deployments is derived from it.
        if mode == "sharded":
            groups = {unit: (graph, [unit]) for unit, graph in units.items()}
        else:
            groups = {MONOLITH: (hierarchy.graph, list(units))}
        #: controller key -> controller: what is audited and fingerprinted.
        self._controllers: Dict[str, GriphonController] = {}
        #: unit name -> the controller planning/claiming for that unit,
        #: and that controller's key.
        self._unit_controller: Dict[str, GriphonController] = {}
        self._key_of: Dict[str, str] = {}
        #: unit name -> ``(excluded_links, excluded_nodes)`` confining its
        #: controller's candidate routes to the unit's own graph.
        self._exclusions: Dict[str, tuple] = {}
        for key, (graph, members) in groups.items():
            # A lone unit's plan is handed over as is, so a rule added to
            # it mid-run still reaches its controller.
            plans = [fault_plans[unit] for unit in members if unit in fault_plans]
            controller = self._build_controller(
                key,
                graph,
                [units[unit] for unit in members],
                transponders_10g,
                regens_10g,
                grid_size,
                k_paths,
                plans[0] if len(plans) == 1
                else FaultPlan([spec for plan in plans for spec in plan.specs]),
            )
            controller.observers.append(self._on_unit_event)
            self._controllers[key] = controller
            for unit in members:
                self._unit_controller[unit] = controller
                self._key_of[unit] = key
                self._exclusions[unit] = _exclusions(graph, units[unit])
        #: unit name -> what plans its batches: its controller's key, or
        #: with the pool backend that controller's worker recipe.
        self._planner: Dict[str, object] = dict(self._key_of)
        #: recipe -> parent-side plant mirror (pool backend only).
        self._mirrors: Dict[UnitRecipe, _PlantMirror] = {}
        #: Number of the current placement round (or explicit sync).
        self._round_no = 0
        self._pool: Optional[ShardWorkerPool] = None
        self._owns_pool = False
        if backend == "pool":
            # Each worker plans over one controller's own graph, for
            # every unit grouped onto that controller.
            recipes = {
                key: UnitRecipe(
                    key, controller.inventory.graph,
                    grid_size=grid_size, k_paths=k_paths,
                )
                for key, controller in self._controllers.items()
            }
            self._planner = {unit: recipes[key] for unit, key in self._key_of.items()}
            self._mirrors = {
                recipe: _PlantMirror(self._controllers[key].inventory.plant)
                for key, recipe in recipes.items()
            }
            if pool is None:
                pool = ShardWorkerPool()
                self._owns_pool = True
            # One call, so a fresh pool deals every unit before it forks.
            pool.ensure(*self._mirrors)
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
        """One ``round`` call to each unit in ``batches``.

        A unit not yet contacted in this round also gets its plant
        delta; its mirror moves on once that unit has replied — also
        when another unit's reply raises, or a mask that changes back
        before the next round would never be re-sent to it.
        """
        calls, syncing = [], []
        for recipe, requests in batches.items():
            mirror = self._mirrors[recipe]
            sync = mirror.delta() if mirror.round != self._round_no else None
            payload = round_payload(self._round_no, sync, requests)
            if sync is not None:
                syncing.append((recipe, mirror, payload))
            calls.append((recipe, "round", payload))
        try:
            replies = self._pool.call_many(calls)
        finally:
            for recipe, mirror, payload in syncing:
                if self._pool.answered(recipe, payload):
                    mirror.acknowledged(self._round_no)
        return {
            recipe: round_items(requests, reply)
            for (recipe, requests), reply in zip(batches.items(), replies)
        }

    def _build_controller(
        self,
        label: str,
        graph,
        unit_graphs: List,
        transponders_10g: int,
        regens_10g: int,
        grid_size: int,
        k_paths: int,
        fault_plan: FaultPlan,
    ) -> GriphonController:
        """Equip one controller's inventory and stand it up.

        A node gets one complement per unit graph it belongs to: a
        gateway grouped with its region and the express tier holds the
        region-side plus the express-side hardware that two separate
        inventories hold when each unit has its own controller.
        """
        inventory = InventoryDatabase(graph, WavelengthGrid(grid_size))
        for node in graph.nodes:
            if node.kind == "premises":
                continue
            scale = sum(unit.has_node(node.name) for unit in unit_graphs)
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
        """Unit name -> controller (one object for grouped units)."""
        return dict(self._unit_controller)

    def register_customer(self, profile: CustomerProfile) -> None:
        """Register a CSP customer with the network-wide admission."""
        self.admission.register_customer(profile)

    def run(self, until: Optional[float] = None) -> int:
        """Advance the shared simulator."""
        return self.sim.run(until=until)

    def audit_shards(self) -> Dict[str, "AuditReport"]:
        """Run the invariant auditor on every controller.

        Returns ``{key: AuditReport}`` — every report ``ok`` on a
        healthy network.  A controller serving several units (the
        monolithic twin's) is audited once, under its key ``"mono"``.
        A shard runs no OTN lines, bridges or restorations, so a
        lightpath no live child holds is also flagged
        (``orphan-lightpath``), and so is a child whose state disagrees
        with its order's (``order-state``): one not UP under an UP
        order, none FAILED under a FAILED one, or one not BLOCKED /
        RELEASED with its order.
        """
        reports = {}
        for key, controller in self._controllers.items():
            reports[key] = report = audit_network(controller)
            audit_orphan_lightpaths(
                controller.inventory, controller.connections, report
            )
        for order in self.orders.values():
            for unit, child in order.children.items():
                if _disagrees(order, child):
                    reports[self._key_of[unit]].violations.append(AuditViolation(
                        "order-state", f"connection {child.connection_id}",
                        order.connection_id,
                        f"order {order.state.value}, child {child.state.value}",
                    ))
        return reports

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
            for key, controller in self._controllers.items()
        }

    def plant_fingerprints(self) -> Dict[str, str]:
        """Structural digest of each controller's authoritative fiber plant.

        Backend-independent: the controllers own occupancy and failure
        state in both backends, so this is the cross-deployment
        comparison surface.
        """
        return {
            key: plant_fingerprint(controller.inventory.plant)
            for key, controller in self._controllers.items()
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
        rounds = defaultdict(_PlanningRound)  # in-process overlays, by controller
        orders: List[ShardOrder] = []
        opened: List[Tuple[ShardOrder, List[SegmentSpec]]] = []
        for request in requests:
            order = ShardOrder(
                f"xo-{next(self._order_seq)}", *request,
                ConnectionKind.WAVELENGTH, requested_at=self.sim.now,
            )
            self.orders[order.connection_id] = order
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
        """Tear an UP or FAILED order down across every shard it touches."""
        if order.state not in (ConnectionState.UP, ConnectionState.FAILED):
            raise ConfigurationError(
                f"{order.connection_id} is {order.state.value}; "
                "teardown needs UP or FAILED"
            )
        order.transition(ConnectionState.TEARING_DOWN)
        for child in order.children.values():
            child.transition(ConnectionState.TEARING_DOWN)
        Process(self.sim, self._teardown_workflow(order),
                label=f"shard-teardown:{order.connection_id}")
        return order

    # -- order internals ------------------------------------------------------

    def _open(self, order: ShardOrder) -> List[SegmentSpec]:
        """Admit and decompose ``order``; a refusal leaves no quota held."""
        self.admission.admit(
            order.customer, order.premises_a, order.premises_b, order.rate_bps
        )
        try:
            return self.planner.decompose(
                self._pop_of(order.premises_a), self._pop_of(order.premises_b)
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
                        spec.source, spec.destination, order.rate_bps,
                        *self._exclusions[spec.unit],
                    )
                )
        if self.backend == "inprocess":
            planned = {
                key: self._controllers[key].rwa.plan_batch(
                    batch, round_ctx=rounds[key]
                )
                for key, batch in batches.items()
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
        self, order: ShardOrder, specs: List[SegmentSpec], items: List[BatchPlanItem]
    ) -> None:
        """Record the plans, claim them and start setup — or block."""
        plans: List[RwaPlan] = []
        try:
            for spec, item in zip(specs, items):
                if not item.ok:
                    raise item.error
                plans.append(item.plan)
                order.plan_record.append({
                    "unit": spec.unit,
                    "path": list(item.plan.path),
                    "channels": [seg.channel for seg in item.plan.segments],
                    "regens": list(item.plan.regen_sites),
                })
            self._claim(order, specs, plans)
        except GriphonError as exc:
            self.admission.release(order.customer, order.rate_bps)
            self._block(order, exc)
            return
        for child in order.children.values():
            child.transition(ConnectionState.SETTING_UP)
        order.transition(ConnectionState.SETTING_UP)
        Process(self.sim, self._setup_workflow(order),
                label=f"shard-setup:{order.connection_id}")

    def _pop_of(self, premises: str) -> str:
        """The PoP a premises hangs off (pure naming, mode-independent)."""
        if not premises.startswith(self._prefix):
            raise ConfigurationError(f"unknown premises {premises!r}")
        return premises[len(self._prefix):]

    def _block(self, order: ShardOrder, exc: Exception) -> None:
        order.transition(ConnectionState.BLOCKED)
        order.blocked_reason = str(exc)
        self._notify("blocked", order)

    def _notify(self, event: str, order: ShardOrder) -> None:
        payload = {"connection": order}
        for observer in self.observers:
            observer(event, payload)

    def _on_unit_event(self, event: str, payload: dict) -> None:
        """Unit controller observer: an order follows its segments.

        A child cut while its order is UP fails the order, its outage
        opening at the same instant; the last dark child's revival
        brings the order back UP.
        """
        if event not in ("connection-failed", "revived"):
            return
        # A child is named ``<order>/<unit>``.
        order = self.orders[payload["connection"].connection_id.partition("/")[0]]
        if event == "connection-failed":
            if order.state is ConnectionState.UP:
                self._fail(order)
        elif order.state is ConnectionState.FAILED and not any(
            child.state is ConnectionState.FAILED
            for child in order.children.values()
        ):
            order.transition(ConnectionState.UP)
            order.end_outage(self.sim.now)
            self._notify("revived", order)

    def _fail(self, order: ShardOrder) -> None:
        order.begin_outage(self.sim.now)
        order.transition(ConnectionState.FAILED)
        self._notify("connection-failed", order)

    def _child(self, order: ShardOrder, unit: str, a: str, b: str) -> Connection:
        """Get or open the order's child connection in ``unit``'s shard."""
        if unit not in order.children:
            order.children[unit] = self._unit_controller[unit].open_connection(
                f"{order.connection_id}/{unit}", order.customer, a, b,
                order.rate_bps,
            )
        return order.children[unit]

    def _claim(
        self, order: ShardOrder, specs: List[SegmentSpec], plans: List[RwaPlan]
    ) -> None:
        """Claim every segment into its unit's child, then the NTE ends
        and the FXC steering; on failure each child gives it all back.

        Claim order is deterministic (segments in path order, then NTE
        ends, then FXC steering), so both deployment modes consume
        first-fit resources identically.
        """
        try:
            for spec, plan in zip(specs, plans):
                child = self._child(order, spec.unit, spec.source, spec.destination)
                self._unit_controller[spec.unit].claim_lightpath(child, plan)
            # Endpoint region children always exist — even when their
            # region segment is degenerate (the premises' PoP *is* the
            # gateway) they own the premises NTE interface and the
            # access-side FXC steering, which live in region inventory.
            for premises in (order.premises_a, order.premises_b):
                unit, pop = self.hierarchy.region_of(premises), self._pop_of(premises)
                child = self._child(order, unit, pop, pop)
                self._unit_controller[unit].claim_nte(child, premises)
            self._claim_steering(order)
        except GriphonError:
            self._retire(order)
            order.children = {}
            raise

    def _claim_steering(self, order: ShardOrder) -> None:
        """Program the FXC stitching at endpoints and traversed gateways.

        Each unit's cross-connects go through that unit's own FXCs: the
        access signal enters at the source PoP, hands off region-OT to
        express-OT at each gateway (two cross-connects — one per unit,
        on that unit's gateway FXC), and exits at the destination PoP.
        """
        handoff = f"handoff:{order.connection_id}"
        access = f"access:{order.connection_id}"
        ends = (order.premises_a, order.premises_b)
        region_a, region_b = (self.hierarchy.region_of(p) for p in ends)
        pop_a, pop_b = (self._pop_of(p) for p in ends)
        for unit, child in order.children.items():
            controller = self._unit_controller[unit]
            if not child.lightpath_ids:
                # Degenerate endpoint region: the PoP is the gateway;
                # steer access straight into the express handoff.
                pop = pop_a if unit == region_a else pop_b
                controller.steer(child, pop, access, handoff)
                continue
            lightpath = controller.inventory.lightpaths[child.lightpath_ids[0]]
            source_ot, dest_ot = lightpath.ot_ids[0], lightpath.ot_ids[1]
            source_label = access if lightpath.source == pop_a and unit == region_a else handoff
            dest_label = access if lightpath.destination == pop_b and unit == region_b else handoff
            controller.steer(child, lightpath.source, source_label, source_ot)
            controller.steer(child, lightpath.destination, dest_ot, dest_label)

    def _segments(self, order: ShardOrder) -> List[tuple]:
        """``(controller, lightpath, include_fxc)`` per segment, in order."""
        segments = []
        for unit, child in order.children.items():
            controller = self._unit_controller[unit]
            segments.extend(
                (controller, controller.inventory.lightpaths[lp_id], unit != EXPRESS)
                for lp_id in child.lightpath_ids
            )
        return segments

    def _retire(
        self, order: ShardOrder, state: Optional[ConnectionState] = None
    ) -> None:
        """Every child gives back its lightpaths and ledger, then settles
        in ``state`` — or, with none (a failed claim), is unregistered."""
        for unit, child in order.children.items():
            controller = self._unit_controller[unit]
            controller.drop_lightpaths(child)
            controller.release_claims(child)
            if state is None:
                del controller.connections[child.connection_id]
            else:
                child.transition(state)

    # -- simulated workflows --------------------------------------------------

    def _setup_workflow(self, order: ShardOrder):
        """Set up every segment in path order; unwind all on any abort.

        A segment whose saga rolled back, or that a cut failed, aborts the
        order: the UP segments are torn down in reverse, every child gives
        back what it still holds (aborted and never-started segments too)
        and the order settles BLOCKED with the abort's ``setup_error``.
        On success each unit controller puts its child into service,
        failing one whose segment was cut, and the order enters service
        FAILED if any child did.
        """
        completed = []
        for segment in self._segments(order):
            controller, lightpath, include_fxc = segment
            yield from controller.provisioner.setup_workflow(
                lightpath, include_fxc=include_fxc
            )
            if lightpath.state is not LightpathState.UP:
                break
            completed.append(segment)
        else:
            in_service = [
                self._unit_controller[unit].enter_service(child)
                for unit, child in order.children.items()
            ]
            order.transition(ConnectionState.UP)
            order.up_at = self.sim.now
            if all(in_service):
                self._notify("up", order)
            else:
                self._fail(order)
            return
        error = lightpath.setup_error
        for controller, done, include_fxc in reversed(completed):
            yield from controller.provisioner.teardown_workflow(
                done, include_fxc=include_fxc
            )
        for record in (*order.children.values(), order):
            record.setup_error = error
            record.blocked_reason = f"setup failed: {error}"
        self._retire(order, ConnectionState.BLOCKED)
        self.admission.release(order.customer, order.rate_bps)
        order.transition(ConnectionState.BLOCKED)
        self._notify("setup-failed", order)

    def _teardown_workflow(self, order: ShardOrder):
        for controller, lightpath, include_fxc in reversed(self._segments(order)):
            if lightpath.state in (LightpathState.UP, LightpathState.FAILED):
                yield from controller.provisioner.teardown_workflow(
                    lightpath, include_fxc=include_fxc
                )
        for record in (*order.children.values(), order):
            record.released_at = self.sim.now
        self._retire(order, ConnectionState.RELEASED)
        self.admission.release(order.customer, order.rate_bps)
        order.transition(ConnectionState.RELEASED)
        self._notify("released", order)


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
