"""The GRIPhoN controller: orders, restoration, and bridge-and-roll.

This is the brain of the system.  It owns the inventory database, talks
to every EMS, and implements the four Table 1 capabilities:

* **dynamic configurable-rate services** — orders are decomposed into
  wavelength and/or ODU0 sub-wavelength components (the paper's 12 Gbps
  example becomes one 10G lightpath plus two 1G OTN circuits);
* **rapid establishment** — setup runs as simulated EMS workflows that
  complete in about a minute instead of weeks;
* **reduced outage times** — fiber-cut detection, localization, and
  automated wavelength re-provisioning, plus sub-second shared-mesh
  restoration for OTN circuits;
* **minimal maintenance impact** — automated bridge-and-roll migrates a
  live connection to a disjoint path with only a tiny roll hit.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.admission import AdmissionControl, CustomerProfile
from repro.core.connection import (
    CLAIM_FXC,
    CLAIM_NTE,
    CLAIM_NTE_SUB,
    CLAIM_OTN_PORT,
    Connection,
    ConnectionKind,
    ConnectionState,
)
from repro.core.grooming import GroomingEngine
from repro.core.inventory import InventoryDatabase
from repro.core.provisioning import LightpathProvisioner
from repro.core.rwa import RwaEngine
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    EquipmentError,
    GriphonError,
    MigrationLockedError,
    ResourceError,
)
from repro.faults.plan import FaultPlan
from repro.faults.resilient import ResilientExecutor, RetryPolicy
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.iplayer.network import IpLayer
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.optical.impairments import ReachModel
from repro.optical.lightpath import Lightpath, LightpathState
from repro.optical.osnr import OsnrModel
from repro.otn.circuit import OduCircuitState
from repro.otn.mesh_restoration import SharedMeshProtection
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.units import GBPS, ODU_LEVELS

#: The brief traffic hit while rolling onto a bridge path, in seconds.
ROLL_HIT_S = 0.050

#: Client granularity of sub-wavelength service: 1 GbE in an ODU0.
SUBWAVELENGTH_CLIENT_BPS = 1 * GBPS


def decompose_rate(
    rate_bps: float, wavelength_rates: List[float]
) -> Tuple[List[float], int]:
    """Split a requested rate into wavelength components and 1G circuits.

    Greedy from the largest wavelength rate down; the remainder is packed
    into 1 Gbps ODU0 circuits.  The paper's example: 12 Gbps with a 10G
    wavelength available becomes ``([10G], 2)``.

    Raises:
        ConfigurationError: for a non-positive rate.
    """
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps}")
    remaining = rate_bps
    waves: List[float] = []
    for rate in sorted(wavelength_rates, reverse=True):
        while remaining >= rate:
            waves.append(rate)
            remaining -= rate
    circuits = int(math.ceil(remaining / SUBWAVELENGTH_CLIENT_BPS - 1e-9))
    return waves, max(0, circuits)


class GriphonController:
    """Connection management for the GRIPhoN network."""

    def __init__(
        self,
        sim: Simulator,
        inventory: InventoryDatabase,
        streams: RandomStreams,
        latency: Optional[LatencyModel] = None,
        reach: Optional[ReachModel] = None,
        parallel_ems: bool = False,
        k_paths: int = 4,
        assignment: str = "first-fit",
        auto_restore: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        osnr_model: Optional[OsnrModel] = None,
    ) -> None:
        self.sim = sim
        self.inventory = inventory
        self.streams = streams
        #: Connection-lifecycle tracing (off unless the tracer is enabled)
        #: and the metrics registry every subsystem aggregates into.
        self.tracer = tracer if tracer is not None else Tracer(sim.time_source())
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.latency = latency or LatencyModel(streams)
        self.latency.bind_metrics(self.metrics)
        self.roadm_ems = RoadmEms(
            inventory.plant, self.latency, metrics=self.metrics
        )
        #: The link-budget model behind per-connection OSNR margins.
        self.osnr_model = osnr_model if osnr_model is not None else OsnrModel()
        # Record every amplifier chain's provisioned gain in inventory so
        # the invariant auditor can cross-check live settings against it.
        for key, chain in self.roadm_ems.amplifier_chains().items():
            inventory.record_amplifier_gain(key, chain.target_gain_db)
        #: Every EMS command runs through the resilient executor: the
        #: fault plan decides what breaks, the policy how hard we retry.
        #: With the default empty plan this is a zero-cost passthrough.
        plan = fault_plan if fault_plan is not None else FaultPlan()
        self.fault_plan = plan.bind(streams)
        self.resilience = ResilientExecutor(
            self.fault_plan,
            retry_policy if retry_policy is not None else RetryPolicy(),
            streams=streams.spawn("resilient"),
            clock=sim.time_source(),
            metrics=self.metrics,
        )
        self.rwa = RwaEngine(
            inventory,
            reach=reach,
            k_paths=k_paths,
            assignment=assignment,
            streams=streams,
            tracer=self.tracer,
        )
        #: Alias of ``rwa``, kept while ``bench/`` is frozen:
        #: ``bench/workloads.py`` reads ``planning.route_cache_stats()``.
        self.planning = self.rwa
        self.provisioner = LightpathProvisioner(
            inventory,
            self.roadm_ems,
            self.latency,
            parallel_ems=parallel_ems,
            tracer=self.tracer,
            metrics=self.metrics,
            resilience=self.resilience,
        )
        self.protection = SharedMeshProtection(metrics=self.metrics)
        self.grooming = GroomingEngine(
            inventory, self.protection, line_factory=self._create_otn_line
        )
        self.admission = AdmissionControl()
        #: Optional IP layer for sub-1G packet services (Fig. 2).  Set
        #: by the facade (or directly) after construction.
        self.ip_layer: Optional[IpLayer] = None
        #: Optional concurrent order pipeline (repro.pipeline).  Set by
        #: GriphonNetwork.enable_pipeline(); BodService.submit_connection
        #: requires it.
        self.pipeline = None
        self.auto_restore = auto_restore
        self.connections: Dict[str, Connection] = {}
        self._conn_seq = itertools.count()
        self._lightpath_conn: Dict[str, str] = {}
        self._evc_conn: Dict[str, str] = {}
        self._line_lightpath: Dict[str, str] = {}
        self._new_line_lightpaths: List[Lightpath] = []
        #: connection_id -> the released lightpath record of a connection
        #: whose restoration did not take: the dead path set aside before
        #: a blocked claim, or a replacement the setup saga rolled back.
        #: The next attempt starts from it.
        self._unrestored: Dict[str, Lightpath] = {}
        #: Connections ordered down while RESTORING; the restoration
        #: workflow takes the teardown when it settles.
        self._teardown_after_restore: Set[str] = set()
        #: Per-connection migration locks: connection_id -> holder tag.
        #: Serializes lock-aware migration drivers (re-grooming, the
        #: global re-optimization executor) on the same connection.
        self._migration_locks: Dict[str, str] = {}
        inventory.plant.on_failure.append(self._handle_link_failure)
        #: Observers called with (event_name, payload) for metrics; the
        #: benchmark's driver (``bench/driver.py``) appends to this list.
        self.observers: List[Callable[[str, dict], None]] = []

    def set_latency_model(self, latency: LatencyModel) -> None:
        """Swap the latency model everywhere (EMSes, provisioner).

        Used by ablation experiments that re-time the same network with
        faster or jitter-free EMS steps.
        """
        self.latency = latency
        self.latency.bind_metrics(self.metrics)
        self.roadm_ems._latency = latency
        self.provisioner._latency = latency

    # -- customers -------------------------------------------------------------

    def register_customer(self, profile: CustomerProfile) -> None:
        """Register a CSP customer with its quotas."""
        self.admission.register_customer(profile)

    def wavelength_rates(self) -> List[float]:
        """Line rates for which any node has transponders installed."""
        return sorted(self.inventory.wavelength_rates)

    # -- signal quality ---------------------------------------------------------

    def osnr_margin_db(self, lightpath: Lightpath) -> float:
        """The lightpath's worst per-segment OSNR margin, in dB.

        Each regen resets the optical signal, so margin is evaluated per
        regen-free segment — distance from the link budget plus any
        gray-failure penalties active on the segment's links — and the
        lightpath's margin is the minimum across segments.
        """
        graph = self.inventory.graph
        plant = self.inventory.plant
        margins = []
        for segment in lightpath.segments:
            km = sum(
                graph.link_between(u, v).length_km
                for u, v in zip(segment.nodes, segment.nodes[1:])
            )
            penalty = plant.path_penalty_db(segment.nodes)
            margins.append(
                self.osnr_model.margin_db(km, lightpath.rate_bps, penalty)
            )
        return min(margins)

    def connection_osnr_margin_db(
        self, connection_id: str
    ) -> Optional[float]:
        """The connection's OSNR margin: min across its lightpaths.

        Returns None for connections with no live lightpath (packet
        services, or records that never reached setup).
        """
        connection = self.connections.get(connection_id)
        if connection is None:
            return None
        margins = []
        for lightpath_id in connection.lightpath_ids:
            lightpath = self.inventory.lightpaths.get(lightpath_id)
            if lightpath is not None and lightpath.segments:
                margins.append(self.osnr_margin_db(lightpath))
        return min(margins) if margins else None

    # -- orders ----------------------------------------------------------------

    def request_connection(
        self,
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        kind: Optional[ConnectionKind] = None,
    ) -> Connection:
        """Order a connection; returns immediately with the record.

        The connection sets up asynchronously via simulated EMS workflows;
        run the simulator and watch ``connection.state``.  A request that
        cannot be admitted or resourced returns a BLOCKED record (with
        ``blocked_reason``) rather than raising, because that is what the
        customer GUI shows.

        The order lifecycle is split into :meth:`open_order`,
        :meth:`admit_order`, and :meth:`launch_order` so the concurrent
        order pipeline (:mod:`repro.pipeline`) drives the exact same
        steps per order as this serial path — only the planning is
        batched there.
        """
        connection, span = self.open_order(
            customer, premises_a, premises_b, rate_bps, kind
        )
        if not self.admit_order(connection, span):
            return connection
        try:
            self.launch_order(connection, kind, span)
        except GriphonError as exc:
            self.block_admitted_order(connection, span, exc)
        return connection

    # -- order lifecycle steps (shared with repro.pipeline) ---------------------

    def open_order(
        self,
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        kind: Optional[ConnectionKind] = None,
    ) -> Tuple[Connection, Span]:
        """Create the connection record and its root tracing span."""
        connection = self.open_connection(
            f"conn-{next(self._conn_seq)}",
            customer, premises_a, premises_b, rate_bps, kind,
        )
        # The root span covers the order end to end: it closes when the
        # setup workflow completes (or immediately, for blocked orders).
        span = self.tracer.span(
            "connection.request",
            connection=connection.connection_id,
            customer=customer,
            rate_bps=rate_bps,
        )
        connection.trace_id = span.trace_id
        return connection, span

    def open_connection(
        self, connection_id: str, customer: str, premises_a: str,
        premises_b: str, rate_bps: float, kind: Optional[ConnectionKind] = None,
    ) -> Connection:
        """Register a REQUESTED connection record: an order's (see
        :meth:`open_order`), or one segment's of an order a coordinator
        decomposed across controllers (``repro.shard``)."""
        connection = Connection(
            connection_id, customer, premises_a, premises_b, rate_bps,
            kind or ConnectionKind.WAVELENGTH, requested_at=self.sim.now,
        )
        self.connections[connection_id] = connection
        return connection

    def admit_order(self, connection: Connection, span: Span) -> bool:
        """Run admission control for an opened order.

        Returns False — with the record settled as BLOCKED — when a
        quota or premises restriction refuses the order.
        """
        try:
            with span.child("order.admit"):
                self.admission.admit(
                    connection.customer,
                    connection.premises_a,
                    connection.premises_b,
                    connection.rate_bps,
                )
        except AdmissionError as exc:
            self._settle_blocked(connection, span, exc)
            return False
        return True

    def launch_order(
        self,
        connection: Connection,
        kind: Optional[ConnectionKind],
        span: Span,
        planner: Optional[Callable] = None,
        decomposition: Optional[Tuple[List[float], int]] = None,
    ) -> None:
        """Claim an admitted order's resources and start its setup.

        ``planner`` substitutes for :meth:`RwaEngine.plan` on the
        order's wavelength components (the pipeline serves plans
        computed by the round's ``plan_batch`` here).
        ``decomposition`` is the order's ``(wavelength rates, circuit
        count)`` when the caller already ran :meth:`prepare_order` on it
        (the pipeline does, ahead of its batch plan); without one the
        order is prepared here.  Raises GriphonError when claiming
        fails — the caller decides between :meth:`block_admitted_order`
        and a pipeline defer.
        """
        with span.child("order.claim") as claim_span:
            lightpaths, circuits, line_lightpaths = self._claim_components(
                connection, kind, claim_span, planner, decomposition
            )
        Process(
            self.sim,
            self._setup_workflow(
                connection, lightpaths, circuits, line_lightpaths, span
            ),
            label=f"setup:{connection.connection_id}",
        )

    def block_admitted_order(
        self, connection: Connection, span: Span, exc: GriphonError
    ) -> None:
        """Settle an admitted order as BLOCKED, returning its quota."""
        self.admission.release(connection.customer, connection.rate_bps)
        self._settle_blocked(connection, span, exc)

    def abandon_order(
        self, connection: Connection, span: Span, reason: str
    ) -> None:
        """Withdraw an admitted order before anything was claimed.

        The pipeline's defer path: quota is returned and the connection
        record is removed (the order goes back to the queue and will be
        reprocessed — with a fresh record — in a later round).
        """
        self.admission.release(connection.customer, connection.rate_bps)
        del self.connections[connection.connection_id]
        span.set_tag("outcome", "deferred").set_tag("reason", reason).finish()
        self.metrics.inc("connection.deferred")

    def _settle_blocked(
        self, connection: Connection, span: Span, exc: Exception
    ) -> None:
        """Mark an order BLOCKED and emit the usual telemetry."""
        connection.state = ConnectionState.BLOCKED
        connection.blocked_reason = str(exc)
        span.set_tag("outcome", "blocked").finish()
        self.metrics.inc("connection.blocked")
        self.notify("blocked", {"connection": connection, "reason": str(exc)})

    def teardown_connection(self, connection_id: str) -> Connection:
        """Order a teardown; completes asynchronously (about ten seconds).

        A connection that is RESTORING has a replacement lightpath midway
        through its EMS steps; the teardown is taken when that workflow
        settles (restored, aborted or cut again) and starts then.
        """
        connection = self.connection(connection_id)
        if connection.state is ConnectionState.RESTORING:
            self._teardown_after_restore.add(connection_id)
            return connection
        connection.transition(ConnectionState.TEARING_DOWN)
        Process(
            self.sim,
            self._teardown_workflow(connection),
            label=f"teardown:{connection_id}",
        )
        return connection

    def connection(self, connection_id: str) -> Connection:
        """Look up a connection.

        Raises:
            ResourceError: for an unknown id.
        """
        try:
            return self.connections[connection_id]
        except KeyError:
            raise ResourceError(f"unknown connection {connection_id!r}") from None

    def connections_of(self, customer: str) -> List[Connection]:
        """All connections (any state) belonging to a customer."""
        return [
            conn for conn in self.connections.values() if conn.customer == customer
        ]

    # -- failure injection & handling -------------------------------------------------

    def cut_link(self, a: str, b: str) -> None:
        """Cut a fiber link (failure handling runs automatically)."""
        self.inventory.plant.cut_link(a, b)

    def cut_srlg(self, srlg: str) -> None:
        """Cut a whole shared-risk group (conduit cut)."""
        self.inventory.plant.cut_srlg(srlg)

    def repair_link(self, a: str, b: str) -> None:
        """Repair a link and retry restoration for still-failed connections."""
        self.inventory.plant.repair_link(a, b)
        if self.ip_layer is not None:
            try:
                self.ip_layer.repair_adjacency(a, b)
            except GriphonError:
                pass  # no adjacency rides this span
            self._retry_down_evcs()
        if self.auto_restore:
            for connection in self.connections.values():
                if connection.state is ConnectionState.FAILED:
                    self._attempt_restoration(connection)
        else:
            # Manual world: when the fiber is physically repaired, the
            # original path lights up again and traffic resumes.
            self._revive_repaired_connections()

    def _revive_repaired_connections(self) -> None:
        for connection in self.connections.values():
            if connection.state is not ConnectionState.FAILED:
                continue
            if not connection.lightpath_ids:
                continue
            lightpath = self.inventory.lightpaths.get(
                connection.lightpath_ids[0]
            )
            if lightpath is None or lightpath.state is not LightpathState.FAILED:
                continue
            if not self.inventory.plant.path_is_up(lightpath.path):
                continue
            lightpath.transition(LightpathState.UP)
            connection.transition(ConnectionState.UP)
            connection.end_outage(self.sim.now)
            self.notify("revived", {"connection": connection})

    # -- bridge-and-roll ------------------------------------------------------------

    def lock_migration(self, connection_id: str, holder: str) -> bool:
        """Try to take the per-connection migration lock for ``holder``.

        Returns True when the lock was free (or already held by the same
        holder — acquisition is idempotent per holder).  The lock only
        arbitrates between cooperating migration drivers; it does not
        block teardown, restoration, or lock-oblivious bridge-and-roll
        callers, whose races the roll-time abort guards already settle.
        """
        current = self._migration_locks.get(connection_id)
        if current is not None and current != holder:
            return False
        self._migration_locks[connection_id] = holder
        return True

    def unlock_migration(self, connection_id: str, holder: str) -> None:
        """Release the migration lock if (and only if) ``holder`` owns it."""
        if self._migration_locks.get(connection_id) == holder:
            del self._migration_locks[connection_id]

    def migration_lock_holder(self, connection_id: str) -> Optional[str]:
        """The current migration-lock holder, or None when unlocked."""
        return self._migration_locks.get(connection_id)

    def bridge_and_roll(
        self,
        connection_id: str,
        exclude_links: Tuple = (),
        plan=None,
        lock_holder: Optional[str] = None,
        on_settled: Optional[Callable[[dict], None]] = None,
    ) -> Process:
        """Migrate a live wavelength connection to a new path.

        Sets up a full new wavelength path (the bridge) while the original
        carries traffic, then rolls traffic across with only a ~50 ms hit,
        then releases the old path.  By default the controller plans the
        bridge itself and requires it to be resource-disjoint from the old
        path (paper §2.2).  A precomputed ``plan`` (an
        :class:`~repro.core.rwa.RwaPlan`) overrides that: the bridge is
        claimed exactly as given — the global re-optimizer uses this to
        steer a connection onto a specific route and wavelength, including
        a rewavelength move on the *same* route (legal because the target
        channels are disjoint from every currently occupied channel, the
        connection's own included, for the bridge-before-release window).

        ``lock_holder`` identifies a cooperating migration driver: the
        per-connection migration lock is taken for the whole move and
        released on every exit path.  ``on_settled`` fires exactly once
        when the move settles, with ``{"connection_id", "outcome"}``
        (outcome ``"completed"`` or ``"aborted"``); a completed move's
        dict also carries ``bridge_s``, ``hit_s``, and the ``new_path``.

        Returns the driving :class:`Process`.

        Raises:
            MigrationLockedError: when ``lock_holder`` is given and the
                lock is held by another driver.
            ResourceError: if the connection is not an UP wavelength
                connection with exactly one lightpath.
            NoPathError / WavelengthBlockedError: if no disjoint bridge
                can be planned, or the (given) plan cannot be claimed.
        """
        connection = self.connection(connection_id)
        if lock_holder is not None and not self.lock_migration(
            connection_id, lock_holder
        ):
            raise MigrationLockedError(
                f"connection {connection_id!r} is mid-migration (lock held "
                f"by {self._migration_locks[connection_id]!r})"
            )
        try:
            return self._start_bridge_and_roll(
                connection, exclude_links, plan, lock_holder, on_settled
            )
        except BaseException:
            if lock_holder is not None:
                self.unlock_migration(connection_id, lock_holder)
            raise

    def _start_bridge_and_roll(
        self, connection, exclude_links, plan, lock_holder, on_settled
    ) -> Process:
        """Validate, plan/claim, and spawn the roll workflow (lock held)."""
        connection_id = connection.connection_id
        if connection.state is not ConnectionState.UP:
            raise ResourceError(
                f"{connection_id} is {connection.state.value}; bridge-and-roll "
                f"needs an UP connection"
            )
        if len(connection.lightpath_ids) != 1 or connection.circuit_ids:
            raise ResourceError(
                "bridge-and-roll currently supports single-lightpath "
                "wavelength connections"
            )
        old = self.inventory.lightpaths[connection.lightpath_ids[0]]
        span = self.tracer.span(
            "bridge_and_roll",
            trace_id=connection.trace_id,
            connection=connection_id,
        )
        try:
            if plan is None:
                with span.child("roll.plan") as plan_span:
                    plan = self.rwa.plan(
                        old.source,
                        old.destination,
                        old.rate_bps,
                        excluded_links=exclude_links,
                        avoid_srlgs_of=old.path,
                        parent_span=plan_span,
                    )
            with span.child("roll.claim"):
                bridge = self.provisioner.claim(plan)
        except GriphonError:
            span.set_tag("outcome", "blocked").finish()
            self.metrics.inc("bridge_and_roll.blocked")
            raise
        return Process(
            self.sim,
            self._bridge_and_roll_workflow(
                connection, old, bridge, span,
                lock_holder=lock_holder, on_settled=on_settled,
            ),
            label=f"bridge-roll:{connection_id}",
        )

    # -- workflows -------------------------------------------------------------------

    def _setup_workflow(
        self, connection, lightpaths, circuits, line_lightpaths, span=None
    ):
        if span is None:
            span = self.tracer.span(
                "connection.request", connection=connection.connection_id
            )
        connection.transition(ConnectionState.SETTING_UP)
        aborted_lightpaths: List[Lightpath] = []
        failed_circuits: List[Tuple] = []
        with span.child("connection.setup") as setup_span:
            for _ in connection.evc_ids:
                with setup_span.child("ip.evc"):
                    yield self.latency.sample("controller.order")
                    yield self.latency.sample("ip.evc")
            # Wavelengths created to carry new OTN lines come up first (the
            # circuits ride them), without customer-side FXC steps.
            for lightpath in line_lightpaths:
                yield from self.provisioner.setup_workflow(
                    lightpath, include_fxc=False, parent_span=setup_span
                )
                if lightpath.state is LightpathState.RELEASED:
                    self._abort_line_lightpath(lightpath)
            for lightpath in lightpaths:
                yield from self.provisioner.setup_workflow(
                    lightpath, parent_span=setup_span
                )
                if lightpath.state is LightpathState.RELEASED:
                    # The provisioning saga rolled this one back.
                    aborted_lightpaths.append(lightpath)
            for circuit in circuits:
                yield from self._circuit_setup_workflow(
                    circuit, setup_span, failed_circuits
                )
        if aborted_lightpaths or failed_circuits:
            self._settle_partial_setup(
                connection, aborted_lightpaths, failed_circuits, span
            )
            return
        if not self.enter_service(connection):
            span.set_tag("outcome", "failed-during-setup").finish()
            if self.auto_restore:
                self._attempt_restoration(connection)
            return
        span.set_tag("outcome", "up").finish()
        self.metrics.inc("connection.up")
        if connection.setup_duration is not None:
            self.metrics.observe("connection.setup_s", connection.setup_duration)
        self.notify("up", {"connection": connection})

    def _circuit_setup_workflow(self, circuit, setup_span, failed_circuits):
        """Program one ODU circuit's cross-connects, saga-style.

        A cross-connect that fails for good (or a working line that died
        while earlier components were setting up) aborts the circuit:
        the programmed cross-connects are removed and the circuit's line
        slots released.  The (circuit, error) pair lands in
        ``failed_circuits`` for the caller to settle.
        """
        with setup_span.child(
            "otn.circuit.setup", circuit=circuit.circuit_id
        ) as ckt_span:
            circuit.transition(OduCircuitState.SETTING_UP)
            circuit.setup_started_at = self.sim.now
            yield self.latency.sample("controller.order")
            programmed = 0
            error = None
            for line_id in circuit.line_ids:
                duration = self.latency.sample("otn.crossconnect")
                try:
                    yield from self.resilience.execute(
                        "otn_ems",
                        line_id,
                        "crossconnect",
                        duration,
                        parent_span=ckt_span,
                    )
                except EquipmentError as exc:
                    error = exc
                    break
                programmed += 1
            dead_lines = []
            for line_id in circuit.line_ids:
                line = self.inventory.otn_lines.get(line_id)
                if line is not None and line.failed:
                    dead_lines.append(line_id)
            if error is None and dead_lines:
                error = EquipmentError(
                    f"OTN line {dead_lines[0]} failed during setup",
                    site=dead_lines[0],
                    element=dead_lines[0],
                    command="crossconnect",
                )
            if error is not None:
                # Compensate: remove what was programmed, free the slots.
                with ckt_span.child("otn.circuit.rollback", reason=str(error)):
                    for _ in range(programmed):
                        yield self.latency.sample("otn.crossconnect.remove")
                circuit.transition(OduCircuitState.RELEASED)
                self.grooming.release_circuit(circuit)
                failed_circuits.append((circuit, error))
                ckt_span.set_tag("outcome", "aborted")
                self.metrics.inc("otn.circuit.setup_aborted")
            else:
                circuit.transition(OduCircuitState.UP)
                circuit.up_at = self.sim.now

    def _settle_partial_setup(
        self, connection, aborted_lightpaths, failed_circuits, span
    ) -> None:
        """Decide DEGRADED vs BLOCKED after components aborted mid-setup.

        Aborted components are dropped, each giving back its own ledger
        entries (NTE, FXC and OTN client-port claims).  If any
        component made it up the connection enters service DEGRADED;
        if none did, the ledger is empty by now and the order is
        BLOCKED — zero residue, exactly like a claim-time block.
        """
        for lightpath in aborted_lightpaths:
            lightpath_id = lightpath.lightpath_id
            connection.lightpath_ids.remove(lightpath_id)
            self._lightpath_conn.pop(lightpath_id, None)
            self.release_claims(connection, lightpath_id)
        for circuit, _error in failed_circuits:
            connection.circuit_ids.remove(circuit.circuit_id)
            self.release_claims(connection, circuit.circuit_id)
        if aborted_lightpaths:
            connection.setup_error = aborted_lightpaths[0].setup_error
        else:
            connection.setup_error = failed_circuits[0][1]
        survivors = bool(
            connection.lightpath_ids
            or connection.circuit_ids
            or connection.evc_ids
        )
        if survivors:
            connection.transition(ConnectionState.DEGRADED)
            connection.up_at = self.sim.now
            span.set_tag("outcome", "degraded").finish()
            self.metrics.inc("connection.setup_degraded")
            self.notify("setup-degraded", {"connection": connection})
        else:
            self.admission.release(connection.customer, connection.rate_bps)
            connection.blocked_reason = f"setup failed: {connection.setup_error}"
            connection.transition(ConnectionState.BLOCKED)
            span.set_tag("outcome", "setup-failed").finish()
            self.metrics.inc("connection.setup_failed")
            self.notify("setup-failed", {"connection": connection})

    def _abort_line_lightpath(self, lightpath) -> None:
        """Handle a rolled-back carrier lightpath for a new OTN line.

        The line it was meant to carry becomes failed infrastructure;
        circuits groomed onto it abort during their own setup (their
        cross-connect programming finds the line dead).
        """
        lp_id = lightpath.lightpath_id
        for line_id, mapped in list(self._line_lightpath.items()):
            if mapped != lp_id:
                continue
            del self._line_lightpath[line_id]
            self._fail_otn_line(line_id)
        self.metrics.inc("otn.line.lightpath_aborted")

    def _teardown_workflow(self, connection):
        span = self.tracer.span(
            "connection.teardown",
            trace_id=connection.trace_id,
            connection=connection.connection_id,
        )
        started = self.sim.now
        for evc_id in list(connection.evc_ids):
            yield self.latency.sample("ip.evc.remove")
            if self.ip_layer is not None and any(
                evc.evc_id == evc_id for evc in self.ip_layer.evcs
            ):
                self.ip_layer.release_evc(evc_id)
            self._evc_conn.pop(evc_id, None)
        connection.evc_ids = []
        for circuit_id in list(connection.circuit_ids):
            circuit = self.inventory.circuits.get(circuit_id)
            if circuit is None:
                continue
            yield self.latency.sample("controller.release")
            for _ in circuit.line_ids:
                yield self.latency.sample("otn.crossconnect.remove")
            circuit.transition(OduCircuitState.RELEASED)
            self.grooming.release_circuit(circuit)
        for lightpath_id in list(connection.lightpath_ids):
            lightpath = self.inventory.lightpaths.get(lightpath_id)
            if lightpath is None:
                continue
            yield from self.provisioner.teardown_workflow(
                lightpath, parent_span=span
            )
            self._lightpath_conn.pop(lightpath_id, None)
        if any(entry[1] in (CLAIM_NTE, CLAIM_NTE_SUB) for entry in connection.claims):
            yield self.latency.sample("nte.release")
        self._unrestored.pop(connection.connection_id, None)
        self.release_claims(connection)
        connection.transition(ConnectionState.RELEASED)
        connection.released_at = self.sim.now
        self.admission.release(connection.customer, connection.rate_bps)
        span.finish()
        self.metrics.inc("connection.released")
        self.metrics.observe("connection.teardown_s", self.sim.now - started)
        self.notify("released", {"connection": connection})

    def _bridge_and_roll_workflow(
        self, connection, old, bridge, span=None,
        lock_holder=None, on_settled=None,
    ):
        if span is None:
            span = self.tracer.span(
                "bridge_and_roll", connection=connection.connection_id
            )

        def settle(outcome: str, summary: Optional[dict] = None) -> None:
            # Release the migration lock before notifying, so a settle
            # callback can immediately start the connection's next move.
            if lock_holder is not None:
                self.unlock_migration(connection.connection_id, lock_holder)
            if on_settled is not None:
                payload = {
                    "connection_id": connection.connection_id,
                    "outcome": outcome,
                }
                if summary:
                    payload.update(summary)
                on_settled(payload)

        bridge_started = self.sim.now
        # Bridge: bring the new path up while the old one carries traffic.
        yield from self.provisioner.setup_workflow(
            bridge, include_fxc=False, parent_span=span
        )
        bridge_s = self.sim.now - bridge_started
        # The customer may have torn the connection down (or a failure
        # may have taken it, or another bridge-and-roll already moved
        # the connection off the old path) while the bridge was being
        # built; in that case the roll is pointless.
        rolled = (
            connection.state is ConnectionState.UP
            and old.lightpath_id in self.inventory.lightpaths
            and old.lightpath_id in connection.lightpath_ids
            and bridge.state is LightpathState.UP
        )
        if rolled:
            # Roll: steer the FXCs to the new transponders.  Traffic takes
            # a brief hit while the client signal moves.
            with span.child("roll.hit"):
                connection.begin_outage(self.sim.now)
                yield ROLL_HIT_S
                connection.end_outage(self.sim.now)
            # A teardown (or failure, or a competing roll) may land during
            # the roll hit; the old path then belongs to whoever settled it.
            rolled = (
                connection.state is ConnectionState.UP
                and old.lightpath_id in connection.lightpath_ids
            )
        if not rolled:
            # Only the bridge is left to release.
            if bridge.state is LightpathState.UP:
                yield from self.provisioner.teardown_workflow(
                    bridge, include_fxc=False, parent_span=span
                )
            elif bridge.lightpath_id in self.inventory.lightpaths:
                self.provisioner.release(bridge)
            span.set_tag("outcome", "aborted").finish()
            self.metrics.inc("bridge_and_roll.aborted")
            self.notify(
                "bridge-and-roll-aborted",
                {"connection_id": connection.connection_id},
            )
            settle("aborted")
            return
        connection.lightpath_ids = [bridge.lightpath_id]
        self._lightpath_conn.pop(old.lightpath_id, None)
        self._lightpath_conn[bridge.lightpath_id] = connection.connection_id
        self._relabel_steering(connection, old, bridge)
        # Release the old path in the background.
        yield from self.provisioner.teardown_workflow(
            old, include_fxc=False, parent_span=span
        )
        span.set_tag("outcome", "completed").finish()
        self.metrics.inc("bridge_and_roll.completed")
        self.metrics.observe("bridge_and_roll.bridge_s", bridge_s)
        summary = {
            "connection_id": connection.connection_id,
            "bridge_s": bridge_s,
            "hit_s": ROLL_HIT_S,
            "new_path": list(bridge.path),
        }
        self.notify("bridge-and-roll", summary)
        settle("completed", summary)

    # -- order decomposition --------------------------------------------------------

    def decompose_order(
        self, connection, kind: Optional[ConnectionKind]
    ) -> Optional[Tuple[List[float], int]]:
        """Resolve an order into ``(wavelength rates, 1G circuit count)``.

        Returns ``None`` when the order rides the IP layer as an EVC
        (sub-1G guaranteed bandwidth, Fig. 2, or a forced PACKET kind).
        Pure: nothing is claimed.

        Raises:
            ResourceError: when no installed layer can realize the rate.
        """
        # Fig. 2: guaranteed bandwidth below 1 Gbps rides the IP layer
        # as an EVC (when an IP layer exists and no layer was forced).
        if (
            kind is None
            and connection.rate_bps < SUBWAVELENGTH_CLIENT_BPS
            and self.ip_layer is not None
        ):
            return None
        if kind is ConnectionKind.PACKET:
            if self.ip_layer is None:
                raise ResourceError(
                    "packet service requested but no IP layer exists"
                )
            return None
        rates = self.wavelength_rates()
        if kind is ConnectionKind.WAVELENGTH:
            fitting = [r for r in rates if r >= connection.rate_bps]
            if not fitting:
                raise ResourceError(
                    "no installed transponder rate can carry "
                    f"{connection.rate_bps / GBPS:g}G as a single wavelength"
                )
            waves, circuits_needed = [min(fitting)], 0
        elif kind is ConnectionKind.SUBWAVELENGTH:
            waves, circuits_needed = [], int(
                math.ceil(connection.rate_bps / SUBWAVELENGTH_CLIENT_BPS - 1e-9)
            )
        else:
            waves, circuits_needed = decompose_rate(connection.rate_bps, rates)
        if circuits_needed and not self.inventory.otn_switches:
            if waves and kind is None:
                # No OTN layer: round the remainder up to one more wavelength.
                waves.append(min(rates))
                circuits_needed = 0
            else:
                raise ResourceError(
                    "sub-wavelength service requested but no OTN layer exists"
                )
        return waves, circuits_needed

    def prepare_order(
        self, connection, kind: Optional[ConnectionKind]
    ) -> Optional[Tuple[List[float], int]]:
        """Decompose an order and refuse it if its premises cannot
        terminate it; returns :meth:`decompose_order`'s result.

        A layer-1 order gets its ``connection.kind`` classified and
        passes :meth:`check_terminations` before anything is planned or
        claimed, so an order no NTE can take costs only this call.

        Raises:
            ResourceError: when no installed layer can realize the rate.
            CapacityExceededError: when a premises NTE is out of
                interfaces for it (the first failing claim's message).
        """
        decomposition = self.decompose_order(connection, kind)
        if decomposition is not None:
            waves, circuits = decomposition
            connection.kind = self._classify(waves, circuits)
            self.check_terminations(connection, waves, circuits)
        return decomposition

    def check_terminations(
        self, connection, waves: List[float], circuits: int
    ) -> None:
        """Raise what the claim loop's NTE claims would raise; claim
        nothing.

        Replays :meth:`_claim_components`' NTE order on each NTE's
        :meth:`~repro.optical.nte.NetworkTerminatingEquipment.capacity`:
        premises A, then premises B; an un-channelized interface per
        wavelength, then one sub-channel per circuit, where a full set
        of channelized interfaces opens a new interface as
        ``claim_subchannel`` does.  Two ends at one premises draw on one
        count.  O(1) per premises.

        Raises:
            CapacityExceededError: the first failing claim's error.
        """
        ntes = self.inventory.ntes
        left: Dict[str, Tuple[int, int]] = {}
        for premises in (connection.premises_a, connection.premises_b):
            nte = ntes[premises]
            free, free_subs = (
                left[premises] if premises in left else nte.capacity()
            )
            free -= len(waves)
            if circuits > free_subs:
                per_interface = nte.subchannels_per_interface
                opened = -(-(circuits - free_subs) // per_interface)
                free -= opened
                free_subs += opened * per_interface
            if free < 0:
                raise nte.no_free_interface()
            left[premises] = (free, free_subs - circuits)

    def _claim_components(
        self,
        connection,
        kind,
        parent_span: Optional[Span] = None,
        planner: Optional[Callable] = None,
        decomposition: Optional[Tuple[List[float], int]] = None,
    ):
        """Claim all resources for an order; returns its components.

        ``planner`` (same call shape as :meth:`RwaEngine.plan`) replaces
        the live per-wave planning when the pipeline already planned the
        round as a batch, and ``decomposition`` the
        :meth:`prepare_order` call when it already prepared the order.
        """
        pop_a = self.inventory.pop_of(connection.premises_a)
        pop_b = self.inventory.pop_of(connection.premises_b)
        if decomposition is None:
            decomposition = self.prepare_order(connection, kind)
            if decomposition is None:
                return self._claim_evc(connection, pop_a, pop_b)
        waves, circuits_needed = decomposition
        plan_wave = self.rwa.plan if planner is None else planner
        lightpaths: List[Lightpath] = []
        circuits = []
        self._new_line_lightpaths = []
        try:
            for rate in waves:
                plan = plan_wave(pop_a, pop_b, rate, parent_span=parent_span)
                lightpaths.append(self.claim_lightpath(connection, plan))
            circuit = None
            for _ in range(circuits_needed):
                # Every circuit after the first rides its sibling's routes.
                circuit = self.grooming.claim_circuit(
                    pop_a, pop_b, ODU_LEVELS["ODU0"], protect=True,
                    like=circuit,
                )
                circuits.append(circuit)
            for premises in (connection.premises_a, connection.premises_b):
                # Each wavelength component terminates on its own
                # un-channelized interface; each 1G circuit takes one
                # sub-channel of a shared channelized interface (the
                # 1/10G multiplexer of the testbed).
                for lightpath in lightpaths:
                    self.claim_nte(connection, premises, lightpath.lightpath_id)
                for circuit in circuits:
                    self.claim_nte(
                        connection, premises, circuit.circuit_id, subchannel=True
                    )
            self._claim_steering(connection, lightpaths, circuits)
        except GriphonError:
            self.drop_lightpaths(connection)
            for circuit in circuits:
                self.grooming.release_circuit(circuit)
            self.release_claims(connection)
            # OTN lines created while claiming stay in the inventory:
            # they are carrier infrastructure, immediately reusable by
            # future grooming (and reclaimable if they stay idle).
            raise
        connection.circuit_ids = [ckt.circuit_id for ckt in circuits]
        line_lightpaths = self._new_line_lightpaths
        self._new_line_lightpaths = []
        return lightpaths, circuits, line_lightpaths

    def _claim_evc(self, connection, pop_a: str, pop_b: str):
        """Claim an IP-layer EVC (plus NTE sub-channels) for an order."""
        evc = self.ip_layer.provision_evc(pop_a, pop_b, connection.rate_bps)
        self._evc_conn[evc.evc_id] = connection.connection_id
        try:
            for premises in (connection.premises_a, connection.premises_b):
                self.claim_nte(connection, premises, evc.evc_id, subchannel=True)
        except GriphonError:
            self.ip_layer.release_evc(evc.evc_id)
            self._evc_conn.pop(evc.evc_id, None)
            self.release_claims(connection)
            raise
        connection.kind = ConnectionKind.PACKET
        connection.evc_ids = [evc.evc_id]
        return [], [], []

    # -- a connection's lightpaths --------------------------------------------------

    def claim_lightpath(self, connection, plan) -> Lightpath:
        """Claim a planned lightpath into ``connection``: the
        provisioner's claim, appended to its lightpaths and indexed, so
        a cut of it fails the connection."""
        lightpath = self.provisioner.claim(plan)
        connection.lightpath_ids.append(lightpath.lightpath_id)
        self._lightpath_conn[lightpath.lightpath_id] = connection.connection_id
        return lightpath

    def drop_lightpaths(self, connection) -> None:
        """Detach every lightpath from ``connection`` and release each
        one still registered, whether claimed, cut, or never started.

        One a saga rolled back or a teardown retired is already gone.
        """
        registered = self.inventory.lightpaths
        for lightpath_id in connection.lightpath_ids:
            self._lightpath_conn.pop(lightpath_id, None)
            lightpath = registered.get(lightpath_id)
            if lightpath is not None:
                self.provisioner.release(lightpath)
        connection.lightpath_ids = []

    def connection_of(self, lightpath_id: str) -> Optional[str]:
        """The id of the connection ``lightpath_id`` serves, if any."""
        return self._lightpath_conn.get(lightpath_id)

    def enter_service(self, connection) -> bool:
        """Put a set-up connection into service: UP as of now.

        Returns False when one of its lightpaths was cut while it was
        setting up; the connection is FAILED then, its outage open, so
        restoration or the repair takes it from there.
        """
        connection.transition(ConnectionState.UP)
        connection.up_at = self.sim.now
        registered = self.inventory.lightpaths
        if any(
            registered[lightpath_id].state is LightpathState.FAILED
            for lightpath_id in connection.lightpath_ids
            if lightpath_id in registered
        ):
            self._fail_connection_component(connection)
            return False
        return True

    # -- the claims ledger ---------------------------------------------------------

    def _claim_steering(self, connection, lightpaths, circuits) -> None:
        """Program the FXC steering of Fig. 3 (state, not time).

        At each end PoP the customer signal is cross-connected either to
        the lightpath's transponder (wavelength service) or into an OTN
        switch client port (sub-wavelength service).  The time cost of
        these operations is already part of the setup workflows; this
        records the *state* so ports are genuinely consumed and audited.
        """
        owner = connection.connection_id
        access = f"access:{owner}"
        pops = (
            self.inventory.pop_of(connection.premises_a),
            self.inventory.pop_of(connection.premises_b),
        )
        for lightpath in lightpaths:
            for pop, ot_id in zip(pops, lightpath.ot_ids):
                self.steer(connection, pop, access, ot_id, lightpath.lightpath_id)
        for circuit in circuits:
            for pop in pops:
                port = self.inventory.otn_switches[pop].claim_client_port(owner)
                connection.claims.append(
                    (circuit.circuit_id, CLAIM_OTN_PORT, pop, port)
                )
                self.steer(
                    connection, pop, access, f"OTN:{pop}:client{port}",
                    circuit.circuit_id,
                )

    def claim_nte(
        self, connection, premises: str, component: str = "",
        subchannel: bool = False,
    ) -> None:
        """Claim an un-channelized NTE interface at ``premises`` — or one
        sub-channel of a shared channelized one — into the ledger."""
        nte = self.inventory.ntes[premises]
        owner = connection.connection_id
        if subchannel:
            index, sub = nte.claim_subchannel(owner)
            connection.claims.append(
                (component, CLAIM_NTE_SUB, premises, index, sub)
            )
        else:
            index = nte.claim_interface(owner, channelized=False)
            connection.claims.append((component, CLAIM_NTE, premises, index))

    def steer(
        self, connection, pop: str, label_a: str, label_b: str,
        component: str = "",
    ) -> None:
        """Cross-connect the FXC's first free pair at ``pop``, labelled
        ``label_a`` / ``label_b``, into the ledger."""
        fxc = self.inventory.fxcs.get(pop)
        if fxc is None:
            return  # a PoP without an FXC is hard-wired
        pair = fxc.first_free_pair()
        if pair is None:
            raise ResourceError(f"FXC at {pop} has no free port pair")
        a, b = pair
        fxc.connect(a, b, connection.connection_id)
        fxc.label_port(a, label_a)
        fxc.label_port(b, label_b)
        connection.claims.append((component, CLAIM_FXC, pop, a))

    def release_claims(self, connection, component: Optional[str] = None) -> None:
        """Give back the connection's ledger entries, newest first — all
        of them, or only ``component``'s (the rest stay in the ledger).

        Every allocator behind the ledger hands out its lowest free
        unit, so the order of release cannot change a later claim.
        """
        owner = connection.connection_id
        inventory = self.inventory
        kept = []
        for entry in reversed(connection.claims):
            if component is not None and entry[0] != component:
                kept.append(entry)
                continue
            kind, site, unit = entry[1], entry[2], entry[3]
            if kind == CLAIM_NTE:
                inventory.ntes[site].release_interface(unit, owner)
            elif kind == CLAIM_NTE_SUB:
                inventory.ntes[site].release_subchannel(unit, entry[4], owner)
            elif kind == CLAIM_OTN_PORT:
                inventory.otn_switches[site].release_client_port(unit, owner)
            else:
                fxc = inventory.fxcs[site]
                peer = fxc.peer_of(unit)
                fxc.disconnect(unit, owner)
                fxc.label_port(unit, "")
                fxc.label_port(peer, "")
        kept.reverse()
        connection.claims = kept

    def _relabel_steering(self, connection, old_lightpath, new_lightpath) -> None:
        """After a roll or restoration, hand the old lightpath's ledger
        entries to the new one and point each of its FXC pairs at the
        new transponder at that site.

        Only the component's own cross-connects are touched: after a
        blocked restoration the old transponders may already serve
        someone else, whose port then carries the same label.
        """
        old_id, new_id = old_lightpath.lightpath_id, new_lightpath.lightpath_id
        new_ots = {ot_id.split(":")[1]: ot_id for ot_id in new_lightpath.ot_ids}
        claims = connection.claims
        for position, entry in enumerate(claims):
            if entry[0] != old_id:
                continue
            claims[position] = (new_id,) + entry[1:]
            if entry[1] == CLAIM_FXC:
                fxc = self.inventory.fxcs[entry[2]]
                fxc.label_port(fxc.peer_of(entry[3]), new_ots[entry[2]])

    @staticmethod
    def _classify(waves: List[float], circuits: int) -> ConnectionKind:
        if waves and circuits:
            return ConnectionKind.COMPOSITE
        if waves:
            return ConnectionKind.WAVELENGTH
        return ConnectionKind.SUBWAVELENGTH

    # -- OTN line factory --------------------------------------------------------

    def _create_otn_line(self, a: str, b: str):
        """Stand up a new OTN line a-b by claiming a fresh wavelength."""
        rates = self.wavelength_rates()
        if not rates:
            raise ResourceError("no transponders installed anywhere")
        line_rate = min(r for r in rates if r >= 10 * GBPS) if any(
            r >= 10 * GBPS for r in rates
        ) else max(rates)
        plan = self.rwa.plan(a, b, line_rate)
        lightpath = self.provisioner.claim(plan)
        level = "ODU2" if line_rate <= 10 * GBPS else "ODU3"
        line = self.inventory.create_otn_line(a, b, level=ODU_LEVELS[level])
        self.protection.add_line(line)
        self._line_lightpath[line.line_id] = lightpath.lightpath_id
        self._new_line_lightpaths.append(lightpath)
        return line

    def detach_otn_line(self, line_id: str) -> Optional[str]:
        """Forget a retired OTN line's carrier wavelength; returns that
        lightpath's id (None for a line the controller did not stand
        up).  The lightpath itself is the caller's to tear down."""
        return self._line_lightpath.pop(line_id, None)

    # -- failure handling ------------------------------------------------------------

    def _handle_link_failure(self, link_key, affected_owners):
        """Fiber-cut handler: localize, fail, and (optionally) restore."""
        self.tracer.event("failure.fiber_cut", link=f"{link_key[0]}={link_key[1]}")
        self.metrics.inc("failure.fiber_cut")
        self.notify("fiber-cut", {"link": link_key, "owners": set(affected_owners)})
        # IP layer: the adjacency riding this span fails; the IGP
        # reconverges and EVCs reroute in a couple hundred milliseconds.
        if self.ip_layer is not None:
            self._handle_ip_adjacency_failure(link_key)
        # Wavelength layer: fail lightpaths riding the link.
        for lightpath in self.inventory.lightpaths_using_link(*link_key):
            if lightpath.state is not LightpathState.UP:
                continue
            lightpath.transition(LightpathState.FAILED)
            conn_id = self._lightpath_conn.get(lightpath.lightpath_id)
            if conn_id is not None:
                self._fail_connection_component(self.connection(conn_id))
            # OTN lines riding this lightpath fail too.
            for line_id, lp_id in list(self._line_lightpath.items()):
                if lp_id == lightpath.lightpath_id:
                    self._fail_otn_line(line_id)
        # OTN circuits restore via shared mesh (sub-second), wavelength
        # connections via re-provisioning (about a minute).
        if self.auto_restore:
            for connection in list(self.connections.values()):
                if connection.state is ConnectionState.FAILED:
                    self._attempt_restoration(connection)

    def _retry_down_evcs(self) -> None:
        """After a repair, bring DOWN EVCs back up."""
        from repro.iplayer.evc import EvcState

        for evc in self.ip_layer.evcs:
            if evc.state is not EvcState.DOWN:
                continue
            conn_id = self._evc_conn.get(evc.evc_id)
            connection = (
                self.connections.get(conn_id) if conn_id is not None else None
            )
            try:
                outage = self.ip_layer.reroute_evc(evc.evc_id)
            except GriphonError:
                continue
            if connection is not None:
                if connection.state is ConnectionState.FAILED:
                    connection.transition(ConnectionState.UP)
                self.sim.schedule(
                    outage,
                    connection.end_outage,
                    self.sim.now + outage,
                    label=f"evc-retry:{evc.evc_id}",
                )

    def _handle_ip_adjacency_failure(self, link_key) -> None:
        a, b = link_key
        try:
            affected = self.ip_layer.fail_adjacency(a, b)
        except GriphonError:
            return  # no adjacency rides this span
        for evc in affected:
            conn_id = self._evc_conn.get(evc.evc_id)
            connection = (
                self.connections.get(conn_id) if conn_id is not None else None
            )
            if connection is not None:
                connection.begin_outage(self.sim.now)
            try:
                outage = self.ip_layer.reroute_evc(evc.evc_id)
            except GriphonError:
                # No surviving capacity: stays down until repair.
                if connection is not None and connection.state in (
                    ConnectionState.UP,
                    ConnectionState.DEGRADED,
                ):
                    connection.transition(ConnectionState.FAILED)
                continue
            if connection is not None:
                self.sim.schedule(
                    outage,
                    connection.end_outage,
                    self.sim.now + outage,
                    label=f"evc-reroute:{evc.evc_id}",
                )

    def _fail_connection_component(self, connection):
        if connection.state in (ConnectionState.UP, ConnectionState.DEGRADED):
            connection.begin_outage(self.sim.now)
            connection.transition(ConnectionState.FAILED)
            self.notify("connection-failed", {"connection": connection})

    def _fail_otn_line(self, line_id: str) -> None:
        line = self.inventory.otn_lines.get(line_id)
        if line is None or line.failed:
            return
        affected = line.fail()
        for circuit_id in affected:
            circuit = self.inventory.circuits.get(circuit_id)
            if circuit is None or circuit.state is not OduCircuitState.UP:
                continue
            circuit.transition(OduCircuitState.FAILED)
            try:
                switch_time = self.protection.restore(circuit_id)
            except GriphonError:
                continue  # no shared capacity left; stays failed
            circuit.restored_at = self.sim.now + switch_time
            conn_id = self._circuit_connection(circuit_id)
            trace_id = (
                self.connections[conn_id].trace_id if conn_id is not None else None
            )
            self.tracer.record(
                "otn.mesh_restore",
                start=self.sim.now,
                end=self.sim.now + switch_time,
                trace_id=trace_id,
                circuit=circuit_id,
            )
            if conn_id is not None:
                connection = self.connection(conn_id)
                connection.begin_outage(self.sim.now)
                self.sim.schedule(
                    switch_time,
                    connection.end_outage,
                    self.sim.now + switch_time,
                    label=f"mesh-restore:{circuit_id}",
                )

    def _circuit_connection(self, circuit_id: str) -> Optional[str]:
        for connection in self.connections.values():
            if circuit_id in connection.circuit_ids:
                return connection.connection_id
        return None

    def _attempt_restoration(self, connection):
        """Re-provision a failed wavelength connection on a new route.

        A blocked attempt — no route, or a route whose claim found a
        regen site or port bank empty — leaves the connection FAILED and
        naming only what the inventory still has, so the next repair (or
        cut) tries again.
        """
        conn_id = connection.connection_id
        # The dead lightpath: registered and still holding its resources,
        # or set aside by an earlier attempt whose claim was blocked.
        old = self._unrestored.get(conn_id)
        set_aside = old is not None
        if not set_aside:
            if not connection.lightpath_ids:
                return
            old = self.inventory.lightpaths.get(connection.lightpath_ids[0])
            if old is None or old.state is not LightpathState.FAILED:
                return
        span = self.tracer.span(
            "restoration", trace_id=connection.trace_id, connection=conn_id
        )
        with span.child("restoration.localize"):
            failed_links = set(self.inventory.plant.failed_links())
        try:
            with span.child("restoration.plan") as plan_span:
                plan = self.rwa.plan(
                    old.source,
                    old.destination,
                    old.rate_bps,
                    excluded_links=failed_links,
                    parent_span=plan_span,
                )
            if not set_aside:
                # Release the dead path (the new one may need what it
                # holds).  Until a claim takes its place the connection
                # names no lightpath and the record waits here.
                self.provisioner.release(old)
                self._lightpath_conn.pop(old.lightpath_id, None)
                connection.lightpath_ids = []
                self._unrestored[conn_id] = old
            with span.child("restoration.claim"):
                replacement = self.claim_lightpath(connection, plan)
        except GriphonError as exc:
            span.set_tag("outcome", "blocked").finish()
            self.metrics.inc("restoration.blocked")
            self.notify(
                "restoration-blocked",
                {"connection": connection, "reason": str(exc)},
            )
            return
        del self._unrestored[conn_id]
        connection.transition(ConnectionState.RESTORING)
        self._relabel_steering(connection, old, replacement)
        Process(
            self.sim,
            self._restoration_workflow(connection, replacement, span),
            label=f"restore:{conn_id}",
        )

    def _restoration_workflow(self, connection, replacement, span=None):
        if span is None:
            span = self.tracer.span(
                "restoration", connection=connection.connection_id
            )
        conn_id = connection.connection_id
        started = self.sim.now
        yield from self.provisioner.setup_workflow(
            replacement, include_fxc=False, parent_span=span
        )
        # Ordered down while restoring?  Settle without retrying, then
        # take the teardown that was waiting for this.
        torn_down = conn_id in self._teardown_after_restore
        self._teardown_after_restore.discard(conn_id)
        self._settle_restoration(
            connection, replacement, span, started, retry=not torn_down
        )
        if torn_down:
            self.teardown_connection(conn_id)

    def _settle_restoration(
        self, connection, replacement, span, started, retry
    ) -> None:
        """Conclude a restoration once the replacement's setup returned."""
        if replacement.state is LightpathState.RELEASED:
            # The resilient layer gave up mid-restore and the saga
            # rolled the replacement back.  The connection stays FAILED
            # and names no lightpath (no immediate retry — the same
            # faults would hit again); the rolled-back record waits in
            # ``_unrestored`` for the next repair or cut, or a teardown.
            connection.setup_error = replacement.setup_error
            self.drop_lightpaths(connection)  # the saga released it
            self._unrestored[connection.connection_id] = replacement
            connection.transition(ConnectionState.FAILED)
            span.set_tag("outcome", "aborted").finish()
            self.metrics.inc("restoration.aborted")
            self.notify("restoration-aborted", {"connection": connection})
            return
        if replacement.state is LightpathState.FAILED:
            # Another cut landed while we were restoring; try again.
            span.set_tag("outcome", "re-failed").finish()
            connection.transition(ConnectionState.FAILED)
            if retry:
                self._attempt_restoration(connection)
            return
        connection.transition(ConnectionState.UP)
        connection.end_outage(self.sim.now)
        span.set_tag("outcome", "restored").finish()
        self.metrics.inc("restoration.success")
        self.metrics.observe("restoration.reprovision_s", self.sim.now - started)
        self.notify("restored", {"connection": connection})

    # -- misc -----------------------------------------------------------------------

    def notify(self, event: str, payload: dict) -> None:
        """Count ``event`` and hand it to every observer."""
        self.metrics.inc(f"events.{event}")
        for observer in self.observers:
            observer(event, payload)
