"""The GRIPhoN controller: orders, with restoration and migrations beside it.

This is the brain of the system.  It owns the inventory database, talks
to every EMS, and implements the four Table 1 capabilities:

* **dynamic configurable-rate services** — orders are decomposed into
  wavelength and/or ODU0 sub-wavelength components (the paper's 12 Gbps
  example becomes one 10G lightpath plus two 1G OTN circuits);
* **rapid establishment** — setup runs as simulated EMS workflows that
  complete in about a minute instead of weeks;
* **reduced outage times** — fiber-cut detection, localization, and
  automated re-provisioning of each failed wavelength, plus sub-second
  shared-mesh restoration for OTN circuits
  (:mod:`repro.core.restoration`, reached as ``controller.restoration``);
* **minimal maintenance impact** — automated bridge-and-roll migrates a
  live connection to a disjoint path with only a tiny roll hit
  (:mod:`repro.core.migration`, reached as ``controller.migrations``).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.core.migration import Migrations
from repro.core.provisioning import LightpathProvisioner
from repro.core.restoration import Restoration
from repro.core.rwa import RwaEngine
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    EquipmentError,
    GriphonError,
    ResourceError,
)
from repro.faults.plan import FaultPlan
from repro.faults.resilient import ResilientExecutor, RetryPolicy
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.iplayer.network import IpLayer
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.optical.lightpath import Lightpath, LightpathState
from repro.optical.osnr import OsnrModel
from repro.otn.circuit import OduCircuitState
from repro.otn.mesh_restoration import SharedMeshProtection
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.units import GBPS, ODU_LEVELS

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
        parallel_ems: bool = False,
        k_paths: int = 4,
        auto_restore: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
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
            RetryPolicy(),
            streams=streams.spawn("resilient"),
            clock=sim.time_source(),
            metrics=self.metrics,
        )
        self.rwa = RwaEngine(
            inventory, k_paths=k_paths, streams=streams, tracer=self.tracer
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
        self._line_lightpath: Dict[str, str] = {}
        self._new_line_lightpaths: List[Lightpath] = []
        #: Bridge-and-roll: every driver's one way to move a connection.
        self.migrations = Migrations(self)
        #: Failure handling and restoration (joins ``plant.on_failure``).
        self.restoration = Restoration(self)
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
        """Order a teardown; completes asynchronously (about ten seconds)."""
        connection = self.connection(connection_id)
        if self.restoration.hold_teardown(connection):
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
        self.restoration.on_repair(a, b)

    # -- workflows -------------------------------------------------------------------

    def _setup_workflow(
        self, connection, lightpaths, circuits, line_lightpaths, span
    ):
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
            self.restoration.restore(connection)
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
            self.detach_lightpath(connection, lightpath.lightpath_id)
            self.release_claims(connection, lightpath.lightpath_id)
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
        for line_id in self.lines_carried_by(lightpath.lightpath_id):
            del self._line_lightpath[line_id]
            self.restoration.fail_otn_line(line_id)
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
        self.release_claims(connection)
        connection.transition(ConnectionState.RELEASED)
        connection.released_at = self.sim.now
        self.admission.release(connection.customer, connection.rate_bps)
        span.finish()
        self.metrics.inc("connection.released")
        self.metrics.observe("connection.teardown_s", self.sim.now - started)
        self.notify("released", {"connection": connection})

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
        try:
            for premises in (connection.premises_a, connection.premises_b):
                self.claim_nte(connection, premises, evc.evc_id, subchannel=True)
        except GriphonError:
            self.ip_layer.release_evc(evc.evc_id)
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

    def detach_lightpath(self, connection, lightpath_id: str) -> None:
        """Take ``lightpath_id`` out of ``connection`` and the cut index."""
        connection.lightpath_ids.remove(lightpath_id)
        self._lightpath_conn.pop(lightpath_id, None)

    def connection_of(self, lightpath_id: str) -> Optional[str]:
        """The id of the connection ``lightpath_id`` serves, if any."""
        return self._lightpath_conn.get(lightpath_id)

    def failed_lightpaths(self, connection) -> List[Lightpath]:
        """The connection's registered lightpaths that are FAILED."""
        registered = self.inventory.lightpaths
        return [
            registered[lightpath_id]
            for lightpath_id in connection.lightpath_ids
            if lightpath_id in registered
            and registered[lightpath_id].state is LightpathState.FAILED
        ]

    def enter_service(self, connection) -> bool:
        """Put a set-up connection into service: UP as of now.

        Returns False when one of its lightpaths was cut while it was
        setting up; the connection is FAILED then, its outage open, so
        restoration or the repair takes it from there.
        """
        connection.transition(ConnectionState.UP)
        connection.up_at = self.sim.now
        if self.failed_lightpaths(connection):
            self.restoration.fail(connection)
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

    def swap_lightpath(self, connection, old_lightpath, new_lightpath) -> None:
        """Hand ``old_lightpath``'s place in ``connection`` to
        ``new_lightpath``: its lightpaths (the new one last), the index a
        cut reads, and its ledger, each FXC pair then pointing at the new
        transponder at its site (a roll's bridge, or a restoration's
        replacement for a dead path it may already have detached).

        Only the component's own cross-connects are touched: after a
        blocked restoration the old transponders may already serve
        someone else, whose port then carries the same label.
        """
        old_id, new_id = old_lightpath.lightpath_id, new_lightpath.lightpath_id
        connection.lightpath_ids = [
            lightpath_id for lightpath_id in connection.lightpath_ids
            if lightpath_id != old_id
        ] + [new_id]
        self._lightpath_conn.pop(old_id, None)
        self._lightpath_conn[new_id] = connection.connection_id
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

    def lines_carried_by(self, lightpath_id: str) -> List[str]:
        """The OTN lines ``lightpath_id`` carries."""
        return [
            line_id for line_id, carrier in self._line_lightpath.items()
            if carrier == lightpath_id
        ]

    # -- misc -----------------------------------------------------------------------

    def notify(self, event: str, payload: dict) -> None:
        """Count ``event`` and hand it to every observer."""
        self.metrics.inc(f"events.{event}")
        for observer in self.observers:
            observer(event, payload)
