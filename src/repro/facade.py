"""High-level assembly: ready-to-run GRIPhoN networks.

:class:`GriphonNetwork` wires a topology, equipment inventory, EMS stack,
and controller together.  Two builders cover the paper's scenarios:

* :func:`build_griphon_testbed` — the Fig. 4 laboratory testbed (four
  ROADMs, three customer premises, OTN layer installed);
* :func:`build_griphon_backbone` — the synthetic 12-city backbone with
  five data-center premises, for scaling and planning experiments.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.admission import CustomerProfile
from repro.core.controller import GriphonController
from repro.core.inventory import InventoryDatabase
from repro.core.maintenance import MaintenanceScheduler
from repro.core.service import BodService
from repro.ems.latency import LatencyModel
from repro.errors import ConfigurationError
from repro.faults.plan import DegradationPlan, FaultPlan
from repro.faults.resilient import RetryPolicy
from repro.iplayer.network import IpLayer
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pipeline import OrderPipeline
from repro.optical.osnr import OsnrModel
from repro.optical.wavelength import WavelengthGrid
from repro.sim.kernel import Simulator
from repro.sim.randomness import RandomStreams
from repro.topo.backbone import BACKBONE_DATA_CENTERS, build_backbone_graph
from repro.topo.graph import NetworkGraph
from repro.topo.testbed import TESTBED_PREMISES, TESTBED_ROADMS, build_testbed_graph
from repro.units import GBPS


class SloRuntime:
    """The attached SLO stack: injector, monitor, remediation engine."""

    __slots__ = ("injector", "monitor", "engine")

    def __init__(self, injector, monitor, engine) -> None:
        self.injector = injector
        self.monitor = monitor
        self.engine = engine

    def __repr__(self) -> str:
        return (
            f"SloRuntime(policies={len(self.monitor.policies)}, "
            f"plan={len(self.injector.plan)} specs)"
        )


class GriphonNetwork:
    """A fully assembled GRIPhoN network ready for BoD requests."""

    def __init__(
        self,
        graph: NetworkGraph,
        seed: int = 0,
        grid_size: int = 80,
        latency_cv: Optional[float] = None,
        parallel_ems: bool = False,
        assignment: str = "first-fit",
        auto_restore: bool = True,
        tracing: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        osnr_model: Optional[OsnrModel] = None,
    ) -> None:
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.inventory = InventoryDatabase(graph, WavelengthGrid(grid_size))
        latency_kwargs = {} if latency_cv is None else {"cv": latency_cv}
        self.latency = LatencyModel(self.streams, **latency_kwargs)
        #: Lifecycle tracing and metrics; the tracer reads the sim clock
        #: and is shared with the controller (and every EMS under it).
        self.tracer = Tracer(self.sim.time_source(), enabled=tracing)
        self.metrics = MetricsRegistry()
        self.sim.attach_tracer(self.tracer)
        self._controller_kwargs = dict(
            parallel_ems=parallel_ems,
            assignment=assignment,
            auto_restore=auto_restore,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            osnr_model=osnr_model,
        )
        self.controller: Optional[GriphonController] = None
        self.maintenance: Optional[MaintenanceScheduler] = None
        self.pipeline: Optional[OrderPipeline] = None
        self.frontend = None
        self.slo = None
        self._services: Dict[str, BodService] = {}

    def finish_build(self) -> "GriphonNetwork":
        """Create the controller once all equipment is installed."""
        self.controller = GriphonController(
            self.sim,
            self.inventory,
            self.streams,
            latency=self.latency,
            tracer=self.tracer,
            metrics=self.metrics,
            **self._controller_kwargs,
        )
        self.maintenance = MaintenanceScheduler(self.controller)
        return self

    def enable_pipeline(
        self,
        capacity: int = 256,
        round_size: int = 8,
        round_interval: float = 0.0,
        max_defers: int = 3,
        seeded_tiebreak: bool = False,
    ) -> OrderPipeline:
        """Attach a concurrent order-intake pipeline to the controller.

        After this, every service handle from :meth:`service_for` can
        ``submit_connection()`` as well as ``request_connection()``.
        See :class:`~repro.pipeline.OrderPipeline` for the parameters.

        Raises:
            ConfigurationError: before :meth:`finish_build`.
        """
        if self.controller is None:
            raise ConfigurationError(
                "finish_build() must run before enable_pipeline()"
            )
        self.pipeline = OrderPipeline(
            self.controller,
            capacity=capacity,
            round_size=round_size,
            round_interval=round_interval,
            max_defers=max_defers,
            seeded_tiebreak=seeded_tiebreak,
        )
        self.controller.pipeline = self.pipeline
        return self.pipeline

    def enable_frontend(
        self,
        queue_capacity: int = 512,
        shed_high: Optional[int] = None,
        shed_low: Optional[int] = None,
        bucket_rate: float = 1.0,
        bucket_burst: float = 8.0,
        premium_tenants: Iterable[str] = (),
        **pipeline_kwargs,
    ):
        """Attach the async service frontend over the order pipeline.

        Enables the pipeline first when it is not already attached
        (``pipeline_kwargs`` are forwarded to :meth:`enable_pipeline`
        in that case).  Returns the :class:`~repro.frontend.BodFrontend`,
        also available as ``net.frontend``.  See
        :class:`~repro.frontend.BodFrontend` for the edge parameters.

        Raises:
            ConfigurationError: before :meth:`finish_build`.
        """
        from repro.frontend.service import BodFrontend

        if self.controller is None:
            raise ConfigurationError(
                "finish_build() must run before enable_frontend()"
            )
        if self.pipeline is None:
            self.enable_pipeline(**pipeline_kwargs)
        elif pipeline_kwargs:
            raise ConfigurationError(
                "pipeline already enabled; pipeline kwargs "
                f"{sorted(pipeline_kwargs)} cannot be applied"
            )
        self.frontend = BodFrontend(
            self.pipeline,
            self.controller.admission,
            self.sim,
            metrics=self.metrics,
            tracer=self.tracer,
            queue_capacity=queue_capacity,
            shed_high=shed_high,
            shed_low=shed_low,
            bucket_rate=bucket_rate,
            bucket_burst=bucket_burst,
            premium_tenants=premium_tenants,
        )
        return self.frontend

    def enable_slo(
        self,
        plan: Optional[DegradationPlan] = None,
        policies: Iterable = (),
        sample_interval_s: float = 15.0,
        tick_s: float = 30.0,
        horizon_s: Optional[float] = None,
        violation_threshold_db: float = 0.0,
        audit_each_action: bool = False,
        defer_horizon_s: float = 4 * 3600.0,
        utilization_gate: float = 0.80,
    ):
        """Attach gray-failure injection and SLA-aware remediation.

        Wires a :class:`~repro.slo.inject.DegradationInjector` for
        ``plan``, a :class:`~repro.slo.monitor.SlaMonitor` over
        ``policies``, and a :class:`~repro.slo.engine.RemediationEngine`
        driving the detect → remediate → restore runbook.  Returns the
        :class:`SloRuntime` holder, also available as ``net.slo``.

        An empty plan with no policies schedules **nothing** and returns
        ``None`` — the event stream stays byte-identical to a network
        without the subsystem.

        Args:
            plan: Seeded degradation plan to replay (default empty).
            policies: Declarative :class:`~repro.slo.monitor.SloPolicy`
                objects; see :func:`~repro.slo.monitor.default_policies`.
            sample_interval_s: Monitor sampling cadence, sim seconds.
            tick_s: Injector tick, sim seconds.
            horizon_s: When the monitor stops; defaults to the plan
                horizon plus a 900 s settle tail.
            violation_threshold_db: Margin below which SLA-violation
                minutes accrue.
            audit_each_action: Run the invariant auditor after every
                engine action (the chaos-test oracle).
            defer_horizon_s: Look-ahead for maintenance-window deferral.
            utilization_gate: Reroute only onto paths whose post-claim
                per-link utilization stays below this fraction.

        Raises:
            ConfigurationError: before :meth:`finish_build`.
        """
        from repro.slo import (
            DegradationInjector,
            RemediationEngine,
            SlaMonitor,
        )

        if self.controller is None:
            raise ConfigurationError(
                "finish_build() must run before enable_slo()"
            )
        plan = plan if plan is not None else DegradationPlan()
        policies = tuple(policies)
        if plan.empty and not policies:
            return None
        stop_at = (
            horizon_s if horizon_s is not None else plan.horizon_s + 900.0
        )
        injector = DegradationInjector(self.controller, plan, tick_s=tick_s)
        monitor = SlaMonitor(
            self.controller,
            policies=policies,
            sample_interval_s=sample_interval_s,
            stop_at=stop_at,
            violation_threshold_db=violation_threshold_db,
        )
        engine = RemediationEngine(
            self.controller,
            monitor,
            maintenance=self.maintenance,
            utilization_gate=utilization_gate,
            defer_horizon_s=defer_horizon_s,
            audit_each_action=audit_each_action,
        )
        injector.start()
        monitor.start()
        self.slo = SloRuntime(injector, monitor, engine)
        return self.slo

    def service_for(
        self,
        customer: str,
        premises: Iterable[str] = (),
        max_connections: int = 16,
        max_total_rate_gbps: float = 400.0,
    ) -> BodService:
        """The BoD service handle for ``customer``, registering if new."""
        if customer not in self._services:
            self.controller.register_customer(
                CustomerProfile(
                    customer,
                    max_connections=max_connections,
                    max_total_rate_bps=max_total_rate_gbps * GBPS,
                    premises=list(premises),
                )
            )
            self._services[customer] = BodService(self.controller, customer)
        return self._services[customer]

    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulation; returns the number of events fired."""
        return self.sim.run(until=until)


def _attach_ip_layer(net: GriphonNetwork) -> None:
    """Overlay an IP layer: a router per core node, one adjacency per
    core fiber span (conceptually riding statically provisioned
    wavelengths), 10G capacity with 2x committed-rate oversubscription.
    """
    ip = IpLayer()
    graph = net.inventory.graph
    core_nodes = [node.name for node in graph.nodes if node.kind == "roadm"]
    for node in core_nodes:
        ip.add_router(node)
    for link in graph.links:
        if link.a in core_nodes and link.b in core_nodes:
            ip.add_adjacency(link.a, link.b, capacity_bps=10 * GBPS)
    net.controller.ip_layer = ip


def build_griphon_testbed(
    seed: int = 0,
    with_otn: bool = True,
    with_ip: bool = True,
    latency_cv: Optional[float] = None,
    parallel_ems: bool = False,
    assignment: str = "first-fit",
    auto_restore: bool = True,
    tracing: bool = False,
    ots_per_node_10g: int = 8,
    ots_per_node_40g: int = 2,
    nte_interfaces: int = 4,
    grid_size: int = 80,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    osnr_model: Optional[OsnrModel] = None,
) -> GriphonNetwork:
    """Build the paper's Fig. 4 laboratory testbed.

    Four ROADMs (two 3-degree, two 2-degree), wavelength-tunable OTs at
    the add/drop ports, client-side FXCs for dynamic OT/regen sharing,
    three customer premises with NTEs (four 10G interfaces each, like
    the 10G/40G muxponders), and — unless ``with_otn`` is False — OTN
    switches at every core PoP.
    """
    net = GriphonNetwork(
        build_testbed_graph(),
        seed=seed,
        grid_size=grid_size,
        latency_cv=latency_cv,
        parallel_ems=parallel_ems,
        assignment=assignment,
        auto_restore=auto_restore,
        tracing=tracing,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        osnr_model=osnr_model,
    )
    inv = net.inventory
    for node in TESTBED_ROADMS:
        inv.install_roadm(node, add_drop_ports=16)
        inv.install_transponders(node, 10 * GBPS, ots_per_node_10g)
        inv.install_transponders(node, 40 * GBPS, ots_per_node_40g)
        inv.install_regens(node, 10 * GBPS, 2)
        inv.install_fxc(node, port_count=32)
        if with_otn:
            inv.install_otn_switch(node, client_ports=32)
    for premises, pop in TESTBED_PREMISES.items():
        inv.install_nte(premises, pop, interface_rate_bps=10 * GBPS,
                        interface_count=nte_interfaces)
        inv.install_fxc(premises, port_count=16)
    net.finish_build()
    if with_ip:
        _attach_ip_layer(net)
    return net


def build_griphon_backbone(
    seed: int = 0,
    with_otn: bool = True,
    with_ip: bool = True,
    latency_cv: Optional[float] = None,
    parallel_ems: bool = False,
    assignment: str = "first-fit",
    auto_restore: bool = True,
    tracing: bool = False,
    ots_per_node_10g: int = 12,
    ots_per_node_40g: int = 6,
    regens_per_hub: int = 6,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    osnr_model: Optional[OsnrModel] = None,
) -> GriphonNetwork:
    """Build the synthetic 12-city backbone with five data centers."""
    net = GriphonNetwork(
        build_backbone_graph(),
        seed=seed,
        grid_size=80,
        latency_cv=latency_cv,
        parallel_ems=parallel_ems,
        assignment=assignment,
        auto_restore=auto_restore,
        tracing=tracing,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        osnr_model=osnr_model,
    )
    inv = net.inventory
    hubs = {"CHI", "STL", "DEN", "DFW", "ATL"}
    from repro.topo.backbone import BACKBONE_CITIES

    for city in BACKBONE_CITIES:
        inv.install_roadm(city, add_drop_ports=24)
        inv.install_transponders(city, 10 * GBPS, ots_per_node_10g)
        inv.install_transponders(city, 40 * GBPS, ots_per_node_40g)
        regen_count = regens_per_hub if city in hubs else 2
        inv.install_regens(city, 10 * GBPS, regen_count)
        inv.install_regens(city, 40 * GBPS, regen_count)
        inv.install_fxc(city, port_count=64)
        if with_otn:
            inv.install_otn_switch(city, client_ports=64)
    for dc, pop in BACKBONE_DATA_CENTERS.items():
        inv.install_nte(dc, pop, interface_rate_bps=10 * GBPS, interface_count=8)
        inv.install_fxc(dc, port_count=16)
    net.finish_build()
    if with_ip:
        _attach_ip_layer(net)
    return net
