"""Lightpath provisioning: resource claiming and EMS-step choreography.

Provisioning happens in two phases, mirroring how an EMS-driven network
behaves:

1. **Claim** (instantaneous): when the controller accepts an order it
   locks every resource — transponders, regenerators, ROADM ports and
   cross-connects, wavelength channels — in its inventory, and records
   each one as it is taken in the lightpath's *holdings ledger*
   (``InventoryDatabase.holdings``).  The ledger is the rollback list of
   a claim that fails part-way (a blocked order leaves no residue) and
   the list :meth:`LightpathProvisioner.release` walks later, so both
   cost what the lightpath holds, not what the nodes on its path have
   installed; it is dropped on release, and the auditor checks it
   against the elements' own state.

2. **Execute** (simulated time): the EMS configuration steps and optical
   tasks run as a generator that yields step durations — or, when no
   span or fault rule can observe the gaps between them, one
   :class:`~repro.sim.process.StepRun` for the lot.  This phase is
   what takes 60–70 seconds in the testbed; its structure (two laser
   tunings, two add/drop configurations, one express configuration per
   intermediate ROADM, one equalization per link, one verification)
   is what makes Table 2's setup time grow with path length.

   The durations are drawn apart from the steps' ``(stage, label)``
   names.  An untraced, fault-free lightpath draws its durations into
   one ``StepRun`` and never names them; the names are built only for
   a span, a fault rule, a split run or the parallel-EMS ablation.
   :meth:`LightpathProvisioner.setup_steps` / ``teardown_steps`` zip
   the two into the public labelled view.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple, Union

from repro.core.inventory import (
    HELD_CHANNEL,
    HELD_EXPRESS,
    HELD_OT,
    HELD_PORT,
    HELD_REGEN,
    InventoryDatabase,
)
from repro.core.rwa import RwaPlan
from repro.errors import EquipmentError, GriphonError, TransponderUnavailableError
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.faults.resilient import ResilientExecutor
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.optical.lightpath import Lightpath, LightpathState
from repro.sim.process import StepRun

#: A timed EMS/optical step: (stage, label, duration_seconds).  Steps in
#: the same stage touch independent elements and may run concurrently in
#: the parallel-EMS ablation.
Step = Tuple[str, str, float]

#: Which management system executes each workflow stage — the key the
#: fault plan matches on and the circuit breaker partitions by.
_STAGE_EMS = {
    "fxc": "fxc_ctl",
    "tune": "roadm_ems",
    "roadm": "roadm_ems",
    "equalize": "roadm_ems",
    "verify": "roadm_ems",
    "release": "roadm_ems",
    "order": "controller",
}


def _step_ems(stage: str) -> str:
    """The EMS responsible for a workflow stage."""
    return _STAGE_EMS.get(stage, stage)


def _step_element(stage: str, label: str) -> str:
    """The network element a step labeled ``label`` touches."""
    if "@" in label:
        return label.rsplit("@", 1)[1]
    if label.startswith(stage + " "):
        return label[len(stage) + 1 :]
    return label


def _compensation_step(stage: str, label: str) -> Optional[str]:
    """The latency-model op that undoes an executed setup step.

    Stages with no hardware side effect (order, equalize, verify) need
    no compensation and return ``None``.
    """
    if stage == "fxc":
        return "fxc.disconnect"
    if stage == "tune":
        return "ot.release"
    if stage == "roadm":
        if label.startswith("express"):
            return "roadm.express.remove"
        return "roadm.add_drop.remove"
    return None


def _setup_labels(lightpath: Lightpath, include_fxc: bool) -> List[Tuple[str, str]]:
    """``(stage, label)`` of each setup step, in the order
    :meth:`LightpathProvisioner._setup_durations` draws them."""
    source, destination = lightpath.source, lightpath.destination
    labels = [("order", "controller.order")]
    if include_fxc:
        labels += (("fxc", f"fxc@{source}"), ("fxc", f"fxc@{destination}"))
    labels += (
        ("tune", f"ot@{source}"),
        ("tune", f"ot@{destination}"),
        ("roadm", f"add-drop@{source}"),
        ("roadm", f"add-drop@{destination}"),
    )
    path, regen_sites = lightpath.path, lightpath.regen_sites
    for node in path[1:-1]:
        if node in regen_sites:
            labels += (("roadm", f"regen-drop@{node}"), ("roadm", f"regen-add@{node}"))
        else:
            labels.append(("roadm", f"express@{node}"))
    labels += [("equalize", f"equalize {u}={v}") for u, v in zip(path, path[1:])]
    labels.append(("verify", "end-to-end verify"))
    return labels


def _teardown_labels(lightpath: Lightpath, include_fxc: bool) -> List[Tuple[str, str]]:
    """``(stage, label)`` of each teardown step, in the order
    :meth:`LightpathProvisioner._teardown_durations` draws them."""
    source, destination = lightpath.source, lightpath.destination
    labels = [("order", "controller.release")]
    if include_fxc:
        labels += (("fxc", f"fxc@{source}"), ("fxc", f"fxc@{destination}"))
    labels += (("roadm", f"remove@{source}"), ("roadm", f"remove@{destination}"))
    labels += [("roadm", f"remove@{node}") for node in lightpath.path[1:-1]]
    labels += (("release", f"ot@{source}"), ("release", f"ot@{destination}"))
    return labels


def _labelled(labels: List[Tuple[str, str]], durations: List[float]) -> List[Step]:
    """Zip named steps with their drawn durations."""
    return [(stage, label, duration) for (stage, label), duration in zip(labels, durations)]


class LightpathProvisioner:
    """Claims resources for and choreographs wavelength connections."""

    def __init__(
        self,
        inventory: InventoryDatabase,
        roadm_ems: RoadmEms,
        latency: LatencyModel,
        parallel_ems: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResilientExecutor] = None,
    ) -> None:
        self._inventory = inventory
        self._roadm_ems = roadm_ems
        self._latency = latency
        self._parallel_ems = parallel_ems
        self._tracer = tracer if tracer is not None else Tracer()
        self._metrics = metrics
        self._resilience = resilience

    # -- phase 1: claim -----------------------------------------------------------

    def claim(self, plan: RwaPlan, reuse_ots: Optional[List[str]] = None) -> Lightpath:
        """Lock every resource the plan needs; returns the lightpath record.

        Args:
            plan: The RWA plan to realize.
            reuse_ots: Transponder ids at (source, destination) to reuse
                instead of allocating fresh ones — restoration keeps the
                original end transponders and only retunes them.

        Raises:
            TransponderUnavailableError / WavelengthBlockedError /
            EquipmentError: when a resource is gone; all partial
            allocations are rolled back first.
        """
        inv = self._inventory
        owner = inv.next_lightpath_id()
        lightpath = Lightpath(
            owner,
            list(plan.path),
            plan.rate_bps,
            segments=list(plan.segments),
            regen_sites=list(plan.regen_sites),
        )
        held: List[tuple] = []
        try:
            self._claim_end_transponders(lightpath, reuse_ots, held)
            for node in lightpath.regen_sites:
                pool = inv.regens[node]
                regen = pool.allocate(lightpath.rate_bps, owner)
                held.append((HELD_REGEN, pool, regen.index))
                lightpath.regen_ids.append(regen.regen_id)
            self._claim_roadm_crossconnects(lightpath, held)
            for segment in lightpath.segments:
                channel = segment.channel
                for u, v in zip(segment.nodes, segment.nodes[1:]):
                    link = inv.plant.dwdm_link(u, v)
                    link.occupy(channel, owner)
                    held.append((HELD_CHANNEL, link, channel))
        except GriphonError:
            self._let_go(held, owner)
            raise
        inv.register_lightpath(lightpath)
        inv.holdings[owner] = held
        return lightpath

    def release(self, lightpath: Lightpath) -> None:
        """Free every resource a lightpath holds (bookkeeping only)."""
        owner = lightpath.lightpath_id
        self._let_go(self._inventory.holdings.pop(owner, ()), owner)
        self._inventory.forget_lightpath(owner)

    @staticmethod
    def _let_go(held: Sequence[tuple], owner: str) -> None:
        """Give back what a ledger lists, skipping what is no longer ours.

        Shared by :meth:`release` and a failed :meth:`claim`'s rollback.
        Every entry is guarded by an O(1) "still mine?" read, so an end
        transponder handed to a restoration path (``reuse_ots``) or a
        release that follows the saga's compensation frees nothing twice.
        """
        for entry in reversed(held):
            kind, element = entry[0], entry[1]
            if kind == HELD_PORT:
                if entry[2].owner == owner:
                    element.disconnect_add_drop(entry[2].port_id, owner)
            elif kind == HELD_EXPRESS:
                # A recorded express stops being ours only by having been
                # removed already, by an EMS command behind the controller's
                # back (regen hops are never recorded): nothing to undo then.
                hop = entry[2:]
                if element.express_owner(*hop) == owner:
                    element.disconnect_express(*hop, owner)
            elif element.owner_of(entry[2]) == owner:  # channel, OT or regen
                element.release(entry[2], owner)

    # -- phase 2: execute ---------------------------------------------------------

    def setup_steps(self, lightpath: Lightpath, include_fxc: bool = True) -> List[Step]:
        """The timed EMS/optical steps to bring a claimed lightpath up."""
        return _labelled(
            _setup_labels(lightpath, include_fxc),
            self._setup_durations(lightpath, include_fxc),
        )

    def teardown_steps(
        self, lightpath: Lightpath, include_fxc: bool = True
    ) -> List[Step]:
        """The timed steps to tear a lightpath down (about ten seconds)."""
        return _labelled(
            _teardown_labels(lightpath, include_fxc),
            self._teardown_durations(lightpath, include_fxc),
        )

    def _setup_durations(self, lightpath: Lightpath, include_fxc: bool) -> List[float]:
        """Draw :meth:`setup_steps`' durations, in its order."""
        sample = self._latency.sample
        durations = [sample("controller.order")]
        if include_fxc:
            durations += (sample("fxc.connect"), sample("fxc.connect"))
        durations += (
            sample("ot.tune"),
            sample("ot.tune"),
            sample("roadm.add_drop"),
            sample("roadm.add_drop"),
        )
        path, regen_sites = lightpath.path, lightpath.regen_sites
        for node in path[1:-1]:
            if node in regen_sites:
                # A regen hop is a drop + re-add: two add/drop configs.
                durations += (sample("roadm.add_drop"), sample("roadm.add_drop"))
            else:
                durations.append(sample("roadm.express"))
        equalize = self._roadm_ems.equalize_link
        for u, v in zip(path, path[1:]):
            durations.append(equalize(u, v))
        durations.append(self._roadm_ems.verify_lightpath())
        return durations

    def _teardown_durations(
        self, lightpath: Lightpath, include_fxc: bool
    ) -> List[float]:
        """Draw :meth:`teardown_steps`' durations, in its order."""
        sample = self._latency.sample
        durations = [sample("controller.release")]
        if include_fxc:
            durations += (sample("fxc.disconnect"), sample("fxc.disconnect"))
        durations += (
            sample("roadm.add_drop.remove"),
            sample("roadm.add_drop.remove"),
        )
        regen_sites = lightpath.regen_sites
        for node in lightpath.path[1:-1]:
            step = (
                "roadm.add_drop.remove" if node in regen_sites else "roadm.express.remove"
            )
            durations.append(sample(step))
        durations += (sample("ot.release"), sample("ot.release"))
        return durations

    def _timed(
        self,
        draw: Callable[[Lightpath, bool], List[float]],
        name: Callable[[Lightpath, bool], List[Tuple[str, str]]],
        lightpath: Lightpath,
        include_fxc: bool,
    ) -> Tuple[List[float], Callable[[], List[Tuple[str, str]]]]:
        """The intervals a workflow waits out, and a thunk naming them.

        Sequential EMS draws the durations alone and names them only if
        asked; the parallel-EMS ablation merges named steps by stage.
        """
        if not self._parallel_ems:
            return draw(lightpath, include_fxc), partial(name, lightpath, include_fxc)
        merged = self._stage_spans(
            _labelled(name(lightpath, include_fxc), draw(lightpath, include_fxc))
        )
        return [step[2] for step in merged], lambda: [step[:2] for step in merged]

    def total_duration(self, steps: List[Step]) -> float:
        """Wall-clock duration of a step list under the EMS mode.

        Sequential EMS sums all steps; the parallel-EMS ablation runs
        steps within one stage concurrently (duration = stage max).
        """
        return sum(step[2] for step in self._stage_spans(steps))

    def setup_workflow(
        self,
        lightpath: Lightpath,
        include_fxc: bool = True,
        on_up: Optional[Callable[[Lightpath], None]] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator[Union[float, StepRun], None, Lightpath]:
        """A generator bringing the lightpath up step by timed step.

        When tracing is enabled, emits a ``lightpath.setup`` span whose
        ``ems.<stage>`` children cover every timed step — by
        construction their durations sum to the workflow's end-to-end
        duration (the Table 2 per-phase breakdown).

        When a resilient executor is wired in and an EMS command fails
        for good (retries exhausted or breaker open), the workflow turns
        into a compensating saga: every executed step is undone in
        reverse order, every claimed resource is released, and the
        lightpath ends RELEASED with ``setup_error`` set.
        """
        with self._tracer.span(
            "lightpath.setup",
            parent=parent_span,
            lightpath=lightpath.lightpath_id,
            hops=len(lightpath.path) - 1,
        ) as span:
            lightpath.transition(LightpathState.SETTING_UP)
            durations, names = self._timed(
                self._setup_durations, _setup_labels, lightpath, include_fxc
            )
            done, total, failure = yield from self._walk(durations, names, span, False)
            if failure is not None:
                yield from self._compensate(lightpath, names()[:done], span, failure)
                return lightpath
            lightpath.transition(LightpathState.UP)
            # A fiber along the route may have been cut while the EMS
            # steps were running; end-to-end verification catches that.
            if not self._inventory.plant.path_is_up(lightpath.path):
                lightpath.transition(LightpathState.FAILED)
                span.set_tag("outcome", "failed")
                if self._metrics is not None:
                    self._metrics.inc("lightpath.setup_failed")
                return lightpath
            span.set_tag("outcome", "up")
            if self._metrics is not None:
                self._metrics.observe("lightpath.setup_s", total)
            if on_up is not None:
                on_up(lightpath)
            return lightpath

    def _walk(
        self,
        durations: List[float],
        names: Callable[[], List[Tuple[str, str]]],
        span: Span,
        best_effort: bool,
    ) -> Generator[
        Union[float, StepRun], None, Tuple[int, float, Optional[EquipmentError]]
    ]:
        """Wait out ``durations``; returns ``(done, total_s, failure)``.

        With no span to open and no fault rule that can fire, the rest go
        to the kernel as one ``StepRun``, watched by the fault plan until
        it resumes (a rule added meanwhile splits it at a step boundary);
        otherwise one step at a time through the span + resilient
        executor, which forces rather than fails when ``best_effort``.
        Only that path reads the steps' ``(stage, label)``, so ``names``
        is called when it is first taken.  ``total_s`` adds the
        durations one at a time in step order on every path (``sum()``
        compensates on Python 3.12+, which would move its last bit).
        """
        resilience = self._resilience
        total = 0.0
        done = 0
        named: Optional[List[Tuple[str, str]]] = None
        while done < len(durations):
            if span is NULL_SPAN and (resilience is None or resilience.plan.empty):
                run = StepRun(durations[done:] if done else durations)
                if resilience is None:
                    yield run
                else:
                    resilience.plan.watch(run)
                    try:
                        yield run
                    finally:
                        resilience.plan.unwatch(run)
                for duration in run.durations[: run.completed]:
                    total += duration
                done += run.completed
                continue
            if named is None:
                named = names()
            stage, label = named[done]
            duration = durations[done]
            with span.child(f"ems.{stage}", label=label) as step_span:
                if resilience is None:
                    yield duration
                else:
                    try:
                        duration = yield from resilience.execute(
                            _step_ems(stage),
                            _step_element(stage, label),
                            stage,
                            duration,
                            parent_span=step_span,
                            best_effort=best_effort,
                        )
                    except EquipmentError as exc:
                        step_span.set_tag("outcome", "failed")
                        return done, total, exc
            done += 1
            total += duration
        return done, total, None

    def _compensate(
        self,
        lightpath: Lightpath,
        executed: List[Tuple[str, str]],
        span: Span,
        failure: EquipmentError,
    ) -> Generator[float, None, None]:
        """Unwind the executed setup steps and free every claimed resource.

        Compensation runs best-effort at teardown speed: each executed
        ``(stage, label)`` step with a hardware side effect gets one undo
        command (no retries — we are already giving up), then the
        claim-phase bookkeeping is rolled back via :meth:`release`,
        leaving zero residue in the inventory.
        """
        lightpath.setup_error = failure
        with span.child("ems.rollback", reason=str(failure)) as rollback_span:
            for stage, label in reversed(executed):
                comp = _compensation_step(stage, label)
                if comp is None:
                    continue
                with rollback_span.child(f"ems.{stage}.undo", label=label):
                    yield self._latency.sample(comp)
        lightpath.transition(LightpathState.RELEASED)
        self.release(lightpath)
        span.set_tag("outcome", "aborted").set_tag("error", str(failure))
        if self._metrics is not None:
            self._metrics.inc("lightpath.setup_aborted")

    def teardown_workflow(
        self,
        lightpath: Lightpath,
        include_fxc: bool = True,
        on_released: Optional[Callable[[Lightpath], None]] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator[Union[float, StepRun], None, Lightpath]:
        """A generator tearing the lightpath down, then freeing resources."""
        with self._tracer.span(
            "lightpath.teardown",
            parent=parent_span,
            lightpath=lightpath.lightpath_id,
            hops=len(lightpath.path) - 1,
        ) as span:
            lightpath.transition(LightpathState.TEARING_DOWN)
            durations, names = self._timed(
                self._teardown_durations, _teardown_labels, lightpath, include_fxc
            )
            _done, total, _failure = yield from self._walk(durations, names, span, True)
            lightpath.transition(LightpathState.RELEASED)
            self.release(lightpath)
            if self._metrics is not None:
                self._metrics.observe("lightpath.teardown_s", total)
            if on_released is not None:
                on_released(lightpath)
            return lightpath

    # -- claim internals --------------------------------------------------------

    def _claim_end_transponders(
        self, lightpath: Lightpath, reuse_ots: Optional[List[str]], held: List[tuple]
    ) -> None:
        owner = lightpath.lightpath_id
        pools = self._inventory.transponders
        ends = (lightpath.source, lightpath.destination)
        if reuse_ots is not None and len(reuse_ots) != 2:
            raise TransponderUnavailableError(
                f"reuse_ots needs exactly 2 ids, got {len(reuse_ots)}"
            )
        for index, node in enumerate(ends):
            pool = pools[node]
            if reuse_ots is not None:
                ot = pool.take(reuse_ots[index], owner)
            else:
                ot = pool.allocate(lightpath.rate_bps, owner)
            held.append((HELD_OT, pool, ot.index))
            lightpath.ot_ids.append(ot.ot_id)

    def _claim_add_drop(
        self, node: str, degree: str, channel: int, owner: str, held: List[tuple]
    ) -> None:
        roadm = self._inventory.roadms[node]
        port = roadm.connect_free_port(degree, channel, owner)
        if port is None:
            raise TransponderUnavailableError(
                f"no free add/drop port at {node} for channel {channel}"
            )
        held.append((HELD_PORT, roadm, port))

    def _claim_roadm_crossconnects(
        self, lightpath: Lightpath, held: List[tuple]
    ) -> None:
        owner = lightpath.lightpath_id
        path = lightpath.path
        regen_sites = set(lightpath.regen_sites)
        # End nodes: one add/drop port each.
        self._claim_add_drop(
            path[0], path[1], lightpath.segments[0].channel, owner, held
        )
        self._claim_add_drop(
            path[-1], path[-2], lightpath.segments[-1].channel, owner, held
        )
        # Intermediate nodes: the channel of the segment entering each
        # node and of the one leaving it (they differ at a regen site).
        into: Dict[str, int] = {}
        out_of: Dict[str, int] = {}
        for segment in lightpath.segments:
            for node in segment.nodes[1:]:
                into.setdefault(node, segment.channel)
            for node in segment.nodes[:-1]:
                out_of.setdefault(node, segment.channel)
        for i, node in enumerate(path[1:-1], start=1):
            prev_node, next_node = path[i - 1], path[i + 1]
            regenerated = node in regen_sites
            channel = into.get(node)
            outgoing = out_of.get(node) if regenerated else channel
            if channel is None or outgoing is None:
                raise TransponderUnavailableError(
                    f"lightpath {owner} has no segment "
                    f"{'into' if channel is None else 'out of'} {node}"
                )
            if regenerated:
                # Drop the incoming segment, re-add the outgoing one.
                self._claim_add_drop(node, prev_node, channel, owner, held)
                self._claim_add_drop(node, next_node, outgoing, owner, held)
            else:
                roadm = self._inventory.roadms[node]
                roadm.connect_express(prev_node, next_node, channel, owner)
                held.append((HELD_EXPRESS, roadm, prev_node, next_node, channel))

    def _stage_spans(self, steps: List[Step]) -> List[Step]:
        """The timed intervals a workflow walks through, one per span.

        Sequential EMS yields every step as-is; the parallel-EMS
        ablation merges consecutive same-stage steps into one interval
        (duration = stage max), labeled with the merged step count.
        """
        if not self._parallel_ems:
            return steps
        merged: List[Step] = []
        current_stage: Optional[str] = None
        stage_max = 0.0
        count = 0
        for stage, _, duration in steps:
            if stage != current_stage and current_stage is not None:
                merged.append(
                    (current_stage, f"{count} ops (parallel)", stage_max)
                )
                stage_max = 0.0
                count = 0
            current_stage = stage
            stage_max = max(stage_max, duration)
            count += 1
        if current_stage is not None:
            merged.append((current_stage, f"{count} ops (parallel)", stage_max))
        return merged
