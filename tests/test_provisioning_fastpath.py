"""Differential test: coalesced EMS step runs ≡ the general step loop.

``setup_workflow`` / ``teardown_workflow`` hand the remaining steps to
the kernel as one ``StepRun`` (one event for the lot) when there is no
span to open and no fault rule that can fire; otherwise they run the
span + resilient-executor code one step at a time.  The same
lightpaths, from the same seed, are driven through

* ``bare``      no executor, tracer off              (step runs)
* ``executor``  empty ``FaultPlan``, tracer off       (step runs)
* ``traced``    empty ``FaultPlan``, tracer enabled   (general path)

and everything observable must agree: the durations each workflow
waits out (a run counts as the steps it completed), the
``lightpath.setup_s`` / ``teardown_s`` and per-step histograms, the
state of every random substream, the final clock and the lightpaths.
The kernel's ``(time, label)`` trace of a coalesced run is the traced
one with intermediate-step entries removed and nothing else changed.
The traced variant's span tree is pinned to what the commit before the
straight-line loop produced.  A fault rule added mid-workflow splits
the pending run, so it still bites at the next step boundary.

Also here: the per-step sampler cache in ``LatencyModel`` against
``RandomStreams.lognormal`` and an independent evaluation of its formula.
"""

import math

import pytest

from repro.core.inventory import InventoryDatabase
from repro.core.provisioning import LightpathProvisioner
from repro.core.rwa import RwaEngine
from repro.ems.latency import DEFAULT_STEP_MEANS, LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.faults import FaultPlan, FaultSpec
from repro.faults.resilient import ResilientExecutor, RetryPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.optical import LightpathState, WavelengthGrid
from repro.sim import Process, RandomStreams, Simulator, StepRun
from repro.topo.testbed import build_testbed_graph
from repro.units import gbps

VARIANTS = ("bare", "executor", "traced")
SEED = 5


class Stack:
    """A provisioner on the Fig. 4 ROADM ring, wired per variant."""

    def __init__(self, variant, cv=0.03, parallel_ems=False):
        self.sim = Simulator()
        self.sim.enable_trace()
        self.streams = RandomStreams(SEED)
        self.metrics = MetricsRegistry()
        clock = self.sim.time_source()
        inventory = InventoryDatabase(build_testbed_graph(), WavelengthGrid(8))
        for node in ("ROADM-I", "ROADM-II", "ROADM-III", "ROADM-IV"):
            inventory.install_roadm(node, add_drop_ports=8)
            inventory.install_transponders(node, gbps(10), 4)
        self.inventory = inventory
        latency = LatencyModel(self.streams, cv=cv)
        latency.bind_metrics(self.metrics)
        self.tracer = Tracer(clock, enabled=variant == "traced")
        self.plan = FaultPlan()
        resilience = None
        if variant != "bare":
            resilience = ResilientExecutor(
                self.plan,
                RetryPolicy(jitter=0.0),
                self.streams,
                clock,
                self.metrics,
            )
        self.provisioner = LightpathProvisioner(
            inventory,
            RoadmEms(inventory.plant, latency),
            latency,
            parallel_ems=parallel_ems,
            tracer=self.tracer,
            metrics=self.metrics,
            resilience=resilience,
        )
        self.rwa = RwaEngine(inventory)
        self.yielded = []

    def _recorded(self, workflow, sink):
        """Pass ``workflow``'s yields through; record each step it waited
        out (a ``StepRun`` as the durations it completed)."""
        while True:
            try:
                delay = next(workflow)
            except StopIteration as stop:
                return stop.value
            yield delay
            if isinstance(delay, StepRun):
                sink.extend(delay.durations[: delay.completed])
            else:
                sink.append(delay)

    def launch(self, excluded=()):
        """Claim a I→IV lightpath and start its setup; teardown follows."""
        plan = self.rwa.plan(
            "ROADM-I", "ROADM-IV", gbps(10), excluded_links=list(excluded)
        )
        lightpath = self.provisioner.claim(plan)
        name = lightpath.lightpath_id
        setup, teardown = [], []
        self.yielded.append((name, setup, teardown))

        def then_tear_down(lp):
            if lp.state is not LightpathState.UP:
                return
            Process(
                self.sim,
                self._recorded(self.provisioner.teardown_workflow(lp), teardown),
                label=f"teardown:{name}",
            )

        Process(
            self.sim,
            self._recorded(self.provisioner.setup_workflow(lightpath), setup),
            on_complete=then_tear_down,
            label=f"setup:{name}",
        )
        return lightpath

    def observed(self):
        """Everything a run leaves behind that a variant could change."""
        histograms = {
            name: self.metrics.samples(name) for name in self.metrics.histograms()
        }
        return {
            "yielded": self.yielded,
            "histograms": histograms,
            "kernel_trace": self.sim.trace,
            "now": self.sim.now,
            "streams": {
                name: rng.getstate()
                for name, rng in sorted(self.streams._streams.items())
            },
            "lightpaths": dict(self.inventory.lightpaths),
        }

    def span_rows(self):
        by_id = {span.span_id: span for span in self.tracer.spans()}
        return [
            (
                span.name,
                by_id[span.parent_id].name if span.parent_id else None,
                span.tags.get("label"),
                span.start,
                span.end,
            )
            for span in self.tracer.spans()
        ]


def run_two_lightpaths(variant, cv=0.03, parallel_ems=False):
    """A direct and a three-hop lightpath, overlapping in sim time."""
    stack = Stack(variant, cv=cv, parallel_ems=parallel_ems)
    stack.launch()
    stack.sim.schedule(
        7.0, stack.launch, [("ROADM-I", "ROADM-IV"), ("ROADM-I", "ROADM-III")]
    )
    stack.sim.run()
    return stack


def assert_coalesced_matches(coalesced, traced):
    """Everything but the kernel trace is equal; the trace lost only
    intermediate step resumptions, each surviving entry unchanged."""
    mine, reference = coalesced.observed(), traced.observed()
    short, full = mine.pop("kernel_trace"), reference.pop("kernel_trace")
    assert mine == reference
    assert len(short) < len(full)
    remaining = iter(short)
    expected = next(remaining, None)
    for entry in full:
        if entry == expected:
            expected = next(remaining, None)
        else:
            assert entry[1].startswith(("setup:", "teardown:")), entry
    assert expected is None, "coalesced trace is not a subsequence"


@pytest.mark.parametrize("parallel_ems", [False, True])
@pytest.mark.parametrize("cv", [0.0, 0.03])
def test_variants_agree(cv, parallel_ems):
    runs = {v: run_two_lightpaths(v, cv, parallel_ems) for v in VARIANTS}
    reference = runs["traced"].observed()
    assert len(reference["yielded"]) == 2
    for _name, setup, teardown in reference["yielded"]:
        assert setup and teardown
    assert len(reference["histograms"]["lightpath.setup_s"]) == 2
    assert len(reference["histograms"]["lightpath.teardown_s"]) == 2
    assert reference["lightpaths"] == {}
    for variant in ("bare", "executor"):
        assert_coalesced_matches(runs[variant], runs["traced"])
        assert runs[variant].tracer.spans() == []
    # One ems.<stage> span per yielded interval, only when traced.
    stage_spans = [
        row for row in runs["traced"].span_rows() if row[0].startswith("ems.")
    ]
    assert len(stage_spans) == sum(
        len(setup) + len(teardown) for _n, setup, teardown in reference["yielded"]
    )


#: ``Stack("traced", cv=0.03).span_rows()`` for one direct lightpath, as
#: produced by the general step loop before the straight-line one existed.
PINNED_SPANS = [
    ("lightpath.setup", None, None, 0.0, 62.17278214352698),
    ("ems.order", "lightpath.setup", "controller.order", 0.0, 2.0067597220483635),
    ("ems.fxc", "lightpath.setup", "fxc@ROADM-I", 2.0067597220483635, 3.508057221025042),
    ("ems.fxc", "lightpath.setup", "fxc@ROADM-IV", 3.508057221025042, 5.085550334479104),
    ("ems.tune", "lightpath.setup", "ot@ROADM-I", 5.085550334479104, 19.082242910381428),
    ("ems.tune", "lightpath.setup", "ot@ROADM-IV", 19.082242910381428, 33.30281299450216),
    ("ems.roadm", "lightpath.setup", "add-drop@ROADM-I", 33.30281299450216, 42.77185537711297),
    ("ems.roadm", "lightpath.setup", "add-drop@ROADM-IV", 42.77185537711297, 52.151067151343895),
    ("ems.equalize", "lightpath.setup", "equalize ROADM-I=ROADM-IV", 52.151067151343895, 54.52428813423947),
    ("ems.verify", "lightpath.setup", "end-to-end verify", 54.52428813423947, 62.17278214352698),
    ("lightpath.teardown", None, None, 62.17278214352698, 72.28570648131868),
    ("ems.order", "lightpath.teardown", "controller.release", 62.17278214352698, 63.17960584878941),
    ("ems.fxc", "lightpath.teardown", "fxc@ROADM-I", 63.17960584878941, 64.65562267729119),
    ("ems.fxc", "lightpath.teardown", "fxc@ROADM-IV", 64.65562267729119, 66.18626904829367),
    ("ems.roadm", "lightpath.teardown", "remove@ROADM-I", 66.18626904829367, 68.21873601471073),
    ("ems.roadm", "lightpath.teardown", "remove@ROADM-IV", 68.21873601471073, 70.20304513766831),
    ("ems.release", "lightpath.teardown", "ot@ROADM-I", 70.20304513766831, 71.21308921257702),
    ("ems.release", "lightpath.teardown", "ot@ROADM-IV", 71.21308921257702, 72.28570648131868),
]


def test_traced_span_tree_is_pinned():
    stack = Stack("traced")
    stack.launch()
    stack.sim.run()
    assert stack.span_rows() == PINNED_SPANS


def run_with_rule_added_mid_workflow(variant, spec):
    """cv=0: order 2 + fxc 1.5 + 1.5, so the first tune runs 5 s → 19 s."""
    stack = Stack(variant, cv=0.0)
    lightpath = stack.launch()
    stack.sim.schedule(10.0, stack.plan.add, spec)
    stack.sim.run()
    return stack, lightpath


class TestRuleAddedBetweenSteps:
    def test_next_step_times_out_then_retries(self):
        spec = FaultSpec(command="tune", mode="timeout", count=1)
        stack, lightpath = run_with_rule_added_mid_workflow("executor", spec)
        (_name, setup, teardown), = stack.yielded
        # The tune in flight at t=10 is untouched; the next one burns
        # the 30 s timeout and a 1 s backoff before its 14 s retry.
        # The rule is then spent, and the rest runs straight through.
        assert setup[:3] == [2.0, 1.5, 1.5]
        assert setup[3:8] == [14.0, 30.0, 1.0, 14.0, 9.5]
        assert stack.plan.injected_counts == [1]
        assert stack.plan.empty
        assert stack.metrics.counter("ems.retry") == 1
        assert lightpath.state is LightpathState.RELEASED  # torn down after UP
        assert len(teardown) == 7
        traced, _ = run_with_rule_added_mid_workflow("traced", spec)
        assert_coalesced_matches(stack, traced)

    def test_next_step_fails_hard_and_the_saga_unwinds(self):
        spec = FaultSpec(command="tune", mode="fail")
        stack, lightpath = run_with_rule_added_mid_workflow("executor", spec)
        (_name, setup, teardown), = stack.yielded
        # order, 2 fxc, tune, failed tune (0.5 s to error), then the
        # undo of one tune and two fxc connects.
        assert setup == [2.0, 1.5, 1.5, 14.0, 0.5, 1.0, 1.5, 1.5]
        assert teardown == []
        assert lightpath.state is LightpathState.RELEASED
        assert lightpath.setup_error is not None
        assert stack.metrics.counter("lightpath.setup_aborted") == 1
        assert stack.inventory.lightpaths == {}
        traced, _ = run_with_rule_added_mid_workflow("traced", spec)
        assert_coalesced_matches(stack, traced)

    def test_best_effort_teardown_forces_the_next_step(self):
        # cv=0: setup ends at 62.35 s and teardown's first roadm removal
        # runs 66.35 → 68.35 s.  The second one then times out three
        # times (backoffs 1 s, 2 s) and is forced; the "release" steps
        # match no rule and run at their nominal second each.
        spec = FaultSpec(command="roadm", mode="timeout")
        runs = {}
        for variant in ("executor", "traced"):
            stack = runs[variant] = Stack(variant, cv=0.0)
            stack.launch()
            stack.sim.schedule(67.0, stack.plan.add, spec)
            stack.sim.run()
        stack = runs["executor"]
        (_name, _setup, teardown), = stack.yielded
        assert teardown == [1.0, 1.5, 1.5, 2.0, 30.0, 1.0, 30.0, 2.0, 30.0, 1.0, 1.0]
        assert stack.metrics.counter("ems.command.forced") == 1
        assert stack.inventory.lightpaths == {}
        assert_coalesced_matches(stack, runs["traced"])


@pytest.mark.parametrize("with_metrics", [False, True])
@pytest.mark.parametrize("speedup", [1.0, 4.0])
@pytest.mark.parametrize("cv", [0.0, 0.03, 0.2])
def test_latency_sampler_matches_lognormal_draw_for_draw(cv, speedup, with_metrics):
    sampled, direct, formula = (RandomStreams(SEED) for _ in range(3))
    model = LatencyModel(sampled, cv=cv, speedup=speedup)
    metrics = MetricsRegistry()
    if with_metrics:
        model.bind_metrics(metrics)
    extra = 0.25
    for _round in range(3):  # interleave the steps: one substream each
        for step, mean in DEFAULT_STEP_MEANS.items():
            got = model.sample(step, extra=extra)
            name = f"latency:{step}"
            assert got == direct.lognormal(name, mean / speedup, cv) + extra
            if cv:
                sigma2 = math.log(1.0 + cv * cv)
                mu = math.log(mean / speedup) - sigma2 / 2.0
                draw = formula.stream(name).lognormvariate(mu, math.sqrt(sigma2))
                assert got == draw + extra
            else:
                assert got == mean / speedup + extra
            if with_metrics:
                assert metrics.samples(f"step.{step}")[-1] == got
    states = [
        {name: rng.getstate() for name, rng in streams._streams.items()}
        for streams in (sampled, direct)
    ]
    assert states[0] == states[1]
    assert bool(states[0]) == bool(cv)  # cv=0 touches no substream
    assert metrics.histograms() == (
        sorted(f"step.{step}" for step in DEFAULT_STEP_MEANS) if with_metrics else []
    )


@pytest.mark.parametrize(
    "excluded", [(), [("ROADM-I", "ROADM-IV"), ("ROADM-I", "ROADM-III")]]
)
def test_coalesced_workflows_draw_what_the_step_lists_list(excluded):
    """Twin provisioners from one seed: one brings a lightpath up and
    down as coalesced runs, which never name their steps; the other
    only calls ``setup_steps()`` / ``teardown_steps()``.  Both draw the
    same durations in the same order, and the workflow's totals are
    the listed durations added in step order."""
    coalesced, listed = Stack("bare"), Stack("bare")
    lightpaths = [
        stack.provisioner.claim(
            stack.rwa.plan("ROADM-I", "ROADM-IV", gbps(10), excluded_links=excluded)
        )
        for stack in (coalesced, listed)
    ]
    assert len(lightpaths[0].path) == (4 if excluded else 2)
    setup_waited, teardown_waited = [], []

    def then_tear_down(lightpath):
        workflow = coalesced.provisioner.teardown_workflow(lightpath)
        Process(coalesced.sim, coalesced._recorded(workflow, teardown_waited))

    workflow = coalesced.provisioner.setup_workflow(lightpaths[0])
    Process(
        coalesced.sim,
        coalesced._recorded(workflow, setup_waited),
        on_complete=then_tear_down,
    )
    coalesced.sim.run()
    setup = listed.provisioner.setup_steps(lightpaths[1])
    teardown = listed.provisioner.teardown_steps(lightpaths[1])
    assert setup_waited == [step[2] for step in setup]
    assert teardown_waited == [step[2] for step in teardown]
    for name, steps in (("setup_s", setup), ("teardown_s", teardown)):
        total = 0.0
        for step in steps:
            total += step[2]
        assert coalesced.metrics.samples(f"lightpath.{name}") == [total]
    step_histograms = [
        {
            name: stack.metrics.samples(name)
            for name in stack.metrics.histograms()
            if name.startswith("step.")
        }
        for stack in (coalesced, listed)
    ]
    assert step_histograms[0] == step_histograms[1] and step_histograms[0]
