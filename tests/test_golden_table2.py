"""Golden-trace test: the 12G setup span tree and Table 2 phase breakdown.

A checked-in JSON golden (``tests/golden/table2_trace.json``) pins down

* the full span tree of the paper's 12 Gbps example order (one 10G
  wavelength + two 1G ODU0 circuits) — span names, nesting, and
  durations to the millisecond — and
* the Table 2 per-phase establishment-time breakdown (order, fxc, tune,
  roadm, equalize, verify) for each of the three testbed path lengths.

The comparison is structural: names and shape must match exactly,
durations within 1.5 ms.  After an *intentional* timing or workflow
change, regenerate the golden and review the diff::

    PYTHONPATH=src python -c \
        "from tests.test_golden_table2 import regenerate; regenerate()"
"""

import json
import statistics
from pathlib import Path

from repro.facade import build_griphon_testbed
from repro.sim.process import Process
from repro.sweep.studies import setup_phase_durations as _setup_phase_durations
from repro.topo.testbed import TABLE2_EXCLUSIONS as _TABLE2_EXCLUSIONS
from repro.units import gbps

GOLDEN_PATH = Path(__file__).parent / "golden" / "table2_trace.json"

#: Durations are compared to the millisecond (golden stores 3 decimals).
TOLERANCE_S = 0.0015

#: Seeds averaged per Table 2 row.
ITERATIONS = 3


def _span_node(tracer, span):
    """One span as a (name, duration, children) dict, durations in ms
    resolution."""
    return {
        "name": span.name,
        "duration_s": round(span.duration, 3),
        "children": [
            _span_node(tracer, child) for child in tracer.children_of(span)
        ],
    }


def build_payload():
    """Recompute everything the golden file pins down."""
    # Part 1: the 12 Gbps composite order's span tree.
    net = build_griphon_testbed(seed=0, tracing=True)
    service = net.service_for("golden")
    service.request_connection("PREMISES-A", "PREMISES-B", 12)
    net.run()
    root = next(
        s for s in net.tracer.roots() if s.name == "connection.request"
    )
    tree = _span_node(net.tracer, root)

    # Part 2: Table 2 — per-phase setup seconds vs ROADM path length.
    table2 = {}
    for hops, exclusions in _TABLE2_EXCLUSIONS.items():
        phase_sums = {}
        totals = []
        for i in range(ITERATIONS):
            run_net = build_griphon_testbed(seed=i, tracing=True)
            plan = run_net.controller.rwa.plan(
                "ROADM-I", "ROADM-IV", gbps(10), excluded_links=exclusions
            )
            lightpath = run_net.controller.provisioner.claim(plan)
            Process(
                run_net.sim,
                run_net.controller.provisioner.setup_workflow(lightpath),
            )
            run_net.run()
            setup = run_net.tracer.spans("lightpath.setup")[0]
            for phase, secs in _setup_phase_durations(
                run_net.tracer, setup
            ).items():
                phase_sums[phase] = phase_sums.get(phase, 0.0) + secs
            totals.append(setup.duration)
        table2[str(hops)] = {
            "phases": {
                phase: round(total / ITERATIONS, 3)
                for phase, total in sorted(phase_sums.items())
            },
            "total_s": round(statistics.fmean(totals), 3),
        }
    return {"span_tree": tree, "table2": table2}


def regenerate():
    """Rewrite the golden file from the current implementation."""
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(build_payload(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


def _load_golden():
    assert GOLDEN_PATH.exists(), (
        f"golden file missing: {GOLDEN_PATH} — run regenerate()"
    )
    return json.loads(GOLDEN_PATH.read_text())


def _assert_tree_matches(actual, golden, path):
    assert actual["name"] == golden["name"], (
        f"span name drift at {path}: "
        f"{actual['name']!r} != {golden['name']!r}"
    )
    here = f"{path}/{golden['name']}"
    assert abs(actual["duration_s"] - golden["duration_s"]) <= TOLERANCE_S, (
        f"duration drift at {here}: "
        f"{actual['duration_s']} vs golden {golden['duration_s']}"
    )
    actual_children = actual["children"]
    golden_children = golden["children"]
    assert len(actual_children) == len(golden_children), (
        f"child-count drift at {here}: "
        f"{[c['name'] for c in actual_children]} vs "
        f"{[c['name'] for c in golden_children]}"
    )
    for index, (a, g) in enumerate(zip(actual_children, golden_children)):
        _assert_tree_matches(a, g, f"{here}[{index}]")


def test_12g_span_tree_matches_golden():
    actual = build_payload()["span_tree"]
    golden = _load_golden()["span_tree"]
    _assert_tree_matches(actual, golden, "")


def test_table2_phase_breakdown_matches_golden():
    actual = build_payload()["table2"]
    golden = _load_golden()["table2"]
    assert sorted(actual) == sorted(golden)
    for hops in golden:
        got, want = actual[hops], golden[hops]
        assert sorted(got["phases"]) == sorted(want["phases"]), (
            f"phase set drift at {hops} hops"
        )
        for phase, want_secs in want["phases"].items():
            assert abs(got["phases"][phase] - want_secs) <= TOLERANCE_S, (
                f"{hops} hops, phase {phase!r}: "
                f"{got['phases'][phase]} vs golden {want_secs}"
            )
        assert abs(got["total_s"] - want["total_s"]) <= TOLERANCE_S, (
            f"{hops} hops total: {got['total_s']} vs golden {want['total_s']}"
        )
