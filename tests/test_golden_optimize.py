"""Golden-plan test: the canonical 32-PoP fragmented migration plan.

A checked-in JSON golden (``tests/golden/optimize_plan.json``) pins the
full :class:`~repro.optimize.MigrationPlan` — every move's connection,
old/new route and channels, execution order, dependency edges, and the
objective values — for one canonical fragmentation scenario: seed 21,
32 PoPs, 96 warm orders, two-of-three churned away.

The planner is a pure function of the snapshot, so any drift here means
the planning heuristic (or anything upstream of it: RWA assignment
order, topology generation, churn pattern) changed behavior.  After an
*intentional* change, regenerate and review the diff::

    PYTHONPATH=src python -c \
        "from tests.test_golden_optimize import regenerate; regenerate()"

The last test holds the reclaim bar at the size ``griphon optimize`` and
``griphon sweep optimize`` run by default (64 PoPs, 160 warm orders).
"""

import json
from pathlib import Path

from repro.optimize import NetworkSnapshot, plan_migrations
from repro.optimize.bench import (
    build_optimize_network,
    fragment_network,
    place_orders,
    run_optimize_trial,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "optimize_plan.json"

#: The canonical scenario.
SEED = 21
NODE_COUNT = 32
WARM_ORDERS = 96
KEEP_EVERY = 3


def build_payload():
    """Recompute the canonical scenario's plan."""
    net = build_optimize_network(SEED, node_count=NODE_COUNT)
    service = net.service_for(
        "golden", max_connections=4096, max_total_rate_gbps=1000000
    )
    warm = place_orders(net, service, WARM_ORDERS)
    torn = fragment_network(net, service, warm, keep_every=KEEP_EVERY)
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    return {
        "scenario": {
            "seed": SEED,
            "node_count": NODE_COUNT,
            "warm_orders": WARM_ORDERS,
            "keep_every": KEEP_EVERY,
            "torn_down": torn,
            "demands": len(snapshot.demands),
        },
        "plan": plan_dict(plan),
    }


def plan_dict(plan):
    """The golden's JSON form of a :class:`~repro.optimize.MigrationPlan`."""
    return {
        "moves": [
            {
                "index": move.index,
                "connection_id": move.connection_id,
                "rate_bps": move.rate_bps,
                "old_path": list(move.old_path),
                "old_channels": list(move.old_channels),
                "new_path": list(move.new_path),
                "new_channels": list(move.new_channels),
                "cost_before": round(move.cost_before, 6),
                "cost_after": round(move.cost_after, 6),
                "depends_on": list(move.depends_on),
            }
            for move in plan.moves
        ],
        "objective_before": round(plan.objective_before, 6),
        "objective_after": round(plan.objective_after, 6),
        "wavelengths_before": plan.wavelengths_before,
        "wavelengths_after": plan.wavelengths_after,
        "passes": plan.passes,
        "frozen_demands": list(plan.frozen_demands),
    }


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


def test_scenario_shape_matches_golden():
    actual = build_payload()["scenario"]
    golden = _load_golden()["scenario"]
    assert actual == golden


def test_plan_matches_golden_exactly():
    actual = build_payload()["plan"]
    golden = _load_golden()["plan"]
    assert actual["objective_before"] == golden["objective_before"]
    assert actual["objective_after"] == golden["objective_after"]
    assert actual["wavelengths_before"] == golden["wavelengths_before"]
    assert actual["wavelengths_after"] == golden["wavelengths_after"]
    assert actual["passes"] == golden["passes"]
    assert actual["frozen_demands"] == golden["frozen_demands"]
    assert len(actual["moves"]) == len(golden["moves"]), (
        f"move count drift: {len(actual['moves'])} vs "
        f"{len(golden['moves'])}"
    )
    for got, want in zip(actual["moves"], golden["moves"]):
        assert got == want, (
            f"move {want['index']} drifted:\n"
            f"  got  {json.dumps(got, sort_keys=True)}\n"
            f"  want {json.dumps(want, sort_keys=True)}"
        )


def test_golden_plan_actually_improves_the_network():
    """The pinned plan must stay a *useful* one — wavelengths reclaimed
    and a strictly better objective — so the golden can't silently pin
    a degenerate empty plan."""
    golden = _load_golden()["plan"]
    assert golden["moves"], "golden scenario must yield moves"
    assert golden["objective_after"] < golden["objective_before"]
    assert golden["wavelengths_after"] < golden["wavelengths_before"]


def test_default_size_trial_reclaims_wavelengths_without_harm():
    """Seeds 1-3 at the default 64 PoPs: 8->2, 6->2, 8->2 wavelengths,
    every move landed, nothing dropped, nothing for the auditor."""
    trials = [run_optimize_trial(seed=seed) for seed in (1, 2, 3)]
    assert [t["wavelengths_reclaimed"] for t in trials] == [6, 4, 6]
    for trial in trials:
        assert trial["moves_completed"] == trial["planned_moves"] > 0
        assert trial["moves_failed"] == trial["moves_stale"] == 0
        assert not trial["rollback_triggered"]
        assert trial["audit_violations"] == 0
        assert trial["dropped_survivors"] == 0
    reclaim = [
        t["wavelengths_reclaimed"] / t["wavelengths_fragmented"] for t in trials
    ]
    assert sum(reclaim) / len(reclaim) >= 0.15
    assert run_optimize_trial(seed=1) == trials[0]
