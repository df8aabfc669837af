"""Golden of the benchmark's deterministic work counters, per workload.

``tests/golden/work_counters.json`` pins, per (workload, seed, scale),
how much work one traced run of a ``python -m bench`` workload does, not
how fast it does it: kernel events, claims, setup workflows, EMS
commands, RWA plan calls, k-shortest-path searches, circuit claims and
worker RPCs, plus the outcome counts and the run's ``sim_fingerprint``.
A change that does more work per order -- an extra kernel event, an
extra plan call per round -- moves a row and fails here.  Wall-clock
figures stay with the benchmark, reported and ungated.

The run is the benchmark's own traced run, in this process: the test
imports ``bench.workloads``, ``bench.driver``, ``bench.trace`` and
``bench.layers`` as they are.  ``TIER1`` rows run on every tier-1 pass;
``FULL`` rows (the benchmark's default scale, two seeds) run when
``WORK_COUNTERS=full`` is set, as the CI determinism job does under two
hash seeds.  After an intentional change to the work an order costs,
regenerate and say why in the change's notes::

    PYTHONPATH=src python -c \
        "from tests.test_work_counters import regenerate; regenerate()"
"""

import json
import os
from pathlib import Path

import pytest

from bench import layers
from bench.driver import Driver
from bench.trace import Recorder
from bench.workloads import BUILDERS

GOLDEN_PATH = Path(__file__).parent / "golden" / "work_counters.json"

WORKLOADS = ["sharded-inproc", "sharded-pool", "edge-overload", "mono-churn"]
#: (seed, scale) rows: tier-1's small run, and the benchmark's default scale.
TIER1 = [(11, 0.02)]
FULL = [(11, 0.15), (12, 0.15)]
COUNTERS = [
    "kernel.events",
    "prov.claim_calls",
    "prov.setup_steps",
    "ems.commands",
    "rwa.plan_calls",
    "topo.ksp_calls",
    "grooming.claim_calls",
    "workers.rpc_calls",
]


def key(workload, seed, scale):
    return f"{workload}/seed={seed}/scale={scale}"


def run_counters(workload, seed, scale):
    """One traced run of ``workload``, as ``bench.child`` makes it."""
    recorder = Recorder()
    world = BUILDERS[workload](
        seed, scale, lambda pool: recorder.wrap(pool, "ensure", "workers.spawn")
    )
    try:
        driver = Driver(world)
        if world.pool is not None:
            recorder.unwrap(world.pool, "ensure")
        counts = layers.install(recorder, world, driver)
        driver.load()
        driver.run()
        recorder.unwrap()
        metrics = layers.layer_metrics(
            recorder, counts, world, driver, world.route_cache_stats(), 0.0
        )
    finally:
        world.close()
    return {
        "counters": {name: int(metrics[name]) for name in COUNTERS},
        "outcomes": driver.outcome_counts(),
        "sim_fingerprint": driver.sim_fingerprint(),
    }


def rows():
    full = os.environ.get("WORK_COUNTERS") == "full"
    return [
        (workload, seed, scale)
        for seed, scale in TIER1 + (FULL if full else [])
        for workload in WORKLOADS
    ]


@pytest.mark.parametrize("workload, seed, scale", rows())
def test_work_counters_match_the_golden(workload, seed, scale):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert run_counters(workload, seed, scale) == golden[key(workload, seed, scale)]


def regenerate():
    """Rewrite the golden from the current code, every row."""
    golden = {
        key(workload, seed, scale): run_counters(workload, seed, scale)
        for seed, scale in TIER1 + FULL
        for workload in WORKLOADS
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
