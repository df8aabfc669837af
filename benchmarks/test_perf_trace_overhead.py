"""Tracing overhead on the RWA fast path.

The observability layer must be effectively free when disabled (the
default) and cheap when enabled: a single flag check on the disabled
path, one span allocation per plan on the enabled path.  This benchmark
runs one plan sweep (Fig. 4 testbed plus 16- and 32-PoP Waxman
backbones, 24 pairs each) three ways — no tracer, disabled tracer,
enabled tracer — and asserts the enabled run stays within 5% of the
untraced baseline (the disabled run within noise).
"""

import gc
import statistics
import time

from benchmarks.harness import print_rows
from repro.core.inventory import InventoryDatabase
from repro.core.rwa import RwaEngine
from repro.errors import NoPathError, WavelengthBlockedError
from repro.obs.trace import Tracer
from repro.sim.randomness import RandomStreams
from repro.topo.generator import generate_backbone
from repro.topo.testbed import build_testbed_graph
from repro.units import GBPS

#: Line rate every measured plan() call requests.
RATE_BPS = 10 * GBPS

#: Sweeps over the demand pairs per measurement.
SWEEP_ROUNDS = 3

#: Paired repetitions.  Within one repetition all three modes run back
#: to back (rotating order), and each repetition yields overhead
#: *ratios* against its own baseline — so slow drift (thermal, noisy
#: neighbours) cancels instead of polluting a min- or mean-of-times.
REPEATS = 11

#: The three wirings under test.
MODES = (
    ("baseline", lambda: None),
    ("disabled", lambda: Tracer()),
    ("enabled", lambda: Tracer(enabled=True)),
)


def build_graphs(seed: int = 2026):
    """The three measured topologies, keyed by name."""
    return {
        "fig4-testbed": build_testbed_graph(),
        "waxman-16pop": generate_backbone(
            RandomStreams(seed), node_count=16, plane_km=2000.0
        ),
        "waxman-32pop": generate_backbone(
            RandomStreams(seed + 1), node_count=32, plane_km=2000.0
        ),
    }


def demand_pairs(graph, count: int = 24):
    """A deterministic cycle of ROADM source/destination pairs."""
    names = sorted(node.name for node in graph.nodes if node.kind == "roadm")
    pairs = []
    for index in range(count):
        a = names[index % len(names)]
        b = names[(index * 7 + 3) % len(names)]
        if a != b:
            pairs.append((a, b))
    return pairs


def _sweep_once(tracer) -> float:
    """Seconds for one full plan sweep over all topologies."""
    total = 0.0
    for graph in build_graphs().values():
        inventory = InventoryDatabase(graph)
        engine = RwaEngine(inventory, tracer=tracer)
        pairs = demand_pairs(graph)
        start = time.perf_counter()
        for _ in range(SWEEP_ROUNDS):
            for source, dest in pairs:
                try:
                    engine.plan(source, dest, RATE_BPS)
                except (NoPathError, WavelengthBlockedError):
                    pass
        total += time.perf_counter() - start
    return total


def test_perf_tracing_overhead(benchmark):
    def measure():
        for _, make_tracer in MODES:  # untimed warm-up pass
            _sweep_once(make_tracer())
        ratios = {mode: [] for mode, _ in MODES if mode != "baseline"}
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for rep in range(REPEATS):
                rotation = rep % len(MODES)
                times = {}
                for mode, make_tracer in (
                    MODES[rotation:] + MODES[:rotation]
                ):
                    times[mode] = _sweep_once(make_tracer())
                for mode in ratios:
                    ratios[mode].append(times[mode] / times["baseline"])
        finally:
            if gc_was_enabled:
                gc.enable()
        return {mode: statistics.median(r) for mode, r in ratios.items()}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [["mode", "overhead vs baseline (median)"]]
    for mode, ratio in results.items():
        rows.append([mode, f"{ratio - 1.0:+.1%}"])
    print_rows("RWA plan sweep: tracing overhead", rows)
    benchmark.extra_info.update(
        {f"{mode}_ratio": ratio for mode, ratio in results.items()}
    )

    # Disabled (the default wiring) must be indistinguishable from no
    # tracer at all; enabled must stay under the 5% acceptance bar.
    assert results["disabled"] < 1.03, results
    assert results["enabled"] < 1.05, results


def test_traced_plans_match_untraced(benchmark):
    """Tracing must observe, never change, the planning answers."""

    def compare():
        mismatches = 0
        for graph in build_graphs().values():
            inventory = InventoryDatabase(graph)
            traced = RwaEngine(inventory, tracer=Tracer(enabled=True))
            plain = RwaEngine(inventory)
            for source, dest in demand_pairs(graph):
                if traced.plan(source, dest, RATE_BPS) != plain.plan(
                    source, dest, RATE_BPS
                ):
                    mismatches += 1
        return mismatches

    assert benchmark.pedantic(compare, rounds=1, iterations=1) == 0
