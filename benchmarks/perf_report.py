"""RWA fast-path perf report: emits ``BENCH_rwa.json``.

Measures per-call latency of :meth:`RwaEngine.plan` on the Fig. 4
testbed and on generated 16/32-PoP Waxman backbones, cold (route cache
disabled, every call pays the route search: one BFS for the shortest
route, Yen's spurs only if that route fails) versus warm (cache
enabled and primed).  The JSON file gives future PRs a perf trajectory
to compare against.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py [output.json]

The measurement helpers are also imported by
``benchmarks/test_perf_rwa.py`` so the perf assertions and the report
share one methodology.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.inventory import InventoryDatabase
from repro.core.rwa import RwaEngine
from repro.errors import NoPathError, WavelengthBlockedError
from repro.sim.randomness import RandomStreams
from repro.topo.generator import generate_backbone
from repro.topo.graph import NetworkGraph
from repro.topo.testbed import build_testbed_graph
from repro.units import GBPS

#: Line rate every measured plan() call requests.
RATE_BPS = 10 * GBPS

#: Default output path: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_rwa.json"


def build_graphs(seed: int = 2026) -> Dict[str, NetworkGraph]:
    """The three measured topologies, keyed by report name."""
    return {
        "fig4-testbed": build_testbed_graph(),
        "waxman-16pop": generate_backbone(
            RandomStreams(seed), node_count=16, plane_km=2000.0
        ),
        "waxman-32pop": generate_backbone(
            RandomStreams(seed + 1), node_count=32, plane_km=2000.0
        ),
    }


def demand_pairs(graph: NetworkGraph, count: int = 24) -> List[Tuple[str, str]]:
    """A deterministic cycle of ROADM source/destination pairs."""
    names = sorted(node.name for node in graph.nodes if node.kind == "roadm")
    pairs = []
    for index in range(count):
        a = names[index % len(names)]
        b = names[(index * 7 + 3) % len(names)]
        if a != b:
            pairs.append((a, b))
    return pairs


def time_plans(
    engine: RwaEngine, pairs: List[Tuple[str, str]], rounds: int
) -> float:
    """Mean wall-clock seconds per plan() call over ``rounds`` sweeps."""
    calls = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for source, dest in pairs:
            try:
                engine.plan(source, dest, RATE_BPS)
            except (NoPathError, WavelengthBlockedError):
                pass
            calls += 1
    return (time.perf_counter() - start) / calls


def measure_topology(
    name: str,
    graph: NetworkGraph,
    cold_rounds: int = 3,
    warm_rounds: int = 10,
) -> Dict[str, object]:
    """Cold-vs-warm plan latency on one topology.

    Cold and warm engines share one inventory (all channels dark), so
    the only difference between the two measurements is the route cache.
    """
    inventory = InventoryDatabase(graph)
    pairs = demand_pairs(graph)

    cold_engine = RwaEngine(inventory, route_cache_size=0)
    cold = time_plans(cold_engine, pairs, cold_rounds)

    warm_engine = RwaEngine(inventory)
    time_plans(warm_engine, pairs, 1)  # prime the cache
    warm = time_plans(warm_engine, pairs, warm_rounds)

    stats = warm_engine.route_cache.stats()
    return {
        "topology": name,
        "nodes": len(graph.nodes),
        "links": len(graph.links),
        "pairs": len(pairs),
        "cold_us_per_plan": cold * 1e6,
        "warm_us_per_plan": warm * 1e6,
        "speedup": cold / warm,
        "warm_hit_rate": stats["hit_rate"],
    }


def collect_measurements(
    seed: int = 2026, cold_rounds: int = 3, warm_rounds: int = 10
) -> Dict[str, Dict[str, object]]:
    """Run every topology's measurement; keyed by topology name."""
    return {
        name: measure_topology(name, graph, cold_rounds, warm_rounds)
        for name, graph in build_graphs(seed).items()
    }


def write_report(path: Path, results: Dict[str, Dict[str, object]]) -> None:
    """Serialize the measurements (plus context) as JSON."""
    report = {
        "benchmark": "rwa-fast-path",
        "schema_version": 1,
        "rate_gbps": RATE_BPS / GBPS,
        "results": list(results.values()),
    }
    path.write_text(json.dumps(report, indent=2) + "\n")


def main(argv: List[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUTPUT
    results = collect_measurements()
    write_report(output, results)
    for row in results.values():
        print(
            f"{row['topology']:>14}: cold {row['cold_us_per_plan']:9.1f} us/plan, "
            f"warm {row['warm_us_per_plan']:7.1f} us/plan, "
            f"speedup {row['speedup']:6.1f}x"
        )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
