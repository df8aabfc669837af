"""Batched-RWA perf report: emits ``BENCH_pipeline.json``.

Measures planning throughput for a scheduling round of 64 concurrent
orders on the 32-PoP Waxman backbone, two ways:

* **serial** — what the controller does without the pipeline: one
  :meth:`RwaEngine.plan` call per order, occupying each plan's
  channels before the next call (the claim's effect on planning state);
* **batched** — one :meth:`RwaEngine.plan_batch` call for the whole
  round, sharing route lookups, liveness checks, regen segmentation,
  and free-channel scans across orders via the round's memos and
  shadow-claim overlay.

Demand is concentrated on a handful of hub PoPs — inter-data-center
traffic aggregates onto few sites (the paper's premise) — so a round
repeats source/destination pairs and the shared state pays off.  Both
paths must produce identical plans and errors; the report records the
check alongside the throughput numbers.

Usage::

    PYTHONPATH=src python benchmarks/pipeline_report.py [output.json]

The measurement helpers are also imported by
``benchmarks/test_perf_pipeline.py`` so the perf assertion and the
report share one methodology.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.inventory import InventoryDatabase
from repro.core.rwa import PlanRequest, RwaEngine
from repro.errors import GriphonError
from repro.sim.randomness import RandomStreams
from repro.topo.generator import generate_backbone
from repro.topo.graph import NetworkGraph
from repro.units import GBPS

#: Line rate every order requests.
RATE_BPS = 10 * GBPS

#: Concurrent orders per measured scheduling round.
ORDERS = 64

#: PoPs the demand concentrates on (data-center hubs).
HUBS = 8

#: Default output path: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def build_graph(seed: int = 2026) -> NetworkGraph:
    """The 32-PoP Waxman backbone."""
    return generate_backbone(
        RandomStreams(seed + 1), node_count=32, plane_km=2000.0
    )


def order_pairs(graph: NetworkGraph, count: int = ORDERS) -> List[Tuple[str, str]]:
    """``count`` hub-concentrated source/destination pairs."""
    names = sorted(
        node.name for node in graph.nodes if node.kind == "roadm"
    )[:HUBS]
    pairs = []
    for index in range(count):
        a = names[index % len(names)]
        b = names[(index * 3 + 1) % len(names)]
        if a == b:
            b = names[(index * 3 + 2) % len(names)]
        pairs.append((a, b))
    return pairs


def _occupy(inventory: InventoryDatabase, plan, owner: str) -> List:
    """Occupy a plan's channels; returns undo thunks."""
    undo = []
    for segment in plan.segments:
        for u, v in zip(segment.nodes, segment.nodes[1:]):
            link = inventory.plant.dwdm_link(u, v)
            link.occupy(segment.channel, owner)
            undo.append(
                lambda link=link, ch=segment.channel, o=owner: link.release(ch, o)
            )
    return undo


def _outcome(plan_or_error) -> Tuple:
    """A comparable summary of one order's planning result."""
    if isinstance(plan_or_error, Exception):
        return ("error", str(plan_or_error))
    return (
        "plan",
        tuple(plan_or_error.path),
        tuple(s.channel for s in plan_or_error.segments),
        tuple(plan_or_error.regen_sites),
    )


def serial_round(
    engine: RwaEngine,
    inventory: InventoryDatabase,
    requests: List[PlanRequest],
) -> Tuple[List[Tuple], List]:
    """Plan a round one order at a time, claiming channels in between."""
    outcomes = []
    undo: List = []
    for index, request in enumerate(requests):
        try:
            plan = engine.plan(
                request.source, request.destination, request.rate_bps
            )
        except GriphonError as exc:
            outcomes.append(_outcome(exc))
            continue
        undo.extend(_occupy(inventory, plan, f"bench-{index}"))
        outcomes.append(_outcome(plan))
    return outcomes, undo


def batch_round(
    engine: RwaEngine, requests: List[PlanRequest]
) -> List[Tuple]:
    """Plan a round in one ``plan_batch`` call (no inventory mutation)."""
    return [
        _outcome(item.plan if item.error is None else item.error)
        for item in engine.plan_batch(requests)
    ]


def collect_measurements(
    seed: int = 2026, orders: int = ORDERS, rounds: int = 5
) -> Dict[str, object]:
    """Serial-vs-batched round throughput on the 32-PoP backbone."""
    graph = build_graph(seed)
    inventory = InventoryDatabase(graph)
    engine = RwaEngine(inventory)
    requests = [
        PlanRequest(a, b, RATE_BPS) for a, b in order_pairs(graph, orders)
    ]

    # Equivalence first.
    serial_outcomes, undo = serial_round(engine, inventory, requests)
    for release in reversed(undo):
        release()
    batch_outcomes = batch_round(engine, requests)
    plans_identical = serial_outcomes == batch_outcomes

    serial_total = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        _, undo = serial_round(engine, inventory, requests)
        serial_total += time.perf_counter() - start
        for release in reversed(undo):
            release()

    batch_total = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        batch_round(engine, requests)
        batch_total += time.perf_counter() - start

    serial_ops = orders * rounds / serial_total
    batch_ops = orders * rounds / batch_total
    planned = sum(1 for o in serial_outcomes if o[0] == "plan")
    return {
        "topology": "waxman-32pop",
        "orders": orders,
        "rounds": rounds,
        "planned": planned,
        "errors": orders - planned,
        "plans_identical": plans_identical,
        "serial_orders_per_sec": serial_ops,
        "batch_orders_per_sec": batch_ops,
        "speedup": batch_ops / serial_ops,
    }


def write_report(path: Path, results: Dict[str, object]) -> None:
    """Serialize the measurements (plus context) as JSON."""
    report = {
        "benchmark": "pipeline-batched-rwa",
        "schema_version": 1,
        "rate_gbps": RATE_BPS / GBPS,
        "results": [results],
    }
    path.write_text(json.dumps(report, indent=2) + "\n")


def main(argv: List[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUTPUT
    results = collect_measurements()
    write_report(output, results)
    print(
        f"waxman-32pop, {results['orders']} orders: "
        f"serial {results['serial_orders_per_sec']:8.0f} orders/s, "
        f"batched {results['batch_orders_per_sec']:8.0f} orders/s, "
        f"speedup {results['speedup']:.1f}x, "
        f"plans identical: {results['plans_identical']}"
    )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
