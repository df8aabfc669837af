"""Perf microbenchmarks for the RWA fast path.

Cold (cache disabled) versus warm (generation-stamped route cache) plan
latency on the Fig. 4 testbed and on 16/32-PoP Waxman backbones — the
X10-style sweep scale.  The warm cache must win on every topology; the
property suite in ``tests/test_property_routecache.py`` separately
proves cached and uncached plans are identical.
"""

from benchmarks.harness import print_rows
from benchmarks.perf_report import (
    build_graphs,
    collect_measurements,
    demand_pairs,
    RATE_BPS,
)
from repro.core.inventory import InventoryDatabase
from repro.core.rwa import RwaEngine


def test_perf_rwa_cold_vs_warm(benchmark):
    results = benchmark.pedantic(
        lambda: collect_measurements(), rounds=1, iterations=1
    )

    rows = [["topology", "cold (us)", "warm (us)", "speedup", "hit rate"]]
    for row in results.values():
        rows.append(
            [
                row["topology"],
                f"{row['cold_us_per_plan']:.1f}",
                f"{row['warm_us_per_plan']:.1f}",
                f"{row['speedup']:.1f}x",
                f"{row['warm_hit_rate']:.0%}",
            ]
        )
    print_rows("RWA fast path: cold vs warm plan latency", rows)
    benchmark.extra_info.update(
        {name: row["speedup"] for name, row in results.items()}
    )

    # Every topology benefits.  No ratio bar: a minimum warm/cold ratio
    # is a floor on how slow the cold search is, not on the cache.
    for row in results.values():
        assert row["speedup"] > 1.0, row
        assert row["warm_hit_rate"] > 0.5, row


def test_perf_rwa_warm_plans_match_cold(benchmark):
    """The speedup is not bought with different answers."""

    def compare():
        mismatches = 0
        for graph in build_graphs().values():
            inventory = InventoryDatabase(graph)
            cached = RwaEngine(inventory)
            uncached = RwaEngine(inventory, route_cache_size=0)
            for source, dest in demand_pairs(graph):
                for _ in range(2):  # second sweep is a cache hit
                    if cached.plan(source, dest, RATE_BPS) != uncached.plan(
                        source, dest, RATE_BPS
                    ):
                        mismatches += 1
        return mismatches

    assert benchmark.pedantic(compare, rounds=1, iterations=1) == 0
