"""Perf benchmark for the pipeline's batched RWA rounds.

A scheduling round of 64 concurrent orders on the 32-PoP Waxman
backbone, planned serially (one ``plan()`` + channel claim per order,
the pre-pipeline controller's behavior) versus in one ``plan_batch()``
call.  The batched round must be the faster one; the equivalence
assertion proves the speedup is not bought with different answers.
``benchmarks/pipeline_report.py`` emits the same measurement as
``BENCH_pipeline.json``.
"""

from benchmarks.harness import print_rows
from benchmarks.pipeline_report import collect_measurements


def test_perf_pipeline_batched_round(benchmark):
    results = benchmark.pedantic(
        lambda: collect_measurements(), rounds=1, iterations=1
    )

    print_rows(
        "Pipeline: serial vs batched round planning (64 orders, 32 PoPs)",
        [
            ["path", "orders/sec"],
            ["serial", f"{results['serial_orders_per_sec']:.0f}"],
            ["batched", f"{results['batch_orders_per_sec']:.0f}"],
            ["speedup", f"{results['speedup']:.2f}x"],
        ],
    )
    benchmark.extra_info.update(
        {
            "speedup": results["speedup"],
            "plans_identical": results["plans_identical"],
        }
    )

    # The batch must answer exactly like the serial path...
    assert results["plans_identical"], results
    assert results["planned"] > 0
    # ...and faster.  No ratio bar: a minimum batched/serial ratio is a
    # floor on how slow each serial route search is, not on the batching.
    assert results["speedup"] > 1.0, results
