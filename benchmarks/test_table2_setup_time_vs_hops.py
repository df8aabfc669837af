"""Table 2: wavelength connection establishment time vs path length.

Paper (ten iterations each):

    hops   1 (I-IV)   2 (I-III-IV)   3 (I-II-III-IV)
    time   62.48 s    65.67 s        70.94 s

We regenerate the same three paths on the Fig. 4 testbed and check the
shape: ~60-70 s absolute scale, strictly monotone growth, and a few
seconds per added hop.  An ablation shows what parallelizing the EMS
steps (which the paper says nothing fundamental prevents) would buy.
"""

import pytest

from benchmarks.harness import (
    mean_by_hops,
    print_rows,
    table2_measurements,
)
from repro.topo.testbed import PAPER_TABLE2


def test_table2_setup_time_vs_hops(benchmark):
    results = benchmark.pedantic(
        table2_measurements, kwargs={"iterations": 10}, rounds=1, iterations=1
    )
    means = mean_by_hops(results)
    rows = [["path length (hops)", "paper mean (s)", "measured mean (s)"]]
    for hops in sorted(means):
        rows.append(
            [str(hops), f"{PAPER_TABLE2[hops]:.2f}", f"{means[hops]:.2f}"]
        )
    print_rows("Table 2: establishment time vs ROADM path length", rows)
    benchmark.extra_info["means_s"] = {str(k): v for k, v in means.items()}

    # Shape assertions: monotone growth, right absolute scale, per-hop
    # increments of a few seconds, within 20% of the paper's numbers.
    assert means[1] < means[2] < means[3]
    for hops, paper_value in PAPER_TABLE2.items():
        assert means[hops] == pytest.approx(paper_value, rel=0.20)
    assert 2.0 < means[2] - means[1] < 10.0
    assert 2.0 < means[3] - means[2] < 10.0


def test_table2_ablation_parallel_ems(benchmark):
    """Ablation: per-stage parallel EMS execution cuts setup time.

    The paper notes the 60-70 s is not a physical limit; running the
    independent EMS steps (both laser tunings, both add/drops, all
    equalizations) concurrently is the obvious first optimization.
    """

    def run():
        sequential = mean_by_hops(table2_measurements(iterations=3))
        parallel = mean_by_hops(
            table2_measurements(iterations=3, parallel_ems=True)
        )
        return sequential, parallel

    sequential, parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["hops", "sequential EMS (s)", "parallel EMS (s)"]]
    for hops in sorted(sequential):
        rows.append(
            [str(hops), f"{sequential[hops]:.2f}", f"{parallel[hops]:.2f}"]
        )
    print_rows("Table 2 ablation: sequential vs parallel EMS steps", rows)
    for hops in sequential:
        assert parallel[hops] < sequential[hops]
    # Laser tuning dominates the parallel critical path; the win is
    # roughly the serialized duplicate steps (~20 s at 1 hop).
    assert sequential[1] - parallel[1] > 10.0
