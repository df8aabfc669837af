"""X10: scaling behavior on generated carrier topologies.

The paper positions GRIPhoN for "the backbone network of a major
carrier", where "the eventual scale that must be managed" is a core
challenge (§1).  We sweep random Waxman-style backbones from 8 to 32
PoPs and measure what actually changes with scale:

* establishment time grows gently (more hops on average, a few seconds
  per hop — the Table 2 effect at network scale);
* RWA planning stays fast (k-shortest-path computation, not EMS time,
  so it is measured in microseconds of real time, not simulated time);
* blocking under a fixed per-node load stays controlled because
  resources scale with the network.

The sweep is declared as a :class:`~repro.sweep.spec.SweepSpec` (axis:
``node_count``) and driven through the scale-out engine; the network
factory is :func:`repro.sweep.studies.build_waxman_network`, which
shares its premises-attach and equipment-install steps with every other
experiment via :mod:`repro.topo.builders`.
"""

from benchmarks.harness import print_rows
from repro.sweep.engine import run_sweep
from repro.sweep.studies import x10_scaling_spec

NODE_COUNTS = (8, 16, 32)


def run_study(jobs: int = 1):
    return run_sweep(x10_scaling_spec(node_counts=NODE_COUNTS), jobs=jobs)


def test_x10_scaling_sweep(benchmark):
    result = benchmark.pedantic(run_study, rounds=1, iterations=1)
    assert not result.failed, [r.error for r in result.failed]
    grouped = result.grouped_values()
    by_nodes = {n: grouped[f"node_count={n}"] for n in NODE_COUNTS}

    rows = [["PoPs", "served", "blocked", "mean hops", "mean setup (s)"]]
    for n, stats in sorted(by_nodes.items()):
        rows.append(
            [
                str(n),
                f"{stats['served']:.0f}",
                f"{stats['blocked']:.0f}",
                f"{stats['mean_hops']:.1f}",
                f"{stats['mean_setup_s']:.1f}",
            ]
        )
    print_rows("X10: scaling on generated backbones", rows)
    benchmark.extra_info.update(
        {str(n): stats["mean_setup_s"] for n, stats in by_nodes.items()}
    )

    for stats in by_nodes.values():
        assert stats["served"] > 0
        # Setup stays in the ~1-2 minute band at every scale.
        assert 55 <= stats["mean_setup_s"] <= 150
    # Bigger networks mean longer average routes, never shorter setup
    # than the smallest network's floor.
    assert by_nodes[32]["mean_hops"] >= by_nodes[8]["mean_hops"] * 0.8
