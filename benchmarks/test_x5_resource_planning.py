"""X5: network resource planning — transponder pool sizing.

"In order to support rapid connection provisioning and faster
restorations, the carrier must plan ahead, where and when to deploy the
spare resources (especially OTs). ... they need to forecast demand and
carefully manage the pool of GRIPhoN resources" (§4).  We sweep the
per-node transponder pool size against a multi-customer BoD request
load and measure blocking probability, then ablate the wavelength-
assignment policy (first-fit vs random).
"""

from benchmarks.harness import print_rows
from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.units import HOUR


def offered_load(net, requests=24, seed_tag=""):
    """Offer a fixed pattern of 10G requests from three CSPs; return the
    blocking ratio.  Connections hold for two hours then release."""
    customers = [
        net.service_for(f"csp-{i}{seed_tag}", max_connections=32,
                        max_total_rate_gbps=10000)
        for i in range(3)
    ]
    pairs = [
        ("PREMISES-A", "PREMISES-B"),
        ("PREMISES-A", "PREMISES-C"),
        ("PREMISES-B", "PREMISES-C"),
    ]
    blocked = 0
    for index in range(requests):
        svc = customers[index % len(customers)]
        a, b = pairs[index % len(pairs)]
        conn = svc.request_connection(a, b, 10)
        if conn.state is ConnectionState.BLOCKED:
            blocked += 1
        else:
            net.sim.schedule(
                2 * HOUR, svc.teardown_connection, conn.connection_id
            )
        # Requests arrive every 20 simulated minutes; connections hold
        # for two hours, so about six overlap at any time.
        net.run(until=net.sim.now + 1200)
    net.run()
    return blocked / requests


def test_x5_pool_sizing(benchmark):
    def run():
        results = {}
        for pool_size in (2, 4, 6, 10):
            net = build_griphon_testbed(
                seed=600 + pool_size,
                latency_cv=0.0,
                ots_per_node_10g=pool_size,
                nte_interfaces=12,
            )
            results[pool_size] = offered_load(net)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["10G OTs per node", "blocking probability"]]
    for pool_size, blocking in sorted(results.items()):
        rows.append([str(pool_size), f"{blocking:.0%}"])
    print_rows("X5: blocking vs transponder pool size", rows)
    benchmark.extra_info.update({str(k): v for k, v in results.items()})

    ordered = [results[k] for k in sorted(results)]
    # More OTs -> (weakly) less blocking, by a lot across the sweep.
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
    assert ordered[0] > 0.2  # an undersized pool visibly blocks
    assert ordered[-1] == 0.0  # a generous pool clears the load


def test_x5_customer_isolation_under_contention(benchmark):
    """One customer burning its quota never blocks another customer's
    admission — isolation is per-profile, capacity contention aside."""

    def run():
        net = build_griphon_testbed(seed=640, latency_cv=0.0)
        hog = net.service_for("hog", max_connections=2)
        victim = net.service_for("victim", max_connections=2)
        for _ in range(4):  # two admitted, two quota-blocked
            hog.request_connection("PREMISES-A", "PREMISES-B", 10)
        net.run()
        conn = victim.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        return hog, victim, conn

    hog, victim, conn = benchmark.pedantic(run, rounds=1, iterations=1)
    blocked_hog = [
        c for c in hog.connections() if c.state is ConnectionState.BLOCKED
    ]
    assert len(blocked_hog) == 2  # the hog hit its own quota
    assert conn.state is ConnectionState.UP  # the victim is untouched


def test_x5_ablation_first_fit_vs_random(benchmark):
    """Ablation: first-fit vs random wavelength assignment.

    The classic RWA result: on multi-hop routes with wavelength
    continuity, random assignment fragments the spectrum (a channel
    free on one hop but busy on the next is useless), so it blocks more
    demands than first-fit, which packs channels densely from the
    bottom.  A 6-node chain with mixed-length demands shows it.
    """
    from repro.core.inventory import InventoryDatabase
    from repro.core.rwa import RwaEngine
    from repro.errors import WavelengthBlockedError
    from repro.optical.wavelength import WavelengthGrid
    from repro.sim.randomness import RandomStreams
    from repro.topo.graph import Link, NetworkGraph, Node
    from repro.units import gbps

    def chain_inventory():
        graph = NetworkGraph()
        for i in range(6):
            graph.add_node(Node(f"N{i}"))
        for i in range(5):
            graph.add_link(Link(f"N{i}", f"N{i + 1}", length_km=100.0))
        return InventoryDatabase(graph, WavelengthGrid(8))

    def offered_demands():
        """A fixed mixed-length demand sequence at moderate load."""
        spans = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                 (0, 2), (1, 3), (2, 4), (3, 5), (0, 3), (2, 5), (0, 5)]
        return spans * 2

    def blocking_for(policy, seed):
        streams = RandomStreams(seed)
        inventory = chain_inventory()
        engine = RwaEngine(
            inventory, k_paths=1, assignment=policy, streams=streams
        )
        blocked = 0
        total = 0
        for a, b in offered_demands():
            total += 1
            try:
                plan = engine.plan(f"N{a}", f"N{b}", gbps(10))
            except WavelengthBlockedError:
                blocked += 1
                continue
            owner = f"d{total}"
            for segment in plan.segments:
                for u, v in zip(segment.nodes, segment.nodes[1:]):
                    inventory.plant.dwdm_link(u, v).occupy(
                        segment.channel, owner
                    )
        return blocked / total

    def run():
        # First-fit is deterministic; average random over ten seeds.
        random_mean = sum(
            blocking_for("random", seed) for seed in range(10)
        ) / 10
        return {
            "first-fit": blocking_for("first-fit", 0),
            "random": random_mean,
        }

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["assignment policy", "blocking probability"]]
    for policy, blocking in ratios.items():
        rows.append([policy, f"{blocking:.0%}"])
    print_rows("X5 ablation: wavelength assignment policy", rows)
    benchmark.extra_info.update(ratios)
    assert ratios["first-fit"] <= ratios["random"]
