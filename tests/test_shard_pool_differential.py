"""Differential: the worker-pool backend against in-process planning.

The persistent-worker acceptance gate: on the same 2-region hierarchy
and the same order stream — including a fiber-cut round forwarded to
the workers via the ``cut`` RPC and a post-repair round — a
``backend="pool"`` deployment must produce byte-identical structural
outcomes (:func:`~repro.shard.network.outcome_fingerprint`) and typed
order states as the in-process planner, for both the sharded and the
monolithic-twin modes.  Also pins the plant-mirror invariant (after
:meth:`~repro.shard.network.ShardedNetwork.sync_workers`, every
worker's plant digest equals the authoritative controller's) and the
frontend path: a :class:`~repro.shard.intake.ShardIntake` over the pool
backend settles the identical ticket stream.
"""

from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.shard.intake import ShardIntake
from repro.shard.network import build_sharded_network
from repro.fingerprint import outcome_fingerprint
from repro.topo.hierarchy import build_hierarchy
from repro.units import GBPS

#: Cross-region, intra-region, repeated-pair (contention), and an
#: unregistered customer (admission block): UP and BLOCKED outcomes in
#: one stream.
ORDERS = [
    ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
    ("csp", "DC-R00-P02", "DC-R00-P05", 10 * GBPS),
    ("csp", "DC-R00-P00", "DC-R01-P03", 10 * GBPS),
    ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
    ("ghost", "DC-R00-P02", "DC-R01-P05", 10 * GBPS),
    ("csp", "DC-R01-P01", "DC-R00-P04", 10 * GBPS),
]

#: Placed after the fiber cut: the planner must route around the break.
CUT_ROUND = [
    ("csp", "DC-R00-P01", "DC-R01-P02", 10 * GBPS),
    ("csp", "DC-R00-P04", "DC-R00-P01", 10 * GBPS),
]

#: Placed after the repair: occupancy accumulated through the chaos.
REPAIR_ROUND = [("csp", "DC-R00-P03", "DC-R01-P05", 10 * GBPS)]


def _hierarchy():
    return build_hierarchy(
        seed=11, regions=2, pops_per_region=6, with_premises=True
    )


def _victim_link(orders):
    """A deterministic roadm-roadm hop of the first UP order's plan.

    plan_record is part of the fingerprint, so every backend picks the
    identical link; premises tails are skipped because the chaos hooks
    cut backbone fiber.
    """
    record = next(
        o for o in orders if o.state is ConnectionState.UP
    ).plan_record[0]
    path = record["path"]
    for a, b in zip(path, path[1:]):
        if not a.startswith("DC-") and not b.startswith("DC-"):
            return a, b
    raise AssertionError(f"no backbone hop in {path}")


def _run_deployment(mode, backend):
    """The full differential scenario on one (mode, backend) pair."""
    net = build_sharded_network(
        seed=11, mode=mode, hierarchy=_hierarchy(), backend=backend
    )
    with net:
        net.register_customer(
            CustomerProfile(
                "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
            )
        )
        orders = net.place_orders(ORDERS)
        net.run()
        a, b = _victim_link(orders)
        net.cut_fiber(a, b)
        net.run()
        orders.extend(net.place_orders(CUT_ROUND))
        net.run()
        net.repair_fiber(a, b)
        orders.extend(net.place_orders(REPAIR_ROUND))
        net.run()
        audits = {
            unit: report.ok for unit, report in net.audit_shards().items()
        }
        mirror_ok = None
        if backend == "pool":
            net.sync_workers()
            plants = net.plant_fingerprints()
            mirror_ok = {
                key: fp["state"] == plants[key]
                for key, fp in net.worker_fingerprints().items()
            }
    return orders, audits, mirror_ok


class TestPoolVsInProcess:
    def test_sharded_outcomes_byte_identical(self):
        pooled, pool_audits, mirror_ok = _run_deployment("sharded", "pool")
        local, local_audits, _ = _run_deployment("sharded", "inprocess")
        assert outcome_fingerprint(pooled) == outcome_fingerprint(local)
        # Typed states match pairwise, and the stream is not vacuous:
        # the scenario produces UP and BLOCKED orders.
        assert [o.state for o in pooled] == [o.state for o in local]
        states = {o.state for o in pooled}
        assert ConnectionState.UP in states
        assert ConnectionState.BLOCKED in states
        assert all(pool_audits.values()), pool_audits
        assert all(local_audits.values()), local_audits
        # The mirror invariant: after sync_workers every worker's plant
        # digest equals the authoritative controller's.
        assert mirror_ok and all(mirror_ok.values()), mirror_ok

    def test_monolithic_twin_outcomes_byte_identical(self):
        pooled, _, mirror_ok = _run_deployment("monolithic", "pool")
        local, _, _ = _run_deployment("monolithic", "inprocess")
        assert outcome_fingerprint(pooled) == outcome_fingerprint(local)
        assert mirror_ok == {"mono": True}

    def test_pool_backend_matches_monolithic_pool(self):
        # Transitivity spot-check: sharded-pool == monolithic-pool, so
        # all four (mode, backend) corners plan one structural outcome.
        sharded, _, _ = _run_deployment("sharded", "pool")
        mono, _, _ = _run_deployment("monolithic", "pool")
        assert outcome_fingerprint(sharded) == outcome_fingerprint(mono)


class TestIntakeOverPool:
    def _drive(self, backend):
        net = build_sharded_network(
            seed=11, mode="sharded", hierarchy=_hierarchy(), backend=backend
        )
        with net:
            net.register_customer(
                CustomerProfile(
                    "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
                )
            )
            intake = ShardIntake(net, round_size=4, round_interval=0.01)
            tickets = [
                intake.submit(customer, a, b, rate)
                for customer, a, b, rate in ORDERS
            ]
            net.run()
            outcomes = [
                (
                    ticket.state.value,
                    ticket.reason,
                    type(intake.outcome(ticket)).__name__,
                )
                for ticket in tickets
            ]
        return outcomes

    def test_intake_settles_identical_tickets_over_pool(self):
        assert self._drive("pool") == self._drive("inprocess")
