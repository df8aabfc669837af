"""Differential: sharded and monolithic deployments, identical outcomes.

The acceptance gate for the sharded controller: on the same 2-region
hierarchy and the same order stream, the per-region-shard deployment
and the single full-graph controller must produce byte-identical
structural outcomes — same segment paths, same first-fit channels, same
regen sites, same blocked reasons.  Sequence-assigned identifiers and
timings are deliberately outside the fingerprint (they legitimately
differ between deployments).
"""

from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.fingerprint import outcome_fingerprint
from repro.shard import build_sharded_network
from repro.topo.hierarchy import build_hierarchy
from repro.units import GBPS

#: A mixed order stream: cross-region, intra-region, gateway-endpoint
#: (degenerate segment), repeated pair (overlay contention), and an
#: unregistered customer (admission block) — every code path the
#: fingerprint covers.
ORDERS = [
    ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
    ("csp", "DC-R00-P02", "DC-R00-P05", 10 * GBPS),
    ("csp", "DC-R00-P00", "DC-R01-P03", 10 * GBPS),
    ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS),
    ("ghost", "DC-R00-P02", "DC-R01-P05", 10 * GBPS),
    ("csp", "DC-R01-P01", "DC-R00-P04", 10 * GBPS),
]


def _run_deployment(mode, hierarchy):
    net = build_sharded_network(seed=11, mode=mode, hierarchy=hierarchy)
    net.register_customer(
        CustomerProfile(
            "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
        )
    )
    orders = net.place_orders(ORDERS)
    net.run()
    # Exercise the cross-shard teardown too, then a follow-up round that
    # plans against the post-teardown occupancy.
    released = next(
        o for o in orders if o.state is ConnectionState.UP
    )
    net.teardown_order(released)
    net.run()
    orders.extend(
        net.place_orders([("csp", "DC-R00-P03", "DC-R01-P05", 10 * GBPS)])
    )
    net.run()
    return net, orders


class TestShardedVsMonolithic:
    def test_outcomes_byte_identical(self):
        hierarchy = build_hierarchy(
            seed=11, regions=2, pops_per_region=6, with_premises=True
        )
        sharded_net, sharded = _run_deployment("sharded", hierarchy)
        mono_net, mono = _run_deployment("monolithic", hierarchy)
        assert outcome_fingerprint(sharded) == outcome_fingerprint(mono)
        # Spot-check the fingerprint is not vacuous: states span the
        # space and at least one order was admission-blocked.
        states = {o.state for o in sharded}
        assert ConnectionState.UP in states
        assert ConnectionState.BLOCKED in states
        assert ConnectionState.RELEASED in states
        for net in (sharded_net, mono_net):
            for unit, report in net.audit_shards().items():
                assert report.ok, f"{unit}: {report.violations}"

    def test_fingerprint_sensitive_to_outcome(self):
        hierarchy = build_hierarchy(
            seed=11, regions=2, pops_per_region=6, with_premises=True
        )
        _, orders = _run_deployment("sharded", hierarchy)
        before = outcome_fingerprint(orders)
        orders[0].plan_record[0]["channels"] = [9999]
        assert outcome_fingerprint(orders) != before
