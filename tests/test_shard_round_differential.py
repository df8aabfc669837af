"""Differential: the three-phase placement round against per-order placement.

``ShardedNetwork.place_orders`` opens every order of a round, plans each
unit's requests as one batch and finishes the orders in order — the pool
backend with one ``round`` RPC per touched worker.  The reference here
is the loop it replaced, kept verbatim and *only* in this file
(:class:`PerOrderNetwork`): admit -> decompose -> plan this order's
segments -> claim, one order at a time.  Every (mode x backend) corner
of the new round must reproduce the reference's structural outcomes,
authoritative plant, order observer event sequence and per-tenant
admission usage — over hypothesis-generated rounds and over five pinned
scenarios, each asserting that the situation it is named for really
occurs:

* a tenant whose quota runs out mid-round while an earlier order of
  theirs is about to block at plan / at claim (the flush-and-retry rule;
  without the flush the last order is refused and the test fails);
* an unknown premises mid-round;
* a segment with no free channel mid-round whose sibling's shadow claim
  stays for the rest of the round;
* a fiber cut and repair on a unit that then gets no request for two
  rounds (the deferred delta crosses a cut link);
* the monolithic twin over the pool (every unit shares one worker, so
  the worker sees requests in order index, then segment order).

The reference plans in-process: the RPC ops the parent's pool branch
used are gone, and the parent pinned pool == in-process itself
(``tests/test_shard_pool_differential.py``).
"""

from typing import Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.core.rwa import PlanRequest, RwaPlan, _PlanningRound
from repro.errors import AdmissionError, GriphonError
from repro.shard.network import (
    ShardedNetwork,
    ShardOrder,
    outcome_fingerprint,
)
from repro.shard.planner import SegmentSpec
from repro.shard.workers import ShardWorkerPool
from repro.sim.process import Process
from repro.topo.hierarchy import EXPRESS, build_hierarchy
from repro.units import GBPS

RATE = 10 * GBPS


class PerOrderNetwork(ShardedNetwork):
    """The parent commit's placement loop (in-process planning)."""

    def place_orders(self, requests):
        rounds = {
            unit: _PlanningRound() for unit in self._unit_controller
        }
        return [
            self._place(customer, premises_a, premises_b, rate_bps, rounds)
            for customer, premises_a, premises_b, rate_bps in requests
        ]

    def _place(
        self,
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        rounds: Dict[str, _PlanningRound],
    ) -> ShardOrder:
        order = ShardOrder(
            f"xo-{next(self._order_seq)}",
            customer,
            premises_a,
            premises_b,
            rate_bps,
            requested_at=self.sim.now,
        )
        self.orders[order.connection_id] = order
        try:
            self.admission.admit(customer, premises_a, premises_b, rate_bps)
        except AdmissionError as exc:
            return self._block(order, exc, admitted=False)
        try:
            specs = self.planner.decompose(
                self._pop_of(premises_a), self._pop_of(premises_b)
            )
            plans = self._plan_segments(order, specs, rate_bps, rounds)
        except GriphonError as exc:
            return self._block(order, exc, admitted=True)
        try:
            self._claim(order, specs, plans)
        except GriphonError as exc:
            return self._block(order, exc, admitted=True)
        for child in order.children.values():
            child.transition(ConnectionState.SETTING_UP)
        order.transition(ConnectionState.SETTING_UP)
        Process(
            self.sim,
            self._setup_workflow(order),
            label=f"shard-setup:{order.order_id}",
        )
        return order

    def _block(
        self, order: ShardOrder, exc: Exception, admitted: bool
    ) -> ShardOrder:
        if admitted:
            self.admission.release(order.customer, order.rate_bps)
        order.transition(ConnectionState.BLOCKED)
        order.blocked_reason = str(exc)
        self._notify("blocked", order)
        return order

    def _plan_segments(
        self,
        order: ShardOrder,
        specs: List[SegmentSpec],
        rate_bps: float,
        rounds: Dict[str, _PlanningRound],
    ) -> List[RwaPlan]:
        requests = []
        for spec in specs:
            excluded_links, excluded_nodes = self._exclusions[spec.unit]
            requests.append(
                PlanRequest(
                    spec.source,
                    spec.destination,
                    rate_bps,
                    excluded_links=excluded_links,
                    excluded_nodes=excluded_nodes,
                )
            )
        items = [
            self._unit_controller[spec.unit].rwa.plan_batch(
                [request], round_ctx=rounds[spec.unit]
            )[0]
            for spec, request in zip(specs, requests)
        ]
        plans: List[RwaPlan] = []
        for spec, item in zip(specs, items):
            if not item.ok:
                raise item.error
            plans.append(item.plan)
            order.plan_record.append(
                {
                    "unit": spec.unit,
                    "path": list(item.plan.path),
                    "channels": [
                        segment.channel for segment in item.plan.segments
                    ],
                    "regens": list(item.plan.regen_sites),
                }
            )
        return plans


# -- scenario driver ----------------------------------------------------------

#: Tenant -> connection quota ("ghost" is never registered).
TENANTS = {"csp": 64, "t1": 1, "t2": 2, "t3": 3}

CORNERS = [
    (mode, backend)
    for mode in ("sharded", "monolithic")
    for backend in ("inprocess", "pool")
]


class Observed:
    """Everything the differential compares, plus pool-side witnesses."""

    def __init__(self, net, orders, events, messages):
        self.orders = orders
        self.outcome = outcome_fingerprint(orders)
        self.states = [
            (o.order_id, o.state.value, o.blocked_reason) for o in orders
        ]
        self.plants = net.plant_fingerprints()
        self.events = events
        self.usage = {t: net.admission.usage(t) for t in TENANTS}
        #: Per ``call_many`` fan-out: ``[(unit, synced?, n requests)]``.
        self.messages = messages
        self.mirror_ok = None

    def comparable(self):
        return (self.outcome, self.states, self.plants, self.events, self.usage)


def drive(cls, hierarchy, mode, backend, steps, **build):
    """Run ``steps`` on one deployment and observe it.

    Steps: ``("place", requests)``, ``("run",)``, ``("cut", a, b)``,
    ``("repair", a, b)``, ``("teardown", k)`` (the k-th UP order, if any).
    """
    events, messages, orders = [], [], []
    pool = ShardWorkerPool() if backend == "pool" else None
    if pool is not None:
        fan_out = pool.call_many

        def recording(calls):
            calls = list(calls)
            if calls and calls[0][1] == "round":
                messages.append(
                    [
                        (
                            recipe.unit,
                            payload["sync"] is not None,
                            len(payload["requests"]),
                        )
                        for recipe, _, payload in calls
                    ]
                )
            return fan_out(calls)

        pool.call_many = recording
    net = cls(hierarchy, mode=mode, backend=backend, seed=5, pool=pool, **build)
    with pool or net:
        for tenant, quota in TENANTS.items():
            net.register_customer(
                CustomerProfile(
                    tenant,
                    max_connections=quota,
                    max_total_rate_bps=10000 * GBPS,
                )
            )
        net.observers.append(
            lambda event, payload: events.append(
                (payload["connection"].order_id, event)
            )
        )
        for step in steps:
            if step[0] == "place":
                orders.extend(net.place_orders(step[1]))
            elif step[0] == "run":
                net.run()
            elif step[0] == "cut":
                net.cut_fiber(step[1], step[2])
            elif step[0] == "repair":
                net.repair_fiber(step[1], step[2])
            else:
                up = [o for o in orders if o.state is ConnectionState.UP]
                if up:
                    net.teardown_order(up[step[1] % len(up)])
        net.run()
        observed = Observed(net, orders, events, messages)
        for unit, report in net.audit_shards().items():
            assert report.ok, f"{mode}/{backend} {unit}: {report.violations}"
        if backend == "pool":
            net.sync_workers()
            observed.mirror_ok = {
                unit: fp["state"] == observed.plants[unit]
                for unit, fp in net.worker_fingerprints().items()
            }
    return observed


def check_all_corners(hierarchy, steps, **build):
    """Every corner of the new round equals its mode's per-order reference.

    (The twins themselves may part once equipment runs out — partitioned
    pools exhaust independently — which is not this test's subject.)
    Returns ``{(mode, backend): Observed}`` of the new implementation.
    """
    reference = {
        mode: drive(PerOrderNetwork, hierarchy, mode, "inprocess", steps, **build)
        for mode in ("sharded", "monolithic")
    }
    observed = {}
    for mode, backend in CORNERS:
        got = drive(ShardedNetwork, hierarchy, mode, backend, steps, **build)
        assert got.comparable() == reference[mode].comparable(), (mode, backend)
        if backend == "pool":
            assert got.mirror_ok and all(got.mirror_ok.values()), got.mirror_ok
        observed[mode, backend] = got
    return observed


def _hierarchy(regions=3, pops=6, seed=11):
    return build_hierarchy(
        seed=seed, regions=regions, pops_per_region=pops, with_premises=True
    )


def _dc(region, pop):
    return f"DC-R{region:02d}-P{pop:02d}"


# -- pinned scenarios ---------------------------------------------------------


class TestFlushAndRetry:
    """Quota freed by an earlier order's block must be seen mid-round."""

    def _check(self, steps, blocked_word, **build):
        observed = check_all_corners(_hierarchy(), steps, **build)
        for got in observed.values():
            first, second, third = got.orders[:3]
            # t2 holds two connections' quota: the second order blocks
            # (not at admission), which is what lets the third in.
            assert first.state is ConnectionState.UP
            assert second.state is ConnectionState.BLOCKED
            assert blocked_word in second.blocked_reason
            assert "t2" not in second.blocked_reason
            assert third.state is ConnectionState.UP
            assert got.events[0] == (second.order_id, "blocked")
        # The flush splits the round in two fan-outs; the second carries
        # no sync (same round, workers already contacted keep overlays).
        rounds = observed["monolithic", "pool"].messages
        assert [[m[1] for m in fan] for fan in rounds[:2]] == [[True], [False]]

    def test_earlier_order_blocks_at_claim(self):
        steps = [
            (
                "place",
                [
                    # P00/P01 are gateways, which the twin equips double.
                    ("t2", _dc(0, 2), _dc(0, 3), RATE),
                    ("t2", _dc(0, 2), _dc(0, 4), RATE),
                    ("t2", _dc(0, 4), _dc(0, 5), RATE),
                    ("csp", _dc(1, 2), _dc(1, 3), RATE),
                ],
            )
        ]
        self._check(steps, "transponder", transponders_10g=1)

    def test_earlier_order_blocks_at_plan(self):
        steps = [
            (
                "place",
                [
                    ("t2", _dc(0, 2), _dc(0, 3), RATE),
                    ("t2", _dc(0, 2), _dc(0, 3), RATE),
                    ("t2", _dc(0, 4), _dc(0, 5), RATE),
                    ("csp", _dc(1, 2), _dc(1, 3), RATE),
                ],
            )
        ]
        self._check(steps, "wavelength", grid_size=1, k_paths=1)


def test_unknown_premises_mid_round():
    steps = [
        (
            "place",
            [
                ("csp", _dc(0, 2), _dc(0, 3), RATE),
                # Blocks at plan (one channel, one route) ...
                ("csp", _dc(0, 2), _dc(0, 3), RATE),
                # ... and must say so before these are refused outright.
                ("csp", "DC-NOPE", _dc(0, 2), RATE),
                ("ghost", _dc(0, 1), _dc(0, 2), RATE),
                ("csp", _dc(0, 3), "XX-R00-P01", RATE),
                ("csp", _dc(2, 1), _dc(1, 4), RATE),
            ],
        )
    ]
    observed = check_all_corners(_hierarchy(), steps, grid_size=1, k_paths=1)
    for got in observed.values():
        assert [o.state.value for o in got.orders] == [
            "up", "blocked", "blocked", "blocked", "blocked", "up",
        ]
        assert "NOPE" in got.orders[2].blocked_reason
        assert got.events[:4] == [
            (f"xo-{index}", "blocked") for index in (1, 2, 3, 4)
        ]
        assert got.usage["csp"]["connections"] == 2


def test_blocked_segments_sibling_shadow_claims_stay():
    hierarchy = _hierarchy()
    planner_probe = ShardedNetwork(hierarchy).planner
    # Two cross-region orders over the same gateway pair from different
    # PoPs: with one channel and one route the second loses the express
    # segment, but its region segment planned first and stays claimed.
    pairs = {}
    for a in range(6):
        for b in range(6):
            specs = planner_probe.decompose(f"R00-P{a:02d}", f"R01-P{b:02d}")
            if len(specs) == 3:
                express = (specs[1].source, specs[1].destination)
                pairs.setdefault(express, []).append((a, b, specs[0]))
    (a1, b1, _), (a2, b2, shadow) = next(
        (one, two)
        for group in pairs.values()
        for one in group
        for two in group
        if one[0] != two[0] and one[1] != two[1]
    )
    steps = [
        (
            "place",
            [
                ("csp", _dc(0, a1), _dc(1, b1), RATE),
                ("csp", _dc(0, a2), _dc(1, b2), RATE),
                # Wants the very region segment order 2 shadow-claimed.
                ("csp", f"DC-{shadow.source}", f"DC-{shadow.destination}", RATE),
            ],
        )
    ]
    observed = check_all_corners(hierarchy, steps, grid_size=1, k_paths=1)
    for got in observed.values():
        first, second, third = got.orders
        assert first.state is ConnectionState.UP
        assert second.state is ConnectionState.BLOCKED
        assert [r["unit"] for r in second.plan_record] == ["R00"]
        assert third.state is ConnectionState.BLOCKED
        assert "wavelength" in third.blocked_reason


def test_deferred_delta_over_a_cut_link():
    hierarchy = _hierarchy()
    quiet = [
        ("csp", _dc(0, 1), _dc(1, 2), RATE),
        ("csp", _dc(1, 3), _dc(1, 4), RATE),
    ]
    first = drive(
        ShardedNetwork, hierarchy, "sharded", "inprocess",
        [("place", [("csp", _dc(2, 0), _dc(2, 5), RATE)])],
    )
    path = first.orders[0].plan_record[0]["path"]
    a, b = path[0], path[1]
    steps = [
        ("place", [("csp", _dc(2, 0), _dc(2, 5), RATE),
                   ("csp", _dc(2, 1), _dc(2, 4), RATE)]),
        ("run",),
        ("cut", a, b),
        ("run",),
        # R02 hears nothing for two rounds while its plant moves under
        # it: a teardown frees channels, some of them on the cut link.
        ("teardown", 0),
        ("place", quiet),
        ("run",),
        ("repair", a, b),
        ("place", quiet),
        ("run",),
        ("place", [("csp", _dc(2, 0), _dc(2, 5), RATE),
                   ("csp", _dc(2, 2), _dc(0, 3), RATE)]),
    ]
    observed = check_all_corners(hierarchy, steps)
    fans = observed["sharded", "pool"].messages
    touched = [{unit for unit, _, _ in fan} for fan in fans]
    assert "R02" in touched[0]
    assert "R02" not in touched[1] and "R02" not in touched[2]
    assert ("R02", True, 2) in fans[3]
    # Idle workers cost nothing: no fan-out reaches all four workers
    # until the closing sync_workers().
    assert all(len(fan) < 4 for fan in fans[:-1]) and len(fans[-1]) == 4


def test_monolithic_pool_sees_order_index_then_segment_order():
    hierarchy = _hierarchy()
    steps = [
        (
            "place",
            [
                ("csp", _dc(0, 1), _dc(1, 2), RATE),
                ("csp", _dc(1, 3), _dc(2, 4), RATE),
                ("csp", _dc(0, 2), _dc(0, 5), RATE),
            ],
        )
    ]
    observed = check_all_corners(hierarchy, steps)
    mono = observed["monolithic", "pool"]
    segments = sum(len(o.plan_record) for o in mono.orders)
    # One worker, one message, every segment of the round in it.
    assert mono.messages[0] == [("mono", True, segments)]
    assert [r["unit"] for o in mono.orders for r in o.plan_record][:3] == [
        "R00", EXPRESS, "R01",
    ]
    sharded = observed["sharded", "pool"].messages[0]
    assert sorted(n for _, _, n in sharded) == sorted(
        [2, 2, 2, 1]  # R00, express, R01, R02
    )


# -- generated rounds ---------------------------------------------------------

_order = st.tuples(
    st.sampled_from(["csp", "csp", "csp", "t1", "t2", "t3", "ghost"]),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 19),  # 0 -> unknown premises
)

_between = st.lists(
    st.one_of(
        st.tuples(st.just("run")),
        st.tuples(st.just("teardown"), st.integers(0, 7)),
        st.tuples(st.just("cut"), st.integers(0, 63)),
        st.tuples(st.just("repair"), st.integers(0, 63)),
    ),
    max_size=3,
)

_rounds = st.lists(
    st.tuples(st.lists(_order, min_size=1, max_size=12), _between),
    min_size=1,
    max_size=6,
)


def _concrete(hierarchy, rounds):
    """Bind drawn indices to this hierarchy's premises and fibers."""
    premises = sorted(
        p for info in hierarchy.regions.values() for p in info.premises
    )
    fibers = sorted(
        link.key
        for link in hierarchy.graph.links
        if not link.a.startswith("DC-") and not link.b.startswith("DC-")
    )
    cut: List = []
    steps = []
    for orders, between in rounds:
        steps.append(
            (
                "place",
                [
                    (
                        tenant,
                        premises[a % len(premises)] if wild else "DC-NOPE",
                        premises[b % len(premises)],
                        RATE,
                    )
                    for tenant, a, b, wild in orders
                ],
            )
        )
        for action in between:
            if action[0] == "cut":
                fiber = fibers[action[1] % len(fibers)]
                if fiber not in cut:
                    cut.append(fiber)
                    steps.append(("cut",) + fiber)
            elif action[0] == "repair":
                if cut:
                    steps.append(("repair",) + cut.pop(action[1] % len(cut)))
            else:
                steps.append(action)
    return steps


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    regions=st.integers(2, 4),
    pops=st.integers(4, 8),
    seed=st.integers(0, 50),
    grid_size=st.sampled_from([1, 2, 4, 80]),
    k_paths=st.sampled_from([1, 2, 4]),
    transponders=st.sampled_from([1, 2, 8]),
    rounds=_rounds,
)
def test_generated_rounds_match_per_order_placement(
    regions, pops, seed, grid_size, k_paths, transponders, rounds
):
    hierarchy = _hierarchy(regions, pops, seed)
    check_all_corners(
        hierarchy,
        _concrete(hierarchy, rounds),
        grid_size=grid_size,
        k_paths=k_paths,
        transponders_10g=transponders,
    )
