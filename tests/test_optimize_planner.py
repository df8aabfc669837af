"""Unit tests: the re-optimization snapshot and planner.

The planner is a pure function of the snapshot, so everything here is
synchronous: fragment a small generated backbone, freeze it, plan, and
inspect the plan — no executor, no simulator events after the freeze.
"""

from repro.core.connection import ConnectionState
from repro.errors import GriphonError
from repro.optimize.planner import plan_migrations, slo_link_penalties
from repro.optimize.snapshot import NetworkSnapshot
from repro.optimize.bench import (
    build_optimize_network,
    fragment_network,
    place_orders,
)

SEED = 7
NODE_COUNT = 24
WARM_ORDERS = 60


def fragmented_network():
    net = build_optimize_network(SEED, node_count=NODE_COUNT)
    service = net.service_for(
        "planner-test", max_connections=4096, max_total_rate_gbps=1000000
    )
    warm = place_orders(net, service, WARM_ORDERS)
    fragment_network(net, service, warm, keep_every=3)
    return net, service


def test_snapshot_captures_only_migratable_demands():
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    up = [
        c
        for c in net.controller.connections.values()
        if c.state is ConnectionState.UP
        and len(c.lightpath_ids) == 1
        and not c.circuit_ids
    ]
    assert len(snapshot.demands) == len(up)
    # Demands carry the live assignment verbatim.
    for demand in snapshot.demands:
        connection = net.controller.connections[demand.connection_id]
        lightpath = net.inventory.lightpaths[connection.lightpath_ids[0]]
        assert demand.path == tuple(lightpath.path)
        assert demand.channels == tuple(lightpath.channels)
    # Occupancy is a copy, not a live view.
    key, mask = next(iter(snapshot.occupied.items()))
    snapshot.occupied[key] = mask | (1 << 79)
    assert (
        net.inventory.plant.occupancy_snapshot()[key] & (1 << 79)
    ) == 0


def test_snapshot_skips_locked_connections():
    net, _ = fragmented_network()
    baseline = NetworkSnapshot.from_controller(net.controller)
    # Lock the first connection a move can start on (the fragmented
    # network's end transponders are too scarce for most bridges).
    for demand in baseline.demands:
        try:
            net.controller.migrations.move(
                demand.connection_id, "someone-else"
            )
        except GriphonError:
            continue
        locked_id = demand.connection_id
        break
    snapshot = NetworkSnapshot.from_controller(net.controller)
    assert locked_id not in {d.connection_id for d in snapshot.demands}
    assert len(snapshot.demands) == len(baseline.demands) - 1


def test_plan_reduces_wavelengths_on_fragmented_network():
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    assert plan.moves, "fragmented scenario should yield moves"
    assert plan.wavelengths_after <= plan.wavelengths_before
    assert plan.objective_after < plan.objective_before
    # Plan indices are the execution order.
    assert [m.index for m in plan.moves] == list(range(len(plan.moves)))


def test_plan_is_deterministic_across_rebuilds():
    def build_plan():
        net, _ = fragmented_network()
        snapshot = NetworkSnapshot.from_controller(net.controller)
        return plan_migrations(snapshot)

    assert build_plan() == build_plan()


def test_new_channels_disjoint_from_all_occupied_slots():
    """Bridge-before-release: a move's target slots must be free while
    every pre-move assignment — including the mover's own — is lit."""
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    occupied = dict(snapshot.occupied)
    for move in plan.moves:
        segments, _ = snapshot.segment_route(move.new_path, move.rate_bps)
        for nodes, channel in zip(segments, move.new_channels):
            for u, v in zip(nodes, nodes[1:]):
                key = (u, v) if u <= v else (v, u)
                assert not occupied.get(key, 0) & (1 << channel), (
                    f"move {move.index} lights occupied slot "
                    f"{key}@{channel}"
                )
        # Advance the occupancy the way the executor will.
        for nodes, channel in zip(segments, move.new_channels):
            for u, v in zip(nodes, nodes[1:]):
                key = (u, v) if u <= v else (v, u)
                occupied[key] = occupied.get(key, 0) | (1 << channel)
        old_segments, _ = snapshot.segment_route(
            move.old_path, move.rate_bps
        )
        for nodes, channel in zip(old_segments, move.old_channels):
            for u, v in zip(nodes, nodes[1:]):
                key = (u, v) if u <= v else (v, u)
                occupied[key] = occupied.get(key, 0) & ~(1 << channel)


def test_depends_on_edges_are_exactly_the_slot_conflicts():
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    released = []
    for move in plan.moves:
        old_segments, _ = snapshot.segment_route(
            move.old_path, move.rate_bps
        )
        new_segments, _ = snapshot.segment_route(
            move.new_path, move.rate_bps
        )
        new_slots = {
            ((u, v) if u <= v else (v, u), ch)
            for nodes, ch in zip(new_segments, move.new_channels)
            for u, v in zip(nodes, nodes[1:])
        }
        expected = tuple(
            sorted(
                j
                for j, freed in enumerate(released)
                if freed & new_slots
            )
        )
        assert move.depends_on == expected, (
            f"move {move.index}: depends_on {move.depends_on} != "
            f"recomputed {expected}"
        )
        old_slots = {
            ((u, v) if u <= v else (v, u), ch)
            for nodes, ch in zip(old_segments, move.old_channels)
            for u, v in zip(nodes, nodes[1:])
        }
        released.append(old_slots - new_slots)


def test_channel_packing_never_buys_a_longer_route():
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    plan = plan_migrations(snapshot)
    for move in plan.moves:
        assert len(move.new_path) <= len(move.old_path), (
            f"move {move.index} lengthened the route "
            f"{move.old_path} -> {move.new_path}"
        )


def test_plan_respects_max_moves():
    net, _ = fragmented_network()
    snapshot = NetworkSnapshot.from_controller(net.controller)
    unbounded = plan_migrations(snapshot)
    assert len(unbounded.moves) > 1
    capped = plan_migrations(snapshot, max_moves=1)
    assert len(capped.moves) == 1
    assert capped.moves[0] == unbounded.moves[0]


def test_transponder_headroom_freezes_demands():
    # Two transponders per end: one in use per live connection leaves
    # exactly one spare, so a single connection per endpoint pair is
    # migratable — with zero spares nothing may move.
    net = build_optimize_network(SEED, node_count=NODE_COUNT)
    service = net.service_for(
        "frozen-test", max_connections=4096, max_total_rate_gbps=1000000
    )
    place_orders(net, service, 12)
    snapshot = NetworkSnapshot.from_controller(net.controller)
    # Artificially zero out every endpoint's transponder headroom.
    snapshot.free_transponders = {
        key: 0 for key in snapshot.free_transponders
    }
    plan = plan_migrations(snapshot)
    assert not plan.moves
    assert sorted(plan.frozen_demands) == sorted(
        d.connection_id for d in snapshot.demands
    )


def test_slo_penalties_raise_link_costs_in_snapshot():
    net, _ = fragmented_network()
    plain = NetworkSnapshot.from_controller(net.controller)
    assert all(cost == 1.0 for cost in plain.link_costs.values())
    key = next(iter(plain.link_costs))
    net.inventory.plant.dwdm_link(*key).set_degradation("test", 3.0)
    penalties = slo_link_penalties(net.controller)
    assert penalties == {key: 3.0}
    snapshot = NetworkSnapshot.from_controller(
        net.controller, link_penalties=penalties
    )
    assert snapshot.link_costs[key] == 4.0
    others = [k for k in snapshot.link_costs if k != key]
    assert all(snapshot.link_costs[k] == 1.0 for k in others)


def test_slo_engine_breaches_add_flat_penalty():
    class FakeEngine:
        def __init__(self, keys):
            self._keys = keys

        def impacted_link_keys(self):
            return set(self._keys)

    net, _ = fragmented_network()
    key = sorted(
        link.key for link in net.inventory.graph.links
    )[0]
    penalties = slo_link_penalties(
        net.controller, engine=FakeEngine([key]), breach_penalty=4.0
    )
    assert penalties[key] == 4.0
