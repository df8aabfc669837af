"""The persistent shard worker pool: RPC parity, lifecycle, recovery.

Every RPC a :class:`~repro.shard.workers.ShardWorkerPool` worker serves
is checked against a local twin built from the same
:class:`~repro.shard.workers.UnitRecipe` — same plans, same plant
fingerprints after commit/release — because the worker IS just the unit
rebuilt from its recipe behind a pipe.  Lifecycle tests pin the
guarantees the resident layer depends on: context-manager close reaps
every process (no zombies), a killed worker surfaces as the typed
:class:`~repro.errors.WorkerCrashed`, and journal replay rebuilds a
crashed worker into byte-identical state.  The sweep-executor tests pin
the warm-worker determinism gate: pooled trials match per-trial
rebuilds on the simulation-determined projection while the route cache
reports the extra hits that are the whole point.
"""

import multiprocessing
import os
import signal

import pytest

from repro.core.admission import CustomerProfile
from repro.errors import ConfigurationError, WorkerCrashed
from repro.shard.network import build_sharded_network, outcome_fingerprint
from repro.shard.bench import (
    bench_workload,
    plan_projection,
    shard_plan_spec,
)
from repro.shard.workers import (
    ShardWorkerPool,
    UnitRecipe,
    plant_fingerprint,
    recipe_for_trial,
)
from repro.sweep.engine import run_sweep
from repro.topo.hierarchy import build_hierarchy
from repro.units import GBPS

RECIPE = UnitRecipe(
    unit="R00", topology_seed=3, regions=2, pops_per_region=5
)
OTHER = UnitRecipe(
    unit="R01", topology_seed=3, regions=2, pops_per_region=5
)


def _plan_shape(plan):
    return (
        tuple(plan.path),
        tuple(s.channel for s in plan.segments),
        tuple(plan.regen_sites),
    )


def _requests(unit, count=6):
    (requests,) = bench_workload(unit, RECIPE.topology_seed, 1, count)
    return requests


class TestRecipe:
    def test_recipe_is_the_pool_key(self):
        params = {
            "topology_seed": 3, "regions": 2, "pops_per_region": 5,
            "unit": "R00", "rounds": 4, "orders_per_round": 16,
        }
        light = dict(params, rounds=1, orders_per_round=2)
        # Workload knobs don't enter the key: both trials share a worker.
        assert recipe_for_trial(params) == recipe_for_trial(light)
        assert hash(recipe_for_trial(params)) == hash(recipe_for_trial(light))
        assert recipe_for_trial(dict(params, topology_seed=4)) != (
            recipe_for_trial(params)
        )

    def test_build_is_deterministic(self):
        first, second = RECIPE.build(), RECIPE.build()
        requests = _requests(first)
        shapes = [
            [_plan_shape(i.plan) for i in u.plan_batch(requests) if i.ok]
            for u in (first, second)
        ]
        assert shapes[0] == shapes[1] and shapes[0]


class TestWorkerRpcParity:
    def test_plan_commit_release_match_local_twin(self):
        local = RECIPE.build()
        requests = _requests(local)
        with ShardWorkerPool([RECIPE]) as pool:
            remote = pool.call(
                RECIPE, "plan_batch", {"requests": requests, "round": False}
            )
            items = local.plan_batch(requests)
            assert [i.ok for i in remote] == [i.ok for i in items]
            assert [
                _plan_shape(i.plan) for i in remote if i.ok
            ] == [_plan_shape(i.plan) for i in items if i.ok]
            # Committing the same plans lands both plants on the same
            # structural fingerprint...
            for seq, item in enumerate(items):
                if item.ok:
                    local.occupy_plan(item.plan, f"t-{seq}")
                    pool.call(
                        RECIPE,
                        "commit",
                        {"plan": item.plan, "owner": f"t-{seq}"},
                    )
            fp = pool.call(RECIPE, "fingerprint")
            assert fp["state"] == plant_fingerprint(local.inventory.plant)
            assert fp["committed"] == sum(1 for i in items if i.ok)
            # ...and releasing one keeps them in lockstep.
            seq = next(i for i, item in enumerate(items) if item.ok)
            local.release_plan(items[seq].plan, f"t-{seq}")
            pool.call(
                RECIPE,
                "release",
                {"plan": items[seq].plan, "owner": f"t-{seq}"},
            )
            assert pool.call(RECIPE, "fingerprint")["state"] == (
                plant_fingerprint(local.inventory.plant)
            )

    def test_cut_and_repair_track_local_twin(self):
        local = RECIPE.build()
        with ShardWorkerPool([RECIPE]) as pool:
            item = next(
                i for i in local.plan_batch(_requests(local)) if i.ok
            )
            a, b = item.plan.path[0], item.plan.path[1]
            displaced = pool.call(RECIPE, "cut", {"a": a, "b": b})
            assert displaced == sorted(
                local.inventory.plant.cut_link(a, b)
            )
            assert pool.call(RECIPE, "fingerprint")["state"] == (
                plant_fingerprint(local.inventory.plant)
            )
            pool.call(RECIPE, "repair", {"a": a, "b": b})
            local.inventory.plant.repair_link(a, b)
            assert pool.call(RECIPE, "fingerprint")["state"] == (
                plant_fingerprint(local.inventory.plant)
            )

    def test_counters_and_reset(self):
        with ShardWorkerPool([RECIPE]) as pool:
            local = RECIPE.build()
            requests = _requests(local)
            pool.call(
                RECIPE, "plan_batch", {"requests": requests, "round": False}
            )
            counters = pool.call(RECIPE, "counters")
            assert counters["misses"] > 0
            pool.call(RECIPE, "reset")
            # Reset restores pristine occupancy but keeps the cache warm.
            assert pool.call(RECIPE, "fingerprint")["state"] == (
                plant_fingerprint(RECIPE.build().inventory.plant)
            )
            pool.call(
                RECIPE, "plan_batch", {"requests": requests, "round": False}
            )
            assert pool.call(RECIPE, "counters")["hits"] > counters["hits"]

    def test_unknown_op_is_typed_and_survivable(self):
        with ShardWorkerPool([RECIPE]) as pool:
            with pytest.raises(ConfigurationError, match="unknown"):
                pool.call(RECIPE, "frobnicate")
            # The error was a reply, not a crash: the worker still serves.
            assert pool.call(RECIPE, "ping") == "pong"

    def test_fan_out_drains_every_reply_before_raising(self):
        with ShardWorkerPool([RECIPE, OTHER]) as pool:
            with pytest.raises(ConfigurationError, match="unknown"):
                pool.call_many(
                    [(RECIPE, "frobnicate", None), (OTHER, "ping", None)]
                )
            # OTHER's "pong" was read, not left to answer the next RPC.
            assert "misses" in pool.call(OTHER, "counters")
            assert pool.call(OTHER, "ping") == "pong"
            assert pool.call_many(
                [(OTHER, "ping", None), (RECIPE, "ping", None)]
            ) == ["pong", "pong"]

    @pytest.mark.parametrize("recover", [False, True])
    def test_late_reply_never_answers_a_later_request(self, recover):
        with ShardWorkerPool([RECIPE], recover=recover) as pool:
            stalled = pool.process_of(RECIPE)
            # One ping times out on a stopped worker (watchdog shortened
            # and recovery held off for just this call) ...
            os.kill(stalled.pid, signal.SIGSTOP)
            pool._rpc_timeout_s, pool._recover = 0.2, False
            try:
                with pytest.raises(WorkerCrashed, match="no reply"):
                    pool.call(RECIPE, "ping")
            finally:
                pool._rpc_timeout_s, pool._recover = 600.0, recover
                os.kill(stalled.pid, signal.SIGCONT)
            # ... and the woken worker now writes its stale "pong".  The
            # next call must respawn (recover) or raise — never read it.
            if recover:
                assert "misses" in pool.call(RECIPE, "counters")
                assert pool.process_of(RECIPE) is not stalled
            else:
                with pytest.raises(WorkerCrashed):
                    pool.call(RECIPE, "counters")
        assert not stalled.is_alive()


class TestLifecycle:
    def test_context_manager_leaves_no_zombies(self):
        with ShardWorkerPool([RECIPE]) as pool:
            process = pool.process_of(RECIPE)
            assert process.is_alive()
            assert pool.call(RECIPE, "ping") == "pong"
        assert not process.is_alive()
        assert process.exitcode == 0
        pool.close()  # idempotent

    def test_ensure_dedupes_by_recipe(self):
        with ShardWorkerPool() as pool:
            pool.ensure(RECIPE)
            process = pool.process_of(RECIPE)
            pool.ensure(RECIPE)
            assert pool.size == 1
            assert pool.process_of(RECIPE) is process

    def test_closed_pool_rejects_work(self):
        pool = ShardWorkerPool([RECIPE])
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.call(RECIPE, "ping")


class TestCrashRecovery:
    def _mutate(self, pool, local):
        """The same mutating history on a pool worker and its local twin."""
        items = local.plan_batch(_requests(local))
        for seq, item in enumerate(items):
            if item.ok:
                local.occupy_plan(item.plan, f"t-{seq}")
                pool.call(
                    RECIPE, "commit", {"plan": item.plan, "owner": f"t-{seq}"}
                )
        item = next(i for i in items if i.ok)
        a, b = item.plan.path[0], item.plan.path[1]
        pool.call(RECIPE, "cut", {"a": a, "b": b})
        local.inventory.plant.cut_link(a, b)

    def test_crash_raises_typed_error(self):
        with ShardWorkerPool([RECIPE]) as pool:
            pool.process_of(RECIPE).kill()
            with pytest.raises(WorkerCrashed):
                pool.call(RECIPE, "ping")

    def test_rebuild_and_replay_restores_exact_state(self):
        with ShardWorkerPool([RECIPE]) as pool, ShardWorkerPool(
            [RECIPE]
        ) as control:
            self._mutate(pool, RECIPE.build())
            self._mutate(control, RECIPE.build())
            pool.process_of(RECIPE).kill()
            pool.process_of(RECIPE).join()
            pool.respawn(RECIPE)
            # The replayed worker matches the never-crashed control on
            # plant state AND committed-plan digest...
            assert pool.call(RECIPE, "fingerprint") == control.call(
                RECIPE, "fingerprint"
            )
            # ...and plans the next batch identically.
            requests = _requests(RECIPE.build())
            payload = {"requests": requests, "round": False}
            replayed = pool.call(RECIPE, "plan_batch", payload)
            expected = control.call(RECIPE, "plan_batch", payload)
            assert [i.ok for i in replayed] == [i.ok for i in expected]
            assert [
                _plan_shape(i.plan) for i in replayed if i.ok
            ] == [_plan_shape(i.plan) for i in expected if i.ok]

    def test_auto_recover_is_transparent(self):
        with ShardWorkerPool([RECIPE], recover=True) as pool:
            local = RECIPE.build()
            self._mutate(pool, local)
            pool.process_of(RECIPE).kill()
            # recover=True: the call respawns, replays, and answers.
            fp = pool.call(RECIPE, "fingerprint")
            assert fp["state"] == plant_fingerprint(local.inventory.plant)


    def _round_history(self):
        """Three placement rounds' worth of journaled ops on RECIPE.

        Round 1 is split in two messages (a mid-round flush: the second
        carries no sync and plans under the first's overlay), a fiber is
        cut eagerly, round 2's sync repairs it and moves occupancy, and
        round 3 moves occupancy again.
        """
        local = RECIPE.build()
        first, second, third = bench_workload(
            local, RECIPE.topology_seed, 3, 4
        )
        keys = sorted(link.key for link in local.inventory.graph.links)
        a, b = keys[0]

        def message(number, sync, requests):
            return ("round", {"round": number, "sync": sync, "requests": requests})

        def sync(masks, cut=(), repair=()):
            return {"masks": masks, "cut": list(cut), "repair": list(repair)}

        history = [
            message(1, sync({keys[0]: 0b0101, keys[-1]: 0b0011}), first[:2]),
            message(1, None, first[2:]),
            ("cut", {"a": a, "b": b}),
            message(2, sync({keys[0]: 0b0001}, repair=[keys[0]]), second),
            message(3, sync({keys[-1]: 0, keys[0]: 0b1001}), third[:2]),
        ]
        # Same round again: the reply depends on round 3's overlay, so a
        # replay that lost the round number (and reset it) would differ.
        probes = [message(3, None, third), message(4, sync({}), third)]
        return history, probes

    def test_round_op_replays_at_every_journal_index(self):
        history, probes = self._round_history()

        def finish(pool, ops):
            for op, payload in ops:
                pool.call(RECIPE, op, payload)
            fingerprint = pool.call(RECIPE, "fingerprint")
            plans = [
                [
                    _plan_shape(item.plan) if item.ok else str(item.error)
                    for item in pool.call(RECIPE, op, payload)
                ]
                for op, payload in probes
            ]
            return fingerprint, plans

        with ShardWorkerPool([RECIPE]) as control:
            expected = finish(control, history)
        assert any(isinstance(shape, tuple) for shape in expected[1][0])
        for index in range(len(history) + 1):
            with ShardWorkerPool([RECIPE]) as pool:
                for op, payload in history[:index]:
                    pool.call(RECIPE, op, payload)
                pool.process_of(RECIPE).kill()
                pool.process_of(RECIPE).join()
                pool.respawn(RECIPE)
                assert finish(pool, history[index:]) == expected, index


#: Four rounds over a 3-region network; R00 is planned on in rounds 1, 2
#: and 4, so round 2's message to it carries round 1's claims as a delta.
_ROUNDS = [
    [("csp", "DC-R00-P02", "DC-R00-P05", 10 * GBPS),
     ("csp", "DC-R00-P03", "DC-R01-P04", 10 * GBPS)],
    [("csp", "DC-R00-P04", "DC-R00-P02", 10 * GBPS),
     ("csp", "DC-R01-P02", "DC-R02-P03", 10 * GBPS)],
    [("csp", "DC-R02-P02", "DC-R02-P05", 10 * GBPS)],
    [("csp", "DC-R00-P05", "DC-R02-P04", 10 * GBPS)],
]


class TestRoundRecovery:
    """A worker lost around a placement round's message costs nothing."""

    @staticmethod
    def _network(pool):
        hierarchy = build_hierarchy(
            seed=11, regions=3, pops_per_region=6, with_premises=True
        )
        net = build_sharded_network(
            seed=11, hierarchy=hierarchy, backend="pool", pool=pool
        )
        net.register_customer(
            CustomerProfile(
                "csp", max_connections=64, max_total_rate_bps=10000 * GBPS
            )
        )
        return net

    def _run(self, pool, sabotage=None):
        """Place ``_ROUNDS``; ``sabotage(pool, round_index)`` runs before
        each round.  Returns what an interruption must not move."""
        net = self._network(pool)
        orders = []
        for index, requests in enumerate(_ROUNDS):
            if sabotage is not None:
                sabotage(pool, index)
            orders.extend(net.place_orders(requests))
            net.run()
        net.sync_workers()
        plants = net.plant_fingerprints()
        workers = {
            unit: fp["state"] for unit, fp in net.worker_fingerprints().items()
        }
        net.close()
        return outcome_fingerprint(orders), plants, workers

    def _uninterrupted(self):
        with ShardWorkerPool() as pool:
            outcome, plants, workers = self._run(pool)
        assert workers == plants
        return outcome, plants, workers

    @staticmethod
    def _victim(pool):
        return next(r for r in pool.recipes() if r.unit == "R00")

    @staticmethod
    def _kill_before_reply(pool, victim):
        """Arm ``pool`` to lose ``victim`` right after its next ``round``
        message is sent: stopped first, so it never reads the message."""
        send = pool._send

        def sabotaged(worker, op, payload):
            if worker.recipe == victim and op == "round":
                pool._send = send
                os.kill(worker.process.pid, signal.SIGSTOP)
                send(worker, op, payload)
                worker.process.kill()
                worker.process.join()
            else:
                send(worker, op, payload)

        pool._send = sabotaged

    def test_kill_between_rounds_is_recovered(self):
        def sabotage(pool, index):
            if index == 1:
                process = pool.process_of(self._victim(pool))
                process.kill()
                process.join()

        with ShardWorkerPool(recover=True) as pool:
            got = self._run(pool, sabotage)
        assert got == self._uninterrupted()
        assert multiprocessing.active_children() == []

    def test_kill_after_send_before_reply_is_recovered(self):
        def sabotage(pool, index):
            if index == 1:
                self._kill_before_reply(pool, self._victim(pool))

        with ShardWorkerPool(recover=True) as pool:
            got = self._run(pool, sabotage)
        assert got == self._uninterrupted()
        assert multiprocessing.active_children() == []

    def test_mirror_moves_only_on_acknowledgement(self):
        # No auto-recovery: the round's fan-out raises, and the delta
        # the dead worker never acknowledged must still be owed to it.
        with ShardWorkerPool() as pool:
            net = self._network(pool)
            net.place_orders(_ROUNDS[0])
            net.run()
            victim = self._victim(pool)
            self._kill_before_reply(pool, victim)
            with pytest.raises(WorkerCrashed):
                net.place_orders(_ROUNDS[1])
            pool.respawn(victim)
            net.sync_workers()
            plants = net.plant_fingerprints()
            assert {
                unit: fp["state"]
                for unit, fp in net.worker_fingerprints().items()
            } == plants
        assert multiprocessing.active_children() == []


class TestSweepExecutor:
    def test_pooled_sweep_matches_rebuild_and_warms_cache(self):
        spec = shard_plan_spec(
            topology_seed=11,
            regions=2,
            pops_per_region=6,
            rounds=2,
            orders_per_round=8,
        )
        single = run_sweep(spec, jobs=1)
        recipes = {recipe_for_trial(t.params) for t in spec.trials()}
        with ShardWorkerPool(recipes) as pool:
            cold = run_sweep(spec, executor=pool)
            warm = run_sweep(spec, executor=pool)
        reference = plan_projection(single)
        assert plan_projection(cold) == reference
        assert plan_projection(warm) == reference
        hits = lambda result: sum(  # noqa: E731
            t.values["route_cache_hits"] for t in result.results
        )
        # The warm pass is the point: route caches survive across trials.
        assert hits(warm) > hits(cold)
        assert warm.jobs == len(recipes)
