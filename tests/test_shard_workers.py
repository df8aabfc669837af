"""The persistent shard worker pool: RPC parity, lifecycle, recovery.

Every RPC a :class:`~repro.shard.workers.ShardWorkerPool` worker serves
is checked against a local twin built from the same
:class:`~repro.shard.workers.UnitRecipe` — same plans, same plant
fingerprints after a ``round`` message's sync — because the worker IS
just an RWA engine over the recipe's graph behind a pipe.  Lifecycle tests
pin the guarantees the resident layer depends on: context-manager close
reaps every process (no zombies), a failed spawn leaks no descriptor, a
killed worker surfaces as the typed
:class:`~repro.errors.WorkerCrashed`, and journal replay rebuilds a
crashed worker into byte-identical state.
"""

import dataclasses
import gc
import multiprocessing
import os
import random
import signal

import pytest

from repro.core.admission import CustomerProfile
from repro.core.inventory import InventoryDatabase
from repro.core.rwa import PlanRequest, RwaEngine
from repro.errors import ConfigurationError, WorkerCrashed
from repro.fingerprint import outcome_fingerprint, plant_fingerprint
from repro.optical.wavelength import WavelengthGrid
from repro.shard import workers as shard_workers
from repro.shard.network import _PlantMirror, build_sharded_network
from repro.shard.workers import ShardWorkerPool, UnitRecipe
from repro.topo.hierarchy import build_hierarchy
from repro.units import GBPS

_HIERARCHY = build_hierarchy(seed=3, regions=2, pops_per_region=5)
RECIPE = UnitRecipe("R00", _HIERARCHY.region_graph("R00"))
OTHER = UnitRecipe("R01", _HIERARCHY.region_graph("R01"))


class _Twin:
    """The parent-side copy of what a worker builds from ``RECIPE``."""

    def __init__(self):
        self.graph = RECIPE.graph
        self.inventory = InventoryDatabase(
            RECIPE.graph, WavelengthGrid(RECIPE.grid_size)
        )
        self.rwa = RwaEngine(self.inventory, k_paths=RECIPE.k_paths)


def _plan_shape(plan):
    return (
        tuple(plan.path),
        tuple(s.channel for s in plan.segments),
        tuple(plan.regen_sites),
    )


def _requests(unit, count=6, salt=0):
    """``count`` seeded 10G requests between distinct nodes of ``unit``."""
    nodes = sorted(node.name for node in unit.graph.nodes)
    rng = random.Random(f"3:{salt}")
    return [
        PlanRequest(*rng.sample(nodes, 2), 10 * GBPS) for _ in range(count)
    ]


def _round(number, requests=(), sync=None):
    """One placement round's message, as ``ShardedNetwork`` sends it."""
    payload = {"round": number, "sync": sync, "requests": list(requests)}
    return "round", payload


def _channels(unit, plan):
    """Every (DWDM link, channel) ``plan`` rides on ``unit``'s plant."""
    plant = unit.inventory.plant
    return [
        (plant.dwdm_link(u, v), segment.channel)
        for segment in plan.segments
        for u, v in segment.links
    ]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _land(unit, items):
    """Light every planned item on ``unit``, as the parent's claim would."""
    for seq, item in enumerate(items):
        if item.ok:
            for link, channel in _channels(unit, item.plan):
                link.occupy(channel, f"t-{seq}")


class TestRecipe:
    def test_recipe_is_the_pool_key(self):
        twin = UnitRecipe("R00", RECIPE.graph)
        # The same graph object: equal, so two callers share a worker.
        assert twin is not RECIPE and twin == RECIPE
        assert hash(twin) == hash(RECIPE)
        assert {RECIPE: "worker"}[twin] == "worker"
        # A fresh slice is an equal topology but another graph object.
        fresh = UnitRecipe("R00", _HIERARCHY.region_graph("R00"))
        assert fresh != RECIPE
        assert dataclasses.replace(RECIPE, k_paths=2) != RECIPE
        assert OTHER != RECIPE
        with ShardWorkerPool([RECIPE]) as pool:
            pool.ensure(twin)
            assert pool.size == 1
            pool.ensure(fresh)
            assert pool.size == 2

    def test_build_is_deterministic(self):
        """Two workers built from one recipe, and the parent-side twin,
        plan the same round identically."""
        requests = _requests(RECIPE)
        with ShardWorkerPool([RECIPE]) as one, ShardWorkerPool([RECIPE]) as two:
            shapes = [
                [
                    _plan_shape(i.plan)
                    for i in pool.call(RECIPE, *_round(1, requests))
                    if i.ok
                ]
                for pool in (one, two)
            ]
        local = [
            _plan_shape(i.plan)
            for i in _Twin().rwa.plan_batch(requests)
            if i.ok
        ]
        assert shapes[0] == shapes[1] == local and local


class TestWorkerRpcParity:
    def test_plan_commit_release_match_local_twin(self):
        local = _Twin()
        mirror = _PlantMirror(local.inventory.plant)
        requests = _requests(local)
        with ShardWorkerPool([RECIPE]) as pool:
            remote = pool.call(RECIPE, *_round(1, requests, mirror.delta()))
            mirror.acknowledged(1)
            items = local.rwa.plan_batch(requests)
            assert [i.ok for i in remote] == [i.ok for i in items]
            assert [
                _plan_shape(i.plan) for i in remote if i.ok
            ] == [_plan_shape(i.plan) for i in items if i.ok]
            # The parent claims the plans; the next round's sync carries
            # the delta and lands the worker on the same fingerprint...
            _land(local, items)
            delta = mirror.delta()
            assert delta["masks"]
            pool.call(RECIPE, *_round(2, sync=delta))
            mirror.acknowledged(2)
            fp = pool.call(RECIPE, "fingerprint")
            assert fp == {
                "unit": "R00",
                "state": plant_fingerprint(local.inventory.plant),
            }
            # ...and a delta that darkens one plan keeps them in lockstep.
            seq = next(i for i, item in enumerate(items) if item.ok)
            for link, channel in _channels(local, items[seq].plan):
                link.release(channel, f"t-{seq}")
            pool.call(RECIPE, *_round(3, sync=mirror.delta()))
            assert pool.call(RECIPE, "fingerprint")["state"] == (
                plant_fingerprint(local.inventory.plant)
            )

    def test_cut_and_repair_track_local_twin(self):
        local = _Twin()
        with ShardWorkerPool([RECIPE]) as pool:
            item = next(
                i for i in local.rwa.plan_batch(_requests(local)) if i.ok
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

    def test_unknown_op_is_typed_and_survivable(self):
        with ShardWorkerPool([RECIPE]) as pool:
            with pytest.raises(ConfigurationError, match="unknown"):
                pool.call(RECIPE, "frobnicate")
            # The error was a reply, not a crash: the worker still serves.
            assert pool.call(RECIPE, "ping") == "pong"

    @pytest.mark.parametrize("op", ["commit", "trial"])
    def test_retired_op_is_as_unknown_as_any_other(self, op):
        with ShardWorkerPool([RECIPE]) as pool:
            with pytest.raises(
                ConfigurationError, match=f"unknown shard-worker op '{op}'"
            ):
                pool.call(RECIPE, op, {"params": {}})
            assert pool.call(RECIPE, "ping") == "pong"

    def test_fan_out_drains_every_reply_before_raising(self):
        with ShardWorkerPool([RECIPE, OTHER]) as pool:
            with pytest.raises(ConfigurationError, match="unknown"):
                pool.call_many(
                    [(RECIPE, "frobnicate", None), (OTHER, "ping", None)]
                )
            # OTHER's "pong" was read, not left to answer the next RPC.
            assert "state" in pool.call(OTHER, "fingerprint")
            assert pool.call(OTHER, "ping") == "pong"
            assert pool.call_many(
                [(OTHER, "ping", None), (RECIPE, "ping", None)]
            ) == ["pong", "pong"]

    @pytest.mark.parametrize("recover", [False, True])
    def test_late_reply_never_answers_a_later_request(self, recover, monkeypatch):
        with ShardWorkerPool([RECIPE], recover=recover) as pool:
            stalled = pool.process_of(RECIPE)
            # One ping times out on a stopped worker (watchdog shortened
            # and recovery held off for just this call) ...
            os.kill(stalled.pid, signal.SIGSTOP)
            pool._recover = False
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(shard_workers, "_RPC_TIMEOUT_S", 0.2)
                    with pytest.raises(WorkerCrashed, match="no reply"):
                        pool.call(RECIPE, "ping")
            finally:
                pool._recover = recover
                os.kill(stalled.pid, signal.SIGCONT)
            # ... and the woken worker now writes its stale "pong".  The
            # next call must respawn (recover) or raise — never read it.
            if recover:
                assert "state" in pool.call(RECIPE, "fingerprint")
                assert pool.process_of(RECIPE) is not stalled
            else:
                with pytest.raises(WorkerCrashed):
                    pool.call(RECIPE, "fingerprint")
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

    def test_failed_spawn_leaks_no_descriptor_or_child(self):
        bad = dataclasses.replace(RECIPE, grid_size=0)  # unit cannot build
        # Earlier tests' raised errors keep dead workers' process handles
        # in traceback cycles; they are not this test's descriptors.
        gc.collect()
        before = _open_fds()
        # Kept, tracebacks and all: the frames must not be what closes
        # the pipe (a caller that logs the error holds them just so).
        raised = []
        for _ in range(3):
            with pytest.raises(WorkerCrashed, match="failed to build") as exc:
                ShardWorkerPool([bad])
            raised.append(exc)
        assert _open_fds() == before
        with ShardWorkerPool([RECIPE]) as pool:
            held = _open_fds()
            with pytest.raises(WorkerCrashed, match="grid size"):
                pool.ensure(bad)
            # The pool neither adopted the dead worker nor lost the good one.
            assert pool.recipes() == [RECIPE] and _open_fds() == held
            assert pool.call(RECIPE, "ping") == "pong"
        assert multiprocessing.active_children() == []


class _DeafProcess:
    """A stand-in worker process that survives ``terminate()``."""

    def __init__(self):
        self.calls = []
        self._alive = True

    def is_alive(self):
        return self._alive

    def terminate(self):
        self.calls.append("terminate")

    def join(self, timeout=None):
        # An unbounded join on a live process is the hang under test.
        assert timeout is not None or not self._alive, "join() would hang"
        self.calls.append("join")

    def kill(self):
        self.calls.append("kill")
        self._alive = False


class TestCrashRecovery:
    def test_respawn_kills_a_worker_that_ignores_sigterm(self):
        with ShardWorkerPool([RECIPE]) as pool:
            real = pool.process_of(RECIPE)
            deaf = pool._workers[RECIPE].process = _DeafProcess()
            try:
                pool.respawn(RECIPE)
            finally:
                real.kill()
                real.join()
            assert deaf.calls == ["terminate", "join", "kill", "join"]
            assert pool.call(RECIPE, "ping") == "pong"

    def _mutate(self, pool, local):
        """The same mutating history on a pool worker and its local twin:
        a round that plans, the claims synced by the next, then a cut."""
        mirror = _PlantMirror(local.inventory.plant)
        requests = _requests(local)
        items = local.rwa.plan_batch(requests)
        pool.call(RECIPE, *_round(1, requests, mirror.delta()))
        mirror.acknowledged(1)
        _land(local, items)
        pool.call(RECIPE, *_round(2, sync=mirror.delta()))
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
            local = _Twin()
            self._mutate(pool, local)
            self._mutate(control, _Twin())
            pool.process_of(RECIPE).kill()
            pool.process_of(RECIPE).join()
            pool.respawn(RECIPE)
            # The replayed worker matches the never-crashed control (and
            # the parent-side twin) on plant state...
            fingerprint = pool.call(RECIPE, "fingerprint")
            assert fingerprint == control.call(RECIPE, "fingerprint")
            assert fingerprint["state"] == plant_fingerprint(
                local.inventory.plant
            )
            # ...and plans the next round identically.
            message = _round(3, _requests(local, salt=1))
            replayed = pool.call(RECIPE, *message)
            expected = control.call(RECIPE, *message)
            assert [i.ok for i in replayed] == [i.ok for i in expected]
            assert [
                _plan_shape(i.plan) for i in replayed if i.ok
            ] == [_plan_shape(i.plan) for i in expected if i.ok]
            assert any(i.ok for i in expected)

    def test_auto_recover_is_transparent(self):
        with ShardWorkerPool([RECIPE], recover=True) as pool:
            local = _Twin()
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
        first, second, third = (_requests(RECIPE, 4, salt) for salt in range(3))
        keys = sorted(link.key for link in RECIPE.graph.links)
        a, b = keys[0]

        def sync(masks, cut=(), repair=()):
            return {"masks": masks, "cut": list(cut), "repair": list(repair)}

        history = [
            _round(1, first[:2], sync({keys[0]: 0b0101, keys[-1]: 0b0011})),
            _round(1, first[2:]),
            ("cut", {"a": a, "b": b}),
            _round(2, second, sync({keys[0]: 0b0001}, repair=[keys[0]])),
            _round(3, third[:2], sync({keys[-1]: 0, keys[0]: 0b1001})),
        ]
        # Same round again: the reply depends on round 3's overlay, so a
        # replay that lost the round number (and reset it) would differ.
        probes = [_round(3, third), _round(4, third, sync({}))]
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

    def test_torn_fan_out_advances_the_mirrors_that_answered(self):
        # Round 2's fan-out raises for the dead R00 worker, but R01's
        # worker did take the round's delta: round 1's cross-region
        # lightpath, lit on R01.  Released before the next round, that
        # channel is dark again on the parent, so only a mirror that
        # knows R01 lit it sends R01 the darkening.
        with ShardWorkerPool() as pool:
            net = self._network(pool)
            cross_region = net.place_orders(_ROUNDS[0])[1]
            net.run()
            assert "R01" in {r["unit"] for r in cross_region.plan_record}
            victim = self._victim(pool)
            self._kill_before_reply(pool, victim)
            with pytest.raises(WorkerCrashed):
                net.place_orders(_ROUNDS[1])
            net.teardown_order(cross_region)
            net.run()
            pool.respawn(victim)
            net.sync_workers()
            assert {
                unit: fp["state"]
                for unit, fp in net.worker_fingerprints().items()
            } == net.plant_fingerprints()
        assert multiprocessing.active_children() == []
