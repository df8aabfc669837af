"""The persistent shard worker pool: RPC parity, hosting, lifecycle, crashes.

Every RPC a :class:`~repro.shard.workers.ShardWorkerPool` unit serves
is checked against a local twin built from the same
:class:`~repro.shard.workers.UnitRecipe` — same plans, same plant
fingerprints after a ``round`` message's sync — because a unit IS just
an RWA engine over the recipe's graph behind a pipe.  Hosting tests pin
how units are dealt onto ``min(units, usable cores)`` processes — the
core count is patched, so no test depends on the host — and that a
fan-out costs one pipe write per touched process.  Lifecycle tests pin
the guarantees the resident layer depends on: context-manager close
reaps every process (no zombies), a failed spawn leaks no descriptor,
and a killed process surfaces as the typed
:class:`~repro.errors.WorkerCrashed` for every unit it hosts, for good:
a run it was planning for ends in that error and leaves no live child.
"""

import gc
import multiprocessing
import os
import pickle
import random
import signal
from multiprocessing.connection import Connection

import pytest

from repro.core.admission import CustomerProfile
from repro.core.inventory import InventoryDatabase
from repro.core.rwa import PlanRequest, RwaEngine
from repro.errors import (
    ConfigurationError,
    NoPathError,
    TopologyError,
    WavelengthBlockedError,
    WorkerCrashed,
)
from repro.fingerprint import plant_fingerprint
from repro.optical.wavelength import WavelengthGrid
from repro.pipeline.engine import TicketState
from repro.shard import workers as shard_workers
from repro.shard.intake import ShardIntake
from repro.shard.network import ShardedNetwork, _PlantMirror, build_sharded_network
from repro.shard.workers import (
    ShardWorkerPool,
    UnitRecipe,
    round_items,
    round_payload,
)
from repro.topo.graph import Link, NetworkGraph, Node
from repro.topo.hierarchy import EXPRESS, build_hierarchy
from repro.units import GBPS

_HIERARCHY = build_hierarchy(seed=3, regions=2, pops_per_region=5)
RECIPE = UnitRecipe("R00", _HIERARCHY.region_graph("R00"))
OTHER = UnitRecipe("R01", _HIERARCHY.region_graph("R01"))
EXPRESS_RECIPE = UnitRecipe(EXPRESS, _HIERARCHY.express_graph())


def _second_hierarchy():
    """``_HIERARCHY`` built again: equal slices, other graph objects."""
    return build_hierarchy(seed=3, regions=2, pops_per_region=5)


def _cores(monkeypatch, count):
    """Cap the pool at ``count`` processes, whatever the host has."""
    monkeypatch.setattr(shard_workers, "_usable_cores", lambda: count)


@pytest.fixture
def one_core(monkeypatch):
    _cores(monkeypatch, 1)


class _Twin:
    """The parent-side copy of what a unit builds from ``recipe``."""

    def __init__(self, recipe=RECIPE):
        self.graph = recipe.graph
        self.inventory = InventoryDatabase(
            recipe.graph, WavelengthGrid(recipe.grid_size)
        )
        self.rwa = RwaEngine(self.inventory, k_paths=recipe.k_paths)


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
    return "round", round_payload(number, sync, requests)


def _sync(mirror):
    """``mirror``'s delta, its links no longer pending: a fan-out that
    carries it returns."""
    delta = mirror.delta()
    mirror.pending.clear()
    return delta


def _planned(pool, recipe, number, requests=(), sync=None):
    """Send ``recipe`` one ``round`` message; its reply as plan items."""
    return round_items(requests, pool.call(recipe, *_round(number, requests, sync)))


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


def _hosted(pool):
    """The pool's processes, each with the recipes it hosts."""
    hosted = {}
    for recipe in pool.recipes():
        hosted.setdefault(pool.process_of(recipe), []).append(recipe)
    return list(hosted.values())


class TestRecipe:
    def test_recipe_is_the_pool_key(self):
        twin = UnitRecipe("R00", RECIPE.graph)
        # The same graph object: equal, so two callers share a unit.
        assert twin is not RECIPE and twin == RECIPE
        assert hash(twin) == hash(RECIPE)
        assert {RECIPE: "worker"}[twin] == "worker"
        # A second hierarchy's slice is an equal topology but another
        # graph object.
        fresh = UnitRecipe("R00", _second_hierarchy().region_graph("R00"))
        assert fresh != RECIPE
        assert RECIPE._replace(k_paths=2) != RECIPE
        assert OTHER != RECIPE
        with ShardWorkerPool([RECIPE]) as pool:
            pool.ensure(twin)
            assert pool.size == 1
            # A pool that has forked hosts no new recipe.
            with pytest.raises(ConfigurationError, match="has forked"):
                pool.ensure(fresh)
            with pytest.raises(ConfigurationError, match="hosts no unit"):
                pool.call(fresh, "ping")
            assert pool.recipes() == [RECIPE]

    def test_build_is_deterministic(self):
        """Two workers built from one recipe, and the parent-side twin,
        plan the same round identically."""
        requests = _requests(RECIPE)
        with ShardWorkerPool([RECIPE]) as one, ShardWorkerPool([RECIPE]) as two:
            shapes = [
                [
                    _plan_shape(i.plan)
                    for i in _planned(pool, RECIPE, 1, requests)
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


class TestHosting:
    """Units dealt onto processes: as many as the cores, never more."""

    @pytest.mark.parametrize(
        "cores, deal",
        [
            (1, [[RECIPE, OTHER, EXPRESS_RECIPE]]),
            (2, [[RECIPE, EXPRESS_RECIPE], [OTHER]]),
            (8, [[RECIPE], [OTHER], [EXPRESS_RECIPE]]),
        ],
    )
    def test_units_are_dealt_round_robin_up_to_the_core_count(
        self, cores, deal, monkeypatch
    ):
        _cores(monkeypatch, cores)
        with ShardWorkerPool([RECIPE, OTHER, EXPRESS_RECIPE]) as pool:
            assert _hosted(pool) == deal
            assert len(multiprocessing.active_children()) == len(deal)
            assert pool.size == 3
            assert pool.call_many(
                [(recipe, "ping", None) for recipe in pool.recipes()]
            ) == ["pong"] * 3
        assert multiprocessing.active_children() == []

    def test_one_pipe_write_per_touched_process_per_fan_out(self, monkeypatch):
        _cores(monkeypatch, 2)
        fresh = UnitRecipe("R00", _second_hierarchy().region_graph("R00"))
        recipes = [RECIPE, OTHER, EXPRESS_RECIPE, fresh]
        writes = []
        send = Connection.send

        def counted(conn, obj):
            writes.append(conn)
            return send(conn, obj)

        with ShardWorkerPool(recipes) as pool:
            assert _hosted(pool) == [[RECIPE, EXPRESS_RECIPE], [OTHER, fresh]]
            monkeypatch.setattr(Connection, "send", counted)
            # Every unit, one of them twice: one write to each process.
            replies = pool.call_many(
                [(r, *_round(1, _requests(r, 3))) for r in recipes]
                + [(OTHER, "ping", None)]
            )
            assert len(writes) == 2 and writes[0] is not writes[1]
            assert replies[-1] == "pong" and all(
                len(reply) == 3 for reply in replies[:-1]
            )
            # Two units of one process: one write.
            writes.clear()
            assert pool.call_many(
                [(EXPRESS_RECIPE, "ping", None), (RECIPE, "ping", None)]
            ) == ["pong", "pong"]
            assert len(writes) == 1
            writes.clear()
            pool.call(fresh, "ping")
            assert len(writes) == 1


def _chain():
    """A-B-C-D-E at 1,000 km a hop (A to E regenerates), E-Y at 3,000 km
    (beyond the 10G reach), X with no link at all; two channels."""
    graph = NetworkGraph()
    for name in "ABCDEXY":
        graph.add_node(Node(name))
    for a, b, km in (
        ("A", "B", 1000.0),
        ("B", "C", 1000.0),
        ("C", "D", 1000.0),
        ("D", "E", 1000.0),
        ("E", "Y", 3000.0),
    ):
        graph.add_link(Link(a, b, km))
    return UnitRecipe("chain", graph, grid_size=2)


class TestRoundReply:
    def test_reply_round_trip_rebuilds_the_units_own_plans(self):
        recipe = _chain()
        requests = [
            PlanRequest(a, b, 10 * GBPS)
            for a, b in (
                ("A", "E"), ("A", "E"), ("A", "E"), ("B", "C"),
                ("A", "A"), ("A", "X"), ("A", "NOPE"), ("D", "Y"),
            )
        ]
        expected = shard_workers._WorkerState(recipe).rwa.plan_batch(requests)
        reply = shard_workers._WorkerState(recipe).dispatch(
            "round", round_payload(1, None, requests)
        )
        rebuilt = round_items(requests, pickle.loads(pickle.dumps(reply)))
        assert all(got.request is sent for got, sent in zip(rebuilt, requests))
        assert len(rebuilt) == len(expected)
        for got, want in zip(rebuilt, expected):
            # Path, segment nodes and channels, regen sites and rate.
            assert got.plan == want.plan
            assert (type(got.error), str(got.error), got.contended) == (
                type(want.error), str(want.error), want.contended
            )
        plans = [item.plan for item in expected if item.ok]
        assert [[s.nodes for s in plan.segments] for plan in plans] == [
            [["A", "B", "C"], ["C", "D", "E"]]
        ] * 2
        assert [plan.regen_sites for plan in plans] == [["C"], ["C"]]
        assert [
            (type(item.error), item.contended) for item in expected if not item.ok
        ] == [
            (WavelengthBlockedError, True),
            (WavelengthBlockedError, True),
            (ConfigurationError, False),
            (NoPathError, False),
            (TopologyError, False),
            (WavelengthBlockedError, False),
        ]


class TestWorkerRpcParity:
    def test_plan_commit_release_match_local_twin(self):
        local = _Twin()
        mirror = _PlantMirror(local.inventory.plant)
        requests = _requests(local)
        with ShardWorkerPool([RECIPE]) as pool:
            remote = _planned(pool, RECIPE, 1, requests, _sync(mirror))
            items = local.rwa.plan_batch(requests)
            assert [i.ok for i in remote] == [i.ok for i in items]
            assert [
                _plan_shape(i.plan) for i in remote if i.ok
            ] == [_plan_shape(i.plan) for i in items if i.ok]
            # The parent claims the plans; the next round's sync carries
            # their masks and lands the worker on the same fingerprint...
            _land(local, items)
            delta = _sync(mirror)
            assert delta["masks"]
            pool.call(RECIPE, *_round(2, sync=delta))
            fp = pool.call(RECIPE, "fingerprint")
            assert fp == {
                "unit": "R00",
                "state": plant_fingerprint(local.inventory.plant),
            }
            # ...and a sync that darkens one plan keeps them in lockstep.
            seq = next(i for i, item in enumerate(items) if item.ok)
            for link, channel in _channels(local, items[seq].plan):
                link.release(channel, f"t-{seq}")
            pool.call(RECIPE, *_round(3, sync=_sync(mirror)))
            assert pool.call(RECIPE, "fingerprint")["state"] == (
                plant_fingerprint(local.inventory.plant)
            )

    def test_cut_and_repair_track_local_twin(self):
        """Cuts and repairs reach a unit as the sync's set of failed
        links, also on a link the same sync lights."""
        local = _Twin()
        plant = local.inventory.plant
        mirror = _PlantMirror(plant)
        items = local.rwa.plan_batch(_requests(local))
        item = next(i for i in items if i.ok)
        a, b = item.plan.path[0], item.plan.path[1]
        other = next(
            link.key for link in RECIPE.graph.links
            if link.key != plant.dwdm_link(a, b).link.key
        )
        with ShardWorkerPool([RECIPE]) as pool:

            def step(number):
                sync = _sync(mirror)
                pool.call(RECIPE, *_round(number, sync=sync))
                assert pool.call(RECIPE, "fingerprint")["state"] == (
                    plant_fingerprint(plant)
                )
                return sync

            cut = sorted([other, plant.dwdm_link(a, b).link.key])
            plant.cut_link(a, b)
            plant.cut_link(*other)
            assert step(1)["failed"] == cut
            # Repaired, lit and cut again between two rounds: the worker,
            # whose copy stayed cut, lights the channels under a lifted
            # failure flag.
            plant.repair_link(a, b)
            _land(local, items)
            assert plant.cut_link(a, b)
            assert step(2)["failed"] == cut
            plant.repair_link(a, b)
            plant.repair_link(*other)
            assert step(3)["failed"] == []

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

    def test_fan_out_drains_every_reply_before_raising(self, monkeypatch):
        # Co-hosted (one core) and on separate processes (two cores).
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            with ShardWorkerPool([RECIPE, OTHER]) as pool:
                assert len(_hosted(pool)) == cores
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

    def test_late_reply_never_answers_a_later_request(self, monkeypatch):
        with ShardWorkerPool([RECIPE]) as pool:
            stalled = pool.process_of(RECIPE)
            # One ping times out on a stopped worker (watchdog shortened
            # for just this call) ...
            os.kill(stalled.pid, signal.SIGSTOP)
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(shard_workers, "_RPC_TIMEOUT_S", 0.2)
                    with pytest.raises(WorkerCrashed, match="no reply"):
                        pool.call(RECIPE, "ping")
            finally:
                os.kill(stalled.pid, signal.SIGCONT)
            # ... and the woken worker now writes its stale "pong".  The
            # next call must raise, never read it.
            with pytest.raises(WorkerCrashed):
                pool.call(RECIPE, "fingerprint")
        assert not stalled.is_alive()


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
            pool.ensure(RECIPE, RECIPE)
            assert pool.size == 1
            assert pool.process_of(RECIPE) is process

    def test_closed_pool_rejects_work(self):
        pool = ShardWorkerPool([RECIPE])
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.call(RECIPE, "ping")

    def test_failed_spawn_leaks_no_descriptor_or_child(self, monkeypatch):
        _cores(monkeypatch, 2)
        bad = RECIPE._replace(grid_size=0)  # unit cannot build
        # Earlier tests' raised errors keep dead workers' process handles
        # in traceback cycles; they are not this test's descriptors.
        gc.collect()
        before = _open_fds()
        # Kept, tracebacks and all: the frames must not be what closes
        # the pipe (a caller that logs the error holds them just so).
        # With [OTHER, bad] the process that did come up is reaped too.
        raised = []
        for recipes in ([bad], [bad], [OTHER, bad]):
            with pytest.raises(WorkerCrashed, match="failed to build") as exc:
                ShardWorkerPool(recipes)
            raised.append(exc)
        assert _open_fds() == before
        assert multiprocessing.active_children() == []

    def test_close_kills_a_worker_that_ignores_sigterm(self):
        with ShardWorkerPool([RECIPE]) as pool:
            real = pool.process_of(RECIPE)
            deaf = pool._units[RECIPE].host.process = _DeafProcess()
            pool.close()
            # The real worker was sent the shutdown message and exits.
            real.join(10)
            assert not real.is_alive()
            assert deaf.calls == ["join", "terminate", "join", "kill", "join"]


class TestForkFirst:
    def test_a_failed_controller_build_leaves_no_live_child(self, monkeypatch):
        forked = []

        def broken(self, *args):
            # The workers are up before the first controller is built.
            forked.append(len(multiprocessing.active_children()))
            raise ConfigurationError("no controller today")

        monkeypatch.setattr(ShardedNetwork, "_build_controller", broken)
        with pytest.raises(ConfigurationError, match="no controller today"):
            build_sharded_network(
                seed=3, hierarchy=_second_hierarchy(), backend="pool"
            )
        assert forked and forked[0] > 0
        assert multiprocessing.active_children() == []


class TestCrashRecovery:
    """A killed process takes every unit it hosts, for good."""

    def test_crash_raises_typed_error(self, one_core):
        with ShardWorkerPool([RECIPE, OTHER]) as pool:
            assert _hosted(pool) == [[RECIPE, OTHER]]
            pool.process_of(RECIPE).kill()
            for recipe in (RECIPE, OTHER, RECIPE):
                with pytest.raises(WorkerCrashed):
                    pool.call(recipe, "ping")


_KEYS = sorted(link.key for link in RECIPE.graph.links)


class TestJournalFold:
    """A unit refuses a sync whole: its plant stays the last good sync's."""

    def test_a_refused_sync_changes_nothing(self):
        with ShardWorkerPool([RECIPE]) as pool:
            dark = pool.call(RECIPE, "fingerprint")
            pool.call(RECIPE, *_round(1, sync={"masks": {}, "failed": [_KEYS[3]]}))
            before = pool.call(RECIPE, "fingerprint")
            assert before != dark
            # The first mask fits and the second does not: neither lands,
            # _KEYS[2] is not cut, and _KEYS[3] is not repaired.
            with pytest.raises(ConfigurationError, match="does not fit"):
                pool.call(RECIPE, *_round(2, sync={
                    "masks": {_KEYS[0]: 0b1, _KEYS[1]: 1 << 80},
                    "failed": [_KEYS[2]],
                }))
            assert pool.call(RECIPE, "fingerprint") == before
            # Nor does anything when one failed link is unknown.
            with pytest.raises(TopologyError):
                pool.call(RECIPE, *_round(3, sync={
                    "masks": {_KEYS[0]: 0b1}, "failed": [("A", "B")],
                }))
            assert pool.call(RECIPE, "fingerprint") == before


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
    """A process lost around a placement round's message ends the run.

    Two processes host the network's four units — R00 with R02, R01 with
    the express tier — so the victim, R00, always takes a neighbour down
    with it, and R01 answers from the other process.
    """

    @pytest.fixture(autouse=True)
    def _two_processes(self, monkeypatch):
        _cores(monkeypatch, 2)

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

    @staticmethod
    def _victim(pool):
        recipes = pool.recipes()
        assert [r.unit for r in recipes] == ["R00", "R01", "R02", EXPRESS]
        victim = recipes[0]
        assert pool.process_of(victim) is pool.process_of(recipes[2])
        return victim

    @staticmethod
    def _kill_before_reply(pool, victim):
        """Arm ``pool`` to lose ``victim``'s process right after its next
        ``round`` message is sent: stopped first, so it never reads it."""
        send = pool._send

        def sabotaged(host, message):
            hosted = [unit.recipe for unit in host.units]
            if victim in hosted and message[0][1] == "round":
                pool._send = send
                os.kill(host.process.pid, signal.SIGSTOP)
                send(host, message)
                host.process.kill()
                host.process.join()
            else:
                send(host, message)

        pool._send = sabotaged

    def test_a_worker_killed_mid_run_ends_the_run_in_worker_crashed(self):
        # The network owns its pool, as every product run's does.
        net = self._network(None)
        intake = ShardIntake(net, round_size=2, round_interval=1.0)
        tickets = [
            intake.submit(*order) for requests in _ROUNDS for order in requests
        ]
        pool = net._live_pool()
        process = pool.process_of(self._victim(pool))

        def kill():
            process.kill()
            process.join()

        # Between the first round (t=0) and the second (t=1), which plans
        # on R00.
        net.sim.schedule(0.5, kill)
        with net:
            with pytest.raises(WorkerCrashed):
                net.run()
            assert net.sim.now == 1.0
            assert [t.state for t in tickets] == (
                [TicketState.ACCEPTED] * 2 + [TicketState.QUEUED] * 4
            )
        assert multiprocessing.active_children() == []

    def test_a_torn_fan_out_leaves_its_links_pending(self):
        # The round's fan-out raises, and no mirror it synced forgets the
        # links it carried: a worker that took the message is sent them
        # again by the next.
        with ShardWorkerPool() as pool:
            net = self._network(pool)
            net.place_orders(_ROUNDS[0])
            net.run()
            pending = {
                recipe.unit: set(mirror.pending)
                for recipe, mirror in net._mirrors.items()
            }
            assert pending["R00"] and pending["R01"]
            self._kill_before_reply(pool, self._victim(pool))
            with pytest.raises(WorkerCrashed):
                net.place_orders(_ROUNDS[1])
            assert {
                recipe.unit: mirror.pending
                for recipe, mirror in net._mirrors.items()
            } == pending
        assert multiprocessing.active_children() == []

    def test_cut_and_repair_need_no_live_worker(self):
        # The worker hosting R00 (and R02) is dead: a cut or repair of an
        # R00 fiber still acts on R00's controller and returns.  Both
        # wait in R00's next message, which raises.
        with ShardWorkerPool() as pool:
            net = self._network(pool)
            net.place_orders(_ROUNDS[0])
            net.run()
            victim = self._victim(pool)
            process = pool.process_of(victim)
            process.kill()
            process.join()
            before = net.plant_fingerprints()
            first, second = sorted(
                link.key for link in victim.graph.links
                if link.a.startswith("R00-") and link.b.startswith("R00-")
            )[:2]
            net.cut_fiber(*first)
            net.cut_fiber(*second)
            net.repair_fiber(*first)
            after = net.plant_fingerprints()
            assert after["R00"] != before["R00"]
            assert {k: v for k, v in after.items() if k != "R00"} == {
                k: v for k, v in before.items() if k != "R00"
            }
            assert net._mirrors[victim].delta()["failed"] == [second]
            with pytest.raises(WorkerCrashed):
                net.sync_workers()
        assert multiprocessing.active_children() == []
