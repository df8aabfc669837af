"""Differential test: shortest-first ``RwaEngine`` vs. full-list planning.

The engine fetches the ``k = 1`` route first and asks Yen for the
``k_paths`` list only when that route is down or cannot be assigned.
``ReferenceEngine._plan`` is the body ``RwaEngine._plan`` shipped before
that (bf0f4b9), kept here verbatim except that its candidates come
straight from ``graph.k_shortest_paths(..., k_paths)`` -- no round
memo.  Every golden and determinism gate in the repo was recorded
against it, so the engine must return equal plans, raise the same error
type *and* message, and leave the ``RandomStreams`` it draws channels
from in the same state.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.inventory import InventoryDatabase
from repro.core.rwa import PlanRequest, RwaEngine, RwaPlan
from repro.errors import (
    ConfigurationError,
    GriphonError,
    NoPathError,
    SignalError,
    WavelengthBlockedError,
)
from repro.optical.wavelength import WavelengthGrid
from repro.optical.impairments import ReachModel
from repro.sim.randomness import RandomStreams
from repro.topo.graph import Link, NetworkGraph, Node
from repro.topo.testbed import build_testbed_graph
from repro.units import gbps

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = [f"N{index:02d}" for index in range(9)]
RATE = gbps(10)
#: 1,600 km links exceed the reach (SignalError on that route); two
#: hops of 800 + 1,200 km need a regen, so plans have several segments
#: and a route can be blocked *after* an earlier segment drew a channel.
REACH = ReachModel({RATE: 1500.0})
LENGTHS_KM = (400.0, 800.0, 1200.0, 1600.0)
CHANNELS = 3


# -- the reference ------------------------------------------------------------


class ReferenceEngine(RwaEngine):
    """Plans from the full ``k_shortest_paths(k_paths)`` list."""

    def _plan(
        self,
        source,
        destination,
        rate_bps,
        excluded_links=(),
        excluded_nodes=(),
        avoid_srlgs_of=None,
        round_ctx=None,
    ):
        if source == destination:
            raise ConfigurationError("source and destination must differ")
        graph = self._inventory.graph
        banned_links = set(excluded_links)
        banned_nodes = set(excluded_nodes)
        if avoid_srlgs_of is not None:
            banned_links |= {
                link.key for link in graph.links_on_path(avoid_srlgs_of)
            }
            for srlg in graph.srlgs_on_path(avoid_srlgs_of):
                banned_links |= {link.key for link in graph.links_in_srlg(srlg)}
            banned_nodes |= set(avoid_srlgs_of[1:-1])
        candidates = graph.k_shortest_paths(
            source,
            destination,
            self._k_paths,
            excluded_links=banned_links,
            excluded_nodes=banned_nodes,
        )
        live_candidates = [
            path for path in candidates if self._path_is_up(path, round_ctx)
        ]
        if not live_candidates:
            raise NoPathError(
                f"all candidate routes {source} -> {destination} are failed"
            )
        failures = []
        for path in live_candidates:
            try:
                segments, regen_sites = self._assign(path, rate_bps, round_ctx)
            except (WavelengthBlockedError, SignalError) as exc:
                failures.append(str(exc))
                continue
            return RwaPlan(path, segments, regen_sites, rate_bps)
        raise WavelengthBlockedError(
            f"no wavelength assignment on any of {len(live_candidates)} routes "
            f"{source} -> {destination}: " + "; ".join(failures)
        )


# -- generated inputs ---------------------------------------------------------


def _request(rng, names, links):
    source, destination = rng.sample(names, 2)
    return PlanRequest(
        source,
        destination,
        RATE,
        excluded_links=tuple(key for key in links if rng.random() < 0.1),
        excluded_nodes=tuple(name for name in names if rng.random() < 0.1),
    )


@st.composite
def planning_cases(draw):
    """A plant (topology, cuts, occupancy), an engine config, requests."""
    rng = draw(st.randoms(use_true_random=True))
    count = draw(st.integers(min_value=3, max_value=len(NAMES)))
    density = draw(st.sampled_from((0.15, 0.3, 0.6)))
    cut_share = draw(st.sampled_from((0.0, 0.2, 0.4)))
    busy_share = draw(st.sampled_from((0.2, 0.5, 0.8)))
    names = NAMES[:count]
    rng.shuffle(names)
    graph = NetworkGraph()
    for name in names:
        graph.add_node(Node(name))
    for a, b in itertools.combinations(names, 2):
        if rng.random() < density:
            srlgs = frozenset(
                srlg for srlg in ("conduit-0", "conduit-1") if rng.random() < 0.2
            )
            graph.add_link(Link(a, b, rng.choice(LENGTHS_KM), srlgs))
    inventory = InventoryDatabase(graph, WavelengthGrid(CHANNELS))
    links = [link.key for link in graph.links]
    for a, b in links:
        for channel in range(CHANNELS):
            if rng.random() < busy_share:
                inventory.plant.dwdm_link(a, b).occupy(channel, "busy")
        if rng.random() < cut_share:
            inventory.plant.cut_link(a, b)
    # Few distinct requests, repeated: memoized routes and, in a batch,
    # rounds where later requests lose their channel to earlier ones.
    distinct = [_request(rng, names, links) for _ in range(3)]
    return {
        "inventory": inventory,
        "links": links,
        "rng": rng,
        "requests": [rng.choice(distinct) for _ in range(6)],
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "engine": {
            # Uniform: integers() favours 1, which can never escalate.
            "k_paths": draw(st.sampled_from((1, 2, 3, 4, 5))),
            "assignment": draw(st.sampled_from(("first-fit", "random"))),
        },
    }


def pinned_case():
    """One round with every situation the properties exist for.

    A-B is full, so A -> B escalates to A-C-B, whose three channels go
    to the first three requests: the fourth loses to the round overlay
    alone (contended).  C -> E runs 2,000 km and regenerates at D.

    Generated cases cannot promise these: Hypothesis also draws from the
    constants of the local modules already imported, so which examples
    a derandomized run generates depends on the test files run before.
    """
    graph = NetworkGraph()
    for name in "ABCDE":
        graph.add_node(Node(name))
    for a, b, km in (
        ("A", "B", 400.0),
        ("A", "C", 400.0),
        ("C", "B", 400.0),
        ("C", "D", 800.0),
        ("D", "E", 1200.0),
    ):
        graph.add_link(Link(a, b, km))
    inventory = InventoryDatabase(graph, WavelengthGrid(CHANNELS))
    for channel in range(CHANNELS):
        inventory.plant.dwdm_link("A", "B").occupy(channel, "busy")
    escalates, regenerates = PlanRequest("A", "B", RATE), PlanRequest("C", "E", RATE)
    return {
        "inventory": inventory,
        "links": [link.key for link in graph.links],
        "rng": random.Random(0),
        "requests": [escalates] * 4 + [regenerates] * 2,
        "seed": 0,
        "engine": {"k_paths": 2, "assignment": "first-fit"},
    }


def engines(case):
    """The engine and the reference over one plant, each with its own
    (equally seeded) random streams."""
    return [
        cls(
            case["inventory"],
            reach=REACH,
            streams=RandomStreams(case["seed"]),
            **case["engine"],
        )
        for cls in (RwaEngine, ReferenceEngine)
    ]


def outcome(call):
    """What a plan call did: its plan, or the error it raised."""
    try:
        return call()
    except GriphonError as exc:
        return type(exc), str(exc)


def stream_state(engine):
    return {
        name: stream.getstate()
        for name, stream in engine._streams._streams.items()
    }


def disturb(case):
    """Cut, repair or fill something, so routes fall over."""
    rng, plant = case["rng"], case["inventory"].plant
    if not case["links"]:
        return
    a, b = rng.choice(case["links"])
    link = plant.dwdm_link(a, b)
    roll = rng.random()
    if roll < 0.3:
        plant.repair_link(a, b) if link.failed else plant.cut_link(a, b)
    elif roll < 0.6 and not link.failed:
        free = sorted(link.free_channels())
        if free:
            link.occupy(rng.choice(free), "busy")


# -- the properties -----------------------------------------------------------


@SETTINGS
@given(planning_cases())
@example(pinned_case())
def test_plan_matches_full_list_planning(case):
    engine, reference = engines(case)
    graph = case["inventory"].graph
    for request in case["requests"]:
        avoid = None
        if case["rng"].random() < 0.3:
            try:
                avoid = graph.shortest_path(request.source, request.destination)
            except NoPathError:
                pass
        query = dict(
            excluded_links=request.excluded_links,
            excluded_nodes=request.excluded_nodes,
            avoid_srlgs_of=avoid,
        )
        args = (request.source, request.destination, request.rate_bps)
        assert outcome(lambda: engine.plan(*args, **query)) == outcome(
            lambda: reference.plan(*args, **query)
        )
        assert stream_state(engine) == stream_state(reference)
        disturb(case)


@SETTINGS
@given(planning_cases())
@example(pinned_case())
def test_plan_batch_matches_full_list_planning(case):
    engine, reference = engines(case)
    for _ in range(2):  # the second round starts from a reset memo
        ours = engine.plan_batch(case["requests"])
        theirs = reference.plan_batch(case["requests"])
        assert [
            (item.plan, type(item.error), str(item.error), item.contended)
            for item in ours
        ] == [
            (item.plan, type(item.error), str(item.error), item.contended)
            for item in theirs
        ]
        assert stream_state(engine) == stream_state(reference)
        disturb(case)


def test_generated_rounds_reach_the_contention_probe():
    """The batch property is only worth its name if its rounds carry
    contended items (the overlay-free re-plan), plans with more than one
    segment and plans that left the shortest route — in the pinned case
    whatever else the generator draws."""
    contended = regenerated = escalated = 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(planning_cases())
    @example(pinned_case())
    def count(case):
        nonlocal contended, regenerated, escalated
        engine, _ = engines(case)
        for item in engine.plan_batch(case["requests"]):
            contended += item.contended
            if item.ok:
                regenerated += len(item.plan.segments) > 1
                shortest = case["inventory"].graph.k_shortest_paths(
                    item.request.source,
                    item.request.destination,
                    1,
                    excluded_links=item.request.excluded_links,
                    excluded_nodes=item.request.excluded_nodes,
                )[0]
                escalated += item.plan.path != shortest

    count()
    assert contended and regenerated and escalated


# -- pinned cases -------------------------------------------------------------


class SearchCounter:
    """Counts the route searches an engine's graph is asked for."""

    def __init__(self, graph, monkeypatch):
        self.ksp = []
        self.bfs = 0
        ksp, bfs = graph.k_shortest_paths, graph._bfs_path

        def counted_ksp(source, target, k, **query):
            self.ksp.append(k)
            return ksp(source, target, k, **query)

        def counted_bfs(*args):
            self.bfs += 1
            return bfs(*args)

        monkeypatch.setattr(graph, "k_shortest_paths", counted_ksp)
        monkeypatch.setattr(graph, "_bfs_path", counted_bfs)


@pytest.fixture
def inventory():
    return InventoryDatabase(build_testbed_graph(), WavelengthGrid(4))


def routes(inventory):
    return inventory.graph.k_shortest_paths("ROADM-I", "ROADM-IV", 4)


def test_clean_plan_searches_one_route(inventory, monkeypatch):
    searches = SearchCounter(inventory.graph, monkeypatch)
    plan = RwaEngine(inventory).plan("ROADM-I", "ROADM-IV", RATE)
    assert plan.path == ["ROADM-I", "ROADM-IV"]
    assert searches.ksp == [1]
    assert searches.bfs == 1


def test_cut_shortest_route_takes_the_second(inventory, monkeypatch):
    first, second = routes(inventory)[:2]
    inventory.plant.cut_link(*first[:2])
    searches = SearchCounter(inventory.graph, monkeypatch)
    plan = RwaEngine(inventory).plan("ROADM-I", "ROADM-IV", RATE)
    assert plan.path == second
    assert searches.ksp == [1, 4]


def test_blocked_shortest_route_takes_the_second(inventory, monkeypatch):
    first, second = routes(inventory)[:2]
    link = inventory.plant.dwdm_link(*first[:2])
    for channel in range(4):
        link.occupy(channel, "busy")
    searches = SearchCounter(inventory.graph, monkeypatch)
    plan = RwaEngine(inventory).plan("ROADM-I", "ROADM-IV", RATE)
    assert plan.path == second
    assert searches.ksp == [1, 4]


def test_no_path_is_one_search(inventory, monkeypatch):
    engine = RwaEngine(inventory)
    blocked = [
        link.key for link in inventory.graph.links if "ROADM-I" in link.key
    ]
    searches = SearchCounter(inventory.graph, monkeypatch)
    with pytest.raises(NoPathError, match="no path from 'ROADM-I'"):
        engine.plan("ROADM-I", "ROADM-IV", RATE, excluded_links=blocked)
    assert searches.ksp == [1]
    assert searches.bfs == 1


def test_repeat_plan_is_one_more_bfs_and_no_yen(inventory, monkeypatch):
    engine = RwaEngine(inventory)
    searches = SearchCounter(inventory.graph, monkeypatch)
    first = engine.plan("ROADM-I", "ROADM-IV", RATE)
    assert engine.plan("ROADM-I", "ROADM-IV", RATE) == first
    assert searches.ksp == [1, 1]
    assert searches.bfs == 2


def test_repeat_request_in_a_round_does_no_search(inventory, monkeypatch):
    engine = RwaEngine(inventory)
    request = PlanRequest("ROADM-I", "ROADM-IV", RATE)
    searches = SearchCounter(inventory.graph, monkeypatch)
    first, second = engine.plan_batch([request, request])
    assert first.plan.path == second.plan.path == ["ROADM-I", "ROADM-IV"]
    assert first.plan.segments[0].channel != second.plan.segments[0].channel
    assert searches.ksp == [1]
    assert searches.bfs == 1
    # The memo is the round's: the next round searches again.
    engine.plan_batch([request])
    assert searches.ksp == [1, 1]


def test_k_paths_one_makes_one_route_request(inventory, monkeypatch):
    first = routes(inventory)[0]
    inventory.plant.cut_link(*first[:2])
    engine = RwaEngine(inventory, k_paths=1)
    searches = SearchCounter(inventory.graph, monkeypatch)
    with pytest.raises(NoPathError, match="all candidate routes"):
        engine.plan("ROADM-I", "ROADM-IV", RATE)
    assert searches.ksp == [1]


def test_blocked_everywhere_reports_every_route(inventory):
    """The escalated error still names all k_paths routes, route 0 once."""
    for link in inventory.graph.links:
        dwdm = inventory.plant.dwdm_link(link.a, link.b)
        for channel in range(4):
            dwdm.occupy(channel, "busy")
    engine, reference = (
        cls(inventory) for cls in (RwaEngine, ReferenceEngine)
    )
    with pytest.raises(WavelengthBlockedError) as ours:
        engine.plan("ROADM-I", "ROADM-IV", RATE)
    with pytest.raises(WavelengthBlockedError) as theirs:
        reference.plan("ROADM-I", "ROADM-IV", RATE)
    assert str(ours.value) == str(theirs.value)
    assert str(ours.value).count("segment ROADM-I - ROADM-IV;") == 1
