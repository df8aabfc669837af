"""Differential tests: OTN grooming routes and line picks vs. their
previous bodies.

``reference_switch_path`` is ``GroomingEngine.switch_path`` as it
shipped before the switch-only adjacency, kept here verbatim: the whole
graph's ``shortest_path`` with every node that hosts no OTN switch
excluded.  ``reference_lines_toward`` / ``reference_best_line_toward``
are ``OtnSwitch``'s list scans from before the per-neighbour line index.
Every grooming outcome in the goldens was recorded against them, so the
new code must pick the same path and the same line -- not merely an
equally short path or an equally full line.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.grooming import GroomingEngine
from repro.core.inventory import InventoryDatabase
from repro.errors import (
    CapacityExceededError,
    NoPathError,
    ResourceError,
    TopologyError,
)
from repro.facade import build_griphon_testbed
from repro.optical import WavelengthGrid
from repro.otn import OtnLine, OtnSwitch
from repro.topo.graph import Link, NetworkGraph, Node
from repro.units import ODU_LEVELS
from tests.test_topo_ksp_differential import search_cases

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- switch_path ----------------------------------------------------------------


def reference_switch_path(
    inventory, source, destination, excluded_links=(), excluded_nodes=()
):
    graph = inventory.graph
    sites = inventory.otn_switches.keys()
    switchless = tuple(
        node.name for node in graph.nodes if node.name not in sites
    )
    return graph.shortest_path(
        source,
        destination,
        excluded_links=excluded_links,
        excluded_nodes=switchless + tuple(excluded_nodes),
    )


@st.composite
def grooming_cases(draw):
    """A search case plus OTN switches at a random subset of its nodes,
    installed in a random order."""
    case = draw(search_cases())
    rng = draw(st.randoms(use_true_random=False))
    names = [node.name for node in case["graph"].nodes]
    sites = [name for name in names if rng.random() < 0.7]
    rng.shuffle(sites)
    inventory = InventoryDatabase(case["graph"], WavelengthGrid(4))
    for site in sites:
        inventory.install_otn_switch(site)
    case["inventory"] = inventory
    case["spare_site"] = next(
        (name for name in names if name not in inventory.otn_switches), None
    )
    return case


def outcome(call):
    try:
        return call()
    except (NoPathError, TopologyError) as exc:
        return type(exc), str(exc)


def assert_same_routes(case, engine, source=None):
    inventory = case["inventory"]
    source = case["source"] if source is None else source
    target = case["target"]
    for query in (
        {},
        {
            "excluded_links": tuple(case["excluded_links"]),
            "excluded_nodes": tuple(case["excluded_nodes"]),
        },
    ):
        new = outcome(lambda: engine.switch_path(source, target, **query))
        switched = inventory.otn_switches
        known = inventory.graph.has_node
        # An unknown endpoint is reported as before, too.
        if not (known(source) and known(target)) or (
            source in switched and target in switched
        ):
            assert new == outcome(
                lambda: reference_switch_path(inventory, source, target, **query)
            )
        else:
            missing = source if source not in switched else target
            assert new == (NoPathError, f"no OTN switch at {missing!r}")


@SETTINGS
@given(grooming_cases())
def test_switch_path_matches_the_whole_graph_search(case):
    engine = GroomingEngine(case["inventory"])
    assert_same_routes(case, engine)
    assert_same_routes(case, engine, source="ghost")


@SETTINGS
@given(grooming_cases())
def test_switch_path_follows_topology_and_switch_changes(case):
    """The adjacency is rebuilt when a link or a switch site is added,
    and reused (not rebuilt) while neither changes."""
    inventory = case["inventory"]
    graph = inventory.graph
    engine = GroomingEngine(inventory)
    assert_same_routes(case, engine)
    built = engine._switch_adjacency()
    assert_same_routes(case, engine)
    assert engine._switch_adjacency() is built

    if case["spare_site"] is not None:
        inventory.install_otn_switch(case["spare_site"])
        assert_same_routes(case, engine)
    names = [node.name for node in graph.nodes]
    missing = [
        (a, b)
        for index, a in enumerate(names)
        for b in names[index + 1:]
        if b not in graph.adjacent(a)
    ]
    if missing:
        graph.add_link(Link(*missing[len(missing) // 2]))
        assert_same_routes(case, engine)
    graph.add_node(Node("late"))
    inventory.install_otn_switch("late")
    assert_same_routes(case, engine)
    assert engine._switch_adjacency() is not built


def test_switchless_nodes_are_not_searched():
    """A search meets only switch sites: it never reads the neighbours
    of a node without a switch."""
    inventory = InventoryDatabase(_star(40), WavelengthGrid(4))
    for name in ("HUB", "S00", "S01"):
        inventory.install_otn_switch(name)
    engine = GroomingEngine(inventory)
    adjacency = engine._switch_adjacency()
    assert set(adjacency) == {"HUB", "S00", "S01"}
    assert [entry[0] for entry in adjacency["HUB"]] == ["S00", "S01"]
    assert engine.switch_path("S00", "S01") == ["S00", "HUB", "S01"]


def _star(leaves):
    graph = NetworkGraph()
    graph.add_node(Node("HUB"))
    for index in range(leaves):
        name = f"S{index:02d}"
        graph.add_node(Node(name))
        graph.add_link(Link("HUB", name))
    return graph


# -- the per-neighbour line index -------------------------------------------------


def reference_lines_toward(node, lines, neighbor):
    return [
        line
        for line in lines
        if neighbor in (line.a, line.b) and line.a != line.b
        and node in (line.a, line.b)
        and (line.a == neighbor or line.b == neighbor)
    ]


def reference_best_line_toward(node, lines, neighbor, slots_needed):
    candidates = [
        line
        for line in reference_lines_toward(node, lines, neighbor)
        if not line.failed and line.free_slot_count() >= slots_needed
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda line: (line.utilization(), line.line_id))


NEIGHBORS = ("A", "B", "C")
OPS = st.one_of(
    st.tuples(
        st.just("attach"),
        st.sampled_from(NEIGHBORS),
        st.sampled_from(("ODU2", "ODU3")),
        st.booleans(),
    ),
    st.tuples(st.just("allocate"), st.integers(0, 15), st.integers(1, 8)),
    st.tuples(st.just("release"), st.integers(0, 15)),
    st.tuples(st.just("fail"), st.integers(0, 15)),
    st.tuples(st.just("repair"), st.integers(0, 15)),
    st.tuples(st.just("detach"), st.integers(0, 15)),
)


@SETTINGS
@given(
    st.permutations(range(16)),
    st.lists(OPS, min_size=1, max_size=40),
)
def test_line_index_matches_the_list_scan(line_numbers, ops):
    """After every step of attach / allocate / release / fail / repair /
    detach, both queries answer as the scan over attached lines did."""
    switch = OtnSwitch("S")
    attached = []  # in attach order, as the switch's line map was
    made = []
    owners = iter(range(10**6))
    for op in ops:
        kind = op[0]
        if kind == "attach":
            if len(made) == len(line_numbers):
                continue
            _, far, level, far_first = op
            ends = (far, "S") if far_first else ("S", far)
            line = OtnLine(
                f"L{line_numbers[len(made)]:02d}", *ends,
                level=ODU_LEVELS[level],
            )
            made.append(line)
            switch.attach_line(line)
            attached.append(line)
        elif made:
            line = made[op[1] % len(made)]
            if kind == "allocate":
                try:
                    line.allocate(op[2], f"ckt-{next(owners)}")
                except (CapacityExceededError, ResourceError):
                    pass
            elif kind == "release" and line.owners():
                line.release_owner(min(line.owners()))
            elif kind == "fail":
                line.fail()
            elif kind == "repair":
                line.repair()
            elif kind == "detach" and line in attached:
                assert switch.detach_line(line.line_id) is line
                attached.remove(line)
        for neighbor in NEIGHBORS + ("Z",):
            assert switch.lines_toward(neighbor) == reference_lines_toward(
                "S", attached, neighbor
            )
            for slots in (1, 2, 5, 8):
                assert switch.best_line_toward(
                    neighbor, slots
                ) is reference_best_line_toward("S", attached, neighbor, slots)
        assert switch.lines == attached


# -- one route per order --------------------------------------------------------


def test_a_12g_order_routes_its_circuits_once():
    """Both ODU0 circuits of a 12G order ride the same working and backup
    paths, each in a list of its own, under consecutive ids."""
    net = build_griphon_testbed(seed=5, latency_cv=0.0)
    engine = net.controller.grooming
    svc = net.service_for("csp")
    conn = svc.request_connection("PREMISES-A", "PREMISES-C", 12)
    net.run()
    first, second = (net.inventory.circuits[i] for i in conn.circuit_ids)
    assert first.path == second.path == engine.switch_path(
        first.source, first.destination
    )
    assert first.backup_path == second.backup_path is not None
    lists = [first.path, second.path, first.backup_path, second.backup_path]
    assert len({id(path) for path in lists}) == 4
    numbers = [int(ckt.circuit_id.split("-")[1]) for ckt in (first, second)]
    assert numbers[1] == numbers[0] + 1


def test_a_sibling_between_other_endpoints_is_refused():
    net = build_griphon_testbed(seed=5, latency_cv=0.0)
    engine = net.controller.grooming
    sibling = engine.claim_circuit("ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"])
    with pytest.raises(ValueError):
        engine.claim_circuit(
            "ROADM-II", "ROADM-IV", ODU_LEVELS["ODU0"], like=sibling
        )
