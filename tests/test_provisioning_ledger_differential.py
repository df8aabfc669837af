"""Differential test: the holdings ledger vs. the scans it replaced.

``LightpathProvisioner.claim`` records every resource it takes in
``InventoryDatabase.holdings``; ``release`` walks that record and drops
it.  ``reference_release`` below is the body ``release`` shipped before
the ledger (717b6d9), kept step for step in today's element API (pools
and ROADMs hold an object only for a unit in use): it finds a
lightpath's resources by scanning the ports of every ROADM on the route,
every regenerator of a site and every segment of the route, and tries an
express disconnect at every interior node.
Over generated plants (topology, installed equipment, pre-occupied
channels / ports / transponders) and generated plans (several segments,
regen sites, ``reuse_ots`` hand-overs) the two must leave byte-equal
inventories, a failed claim must leave the plant it found and raise what
it raised before, and the auditor's ledger check must agree throughout.

Also here: ``FaultPlan.empty`` (now a live-rule counter) against its
definition, and that an empty plan never turns non-empty.  The process
timer's equivalence with ``schedule`` is in ``tests/test_sim_process.py``
and ``tests/test_property_kernel.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.inventory import HELD_EXPRESS, HELD_REGEN, InventoryDatabase
from repro.core.provisioning import LightpathProvisioner
from repro.core.rwa import RwaPlan
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.errors import (
    GriphonError,
    TransponderUnavailableError,
    WavelengthBlockedError,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.audit import audit_inventory
from repro.optical.wavelength import WavelengthGrid
from repro.optical.lightpath import Segment
from repro.sim.randomness import RandomStreams
from repro.topo.graph import Link, NetworkGraph, Node
from repro.units import gbps

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = [f"N{index}" for index in range(7)]
RATE = gbps(10)
CHANNELS = 4


# -- the reference ------------------------------------------------------------


def reference_release(inv, lightpath):
    """``LightpathProvisioner.release`` as of 717b6d9 (scan-based)."""
    owner = lightpath.lightpath_id
    # Channels.
    for segment in lightpath.segments:
        for u, v in zip(segment.nodes, segment.nodes[1:]):
            link = inv.plant.dwdm_link(u, v)
            if link.owner_of(segment.channel) == owner:
                link.release(segment.channel, owner)
    # ROADM cross-connects.
    for node in lightpath.path:
        roadm = inv.roadms.get(node)
        if roadm is None:
            continue
        for port in roadm.connected_ports():
            if port.owner == owner:
                roadm.disconnect_add_drop(port.port_id, owner)
    for segment in lightpath.segments:
        nodes = segment.nodes
        for i in range(1, len(nodes) - 1):
            roadm = inv.roadms.get(nodes[i])
            if roadm is None:
                continue
            try:
                roadm.disconnect_express(
                    nodes[i - 1], nodes[i + 1], segment.channel, owner
                )
            except GriphonError:
                pass  # already removed or was a regen hop
    # Transponders and regens.
    for ot_id in lightpath.ot_ids:
        node = ot_id.split(":")[1]
        pool = inv.transponders[node]
        ot = pool.get(ot_id)
        if ot.owner == owner:
            pool.release(ot.index, owner)
    for regen_id in lightpath.regen_ids:
        node = regen_id.split(":")[1]
        pool = inv.regens[node]
        for regen in pool.held():
            if regen.regen_id == regen_id and regen.owner == owner:
                pool.release(regen.index, owner)
    inv.forget_lightpath(lightpath.lightpath_id)


# -- generated inputs ---------------------------------------------------------


@st.composite
def plants(draw, spare=False):
    """A buildable plant description plus plans routed over it.

    ``spare`` installs enough of everything for any one plan to claim,
    and pre-occupies nothing, so a test can break exactly one stage.
    """
    rng = draw(st.randoms(use_true_random=True))
    count = draw(st.integers(min_value=3, max_value=len(NAMES)))
    names = NAMES[:count]
    rng.shuffle(names)
    # A chain keeps the graph connected; chords give routes a choice.
    links = list(zip(names, names[1:]))
    links += [
        (a, b)
        for index, a in enumerate(names)
        for b in names[index + 2 :]
        if rng.random() < 0.3
    ]
    spec = {
        "names": names,
        "links": links,
        "ports": {n: 8 if spare else rng.randint(2, 5) for n in names},
        "ots": {n: 4 if spare else rng.randint(1, 3) for n in names},
        "regens": {n: 4 if spare else rng.randint(0, 2) for n in names},
        "busy_channels": [],
        "busy_ports": [],
        "busy_ots": [],
    }
    if not spare:
        spec["busy_channels"] = [
            (a, b, channel)
            for a, b in links
            for channel in range(CHANNELS)
            if rng.random() < 0.15
        ]
        spec["busy_ports"] = [n for n in names if rng.random() < 0.3]
        spec["busy_ots"] = [n for n in names if rng.random() < 0.3]
    neighbors = {n: [] for n in names}
    for a, b in links:
        neighbors[a].append(b)
        neighbors[b].append(a)
    plans = [_plan(rng, names, neighbors) for _ in range(4)]
    return spec, plans, rng


def _plan(rng, names, neighbors):
    """A simple route by random walk, cut into segments at regen sites."""
    path = [rng.choice(names)]
    while len(path) < 2 or (len(path) < 6 and rng.random() < 0.7):
        onward = [n for n in sorted(neighbors[path[-1]]) if n not in path]
        if not onward:
            break
        path.append(rng.choice(onward))
    if len(path) < 2:  # a dead-end start: take its first neighbor
        path.append(sorted(neighbors[path[0]])[0])
    regen_sites = [n for n in path[1:-1] if rng.random() < 0.4]
    segments, start = [], 0
    for index, node in enumerate(path):
        if node in regen_sites or index == len(path) - 1:
            segments.append(
                Segment(path[start : index + 1], rng.randrange(CHANNELS))
            )
            start = index
    return RwaPlan(path, segments, regen_sites, RATE)


def stick(roadm, port):
    """Hold an idle ``port`` for "busy" with no cross-connect: a stuck
    port, which no ROADM method produces, so it is planted directly."""
    index = int(port.port_id.rpartition(":")[2])
    port.owner = "busy"
    roadm._connected[index] = port
    roadm._connected_mask |= 1 << index


def build(spec):
    """One inventory + provisioner from a plant description."""
    graph = NetworkGraph()
    for name in spec["names"]:
        graph.add_node(Node(name))
    for a, b in spec["links"]:
        graph.add_link(Link(a, b))
    inventory = InventoryDatabase(graph, WavelengthGrid(CHANNELS))
    for name in spec["names"]:
        inventory.install_roadm(name, add_drop_ports=spec["ports"][name])
        inventory.install_transponders(name, RATE, spec["ots"][name])
        if spec["regens"][name]:
            inventory.install_regens(name, RATE, spec["regens"][name])
    for a, b, channel in spec["busy_channels"]:
        inventory.plant.dwdm_link(a, b).occupy(channel, "busy")
    for name in spec["busy_ports"]:
        roadm = inventory.roadms[name]
        stick(roadm, roadm.port(f"AD:{name}:0"))
    for name in spec["busy_ots"]:
        inventory.transponders[name].allocate(RATE, "busy")
    latency = LatencyModel(RandomStreams(0), cv=0.0)
    provisioner = LightpathProvisioner(
        inventory, RoadmEms(inventory.plant, latency), latency
    )
    return inventory, provisioner


def snapshot(inventory):
    """Everything claim and release touch, in comparable form."""
    plant = inventory.plant
    return {
        "occupancy": plant.occupancy_snapshot(),
        "channel_owners": {
            link.key: {
                channel: plant.dwdm_link(*link.key).owner_of(channel)
                for channel in sorted(plant.dwdm_link(*link.key).occupied_channels)
            }
            for link in inventory.graph.links
        },
        "ports": {
            node: [
                (p.port_id, p.owner, p.connected_degree, p.connected_channel)
                for p in roadm.connected_ports()
            ]
            + [roadm.port_count]
            for node, roadm in inventory.roadms.items()
        },
        "degree_channels": {
            node: {
                degree: sorted(roadm.free_channels(degree))
                for degree in sorted(roadm.degrees)
            }
            for node, roadm in inventory.roadms.items()
        },
        "express": {
            node: roadm.express_connections()
            for node, roadm in inventory.roadms.items()
        },
        "ots": {
            node: [(ot.ot_id, ot.owner) for ot in pool.held()] + [pool.installed()]
            for node, pool in inventory.transponders.items()
        },
        "regens": {
            node: [(regen.regen_id, regen.owner) for regen in pool.held()]
            + [pool.installed()]
            for node, pool in inventory.regens.items()
        },
        "lightpaths": sorted(inventory.lightpaths),
    }


def outcome(call):
    try:
        return call()
    except GriphonError as exc:
        return type(exc), str(exc)


def ledger_violations(inventory):
    return [
        str(violation)
        for violation in audit_inventory(inventory).violations
        if violation.kind == "ledger-mismatch"
    ]


# -- (i) release: ledger vs. scan ----------------------------------------------


@SETTINGS
@given(plants())
def test_ledger_release_matches_scan_release(case):
    spec, plans, rng = case
    ours, provisioner = build(spec)
    theirs, twin = build(spec)
    live = []
    for plan in plans:
        claimed = outcome(lambda: provisioner.claim(plan))
        mirrored = outcome(lambda: twin.claim(plan))
        assert snapshot(ours) == snapshot(theirs)
        if isinstance(claimed, tuple):
            assert claimed == mirrored
            continue
        live.append((claimed, mirrored))
        assert len(ours.holdings[claimed.lightpath_id]) == (
            2  # end transponders
            + len(plan.regen_sites)
            + 2  # end add/drop ports
            + sum(2 if n in plan.regen_sites else 1 for n in plan.path[1:-1])
            + len(plan.path)
            - 1  # one channel per link
        )
    assert not ledger_violations(ours)

    # Restoration hand-over: a live lightpath's end transponders pass to
    # a replacement over the same route (claimed with ``reuse_ots``); the
    # old lightpath, released afterwards, must leave them alone.
    if live and rng.random() < 0.7:
        old, old_twin = live.pop(rng.randrange(len(live)))
        plan = RwaPlan(
            list(old.path),
            [Segment(list(s.nodes), (s.channel + 1) % CHANNELS) for s in old.segments],
            list(old.regen_sites),
            RATE,
        )
        for inventory, lightpath in ((ours, old), (theirs, old_twin)):
            for ot_id in lightpath.ot_ids:
                pool = inventory.transponders[ot_id.split(":")[1]]
                pool.release(pool.get(ot_id).index, lightpath.lightpath_id)
        claimed = outcome(lambda: provisioner.claim(plan, reuse_ots=old.ot_ids))
        mirrored = outcome(lambda: twin.claim(plan, reuse_ots=old_twin.ot_ids))
        assert snapshot(ours) == snapshot(theirs)
        if not isinstance(claimed, tuple):
            assert claimed.ot_ids == old.ot_ids
            live.append((claimed, mirrored))
        provisioner.release(old)
        reference_release(theirs, old_twin)
        assert snapshot(ours) == snapshot(theirs)
        if not isinstance(claimed, tuple):
            held_ots = [ours.transponders[i.split(":")[1]].get(i) for i in old.ot_ids]
            assert [ot.owner for ot in held_ots] == [claimed.lightpath_id] * 2

    rng.shuffle(live)
    for lightpath, mirrored in live:
        provisioner.release(lightpath)
        reference_release(theirs, mirrored)
        assert snapshot(ours) == snapshot(theirs)
        assert lightpath.lightpath_id not in ours.holdings
        assert not ledger_violations(ours)
    assert ours.holdings == {}
    # Released twice: nothing left to free, and the same refusal as ever.
    for lightpath, mirrored in live:
        assert outcome(lambda: provisioner.release(lightpath)) == outcome(
            lambda: reference_release(theirs, mirrored)
        )
    assert snapshot(ours) == snapshot(theirs)


def test_generated_plans_reach_every_kind_of_holding():
    """The property above is only worth its name if generated plans
    claim regens, expresses and several segments, and some are blocked."""
    seen = {"regen": 0, "express": 0, "segments": 0, "blocked": 0, "claimed": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(plants())
    def count(case):
        spec, plans, _ = case
        inventory, provisioner = build(spec)
        for plan in plans:
            claimed = outcome(lambda: provisioner.claim(plan))
            if isinstance(claimed, tuple):
                seen["blocked"] += 1
                continue
            seen["claimed"] += 1
            kinds = [entry[0] for entry in inventory.holdings[claimed.lightpath_id]]
            seen["regen"] += HELD_REGEN in kinds
            seen["express"] += HELD_EXPRESS in kinds
            seen["segments"] += len(plan.segments) > 1

    count()
    assert all(seen.values()), seen


def test_release_skips_an_express_an_operator_already_removed():
    """The one way a recorded express is no longer ours: removed behind
    the controller's back.  Both releases then leave it alone."""
    spec = {
        "names": ["A", "B", "C"],
        "links": [("A", "B"), ("B", "C")],
        "ports": dict.fromkeys("ABC", 2),
        "ots": dict.fromkeys("ABC", 1),
        "regens": dict.fromkeys("ABC", 0),
        "busy_channels": [],
        "busy_ports": [],
        "busy_ots": [],
    }
    plan = RwaPlan(["A", "B", "C"], [Segment(["A", "B", "C"], 1)], [], RATE)
    worlds = [build(spec), build(spec)]
    lightpaths = [provisioner.claim(plan) for _, provisioner in worlds]
    for (inventory, _), lightpath in zip(worlds, lightpaths):
        inventory.roadms["B"].disconnect_express("A", "C", 1, lightpath.lightpath_id)
        # Re-taken by someone else: still not ours to remove.
        inventory.roadms["B"].connect_express("A", "C", 1, "other")
    assert ledger_violations(worlds[0][0])  # the auditor sees the gap
    worlds[0][1].release(lightpaths[0])
    reference_release(worlds[1][0], lightpaths[1])
    assert snapshot(worlds[0][0]) == snapshot(worlds[1][0])
    assert worlds[0][0].roadms["B"].express_connections() == [("A", "C", 1, "other")]


# -- (ii) a claim that fails at each stage ---------------------------------------


def _break_no_ot(inventory, plan):
    pool = inventory.transponders[plan.path[-1]]
    while pool.free_count():
        pool.allocate(RATE, "busy")
    return (
        TransponderUnavailableError,
        f"no free 10G transponder at {plan.path[-1]}",
    )


def _break_no_regen(inventory, plan):
    node = plan.regen_sites[-1]
    pool = inventory.regens[node]
    while pool.free_count():
        pool.allocate(RATE, "busy")
    return TransponderUnavailableError, f"no free 10G regenerator at {node}"


def _break_no_port(inventory, plan):
    # The last node to be given a port: the last regen site, else the far end.
    if plan.regen_sites:
        node = plan.regen_sites[-1]
        channel = next(s.channel for s in plan.segments if s.nodes[-1] == node)
    else:
        node, channel = plan.path[-1], plan.segments[-1].channel
    roadm = inventory.roadms[node]
    while (port := roadm.first_free_port()) is not None:
        stick(roadm, port)
    return (
        TransponderUnavailableError,
        f"no free add/drop port at {node} for channel {channel}",
    )


def _break_last_channel(inventory, plan):
    link = inventory.plant.dwdm_link(plan.path[-2], plan.path[-1])
    channel = plan.segments[-1].channel
    link.occupy(channel, "busy")
    return (
        WavelengthBlockedError,
        f"channel {channel} on {link.link} is held by 'busy'",
    )


STAGES = {
    "no-ot": _break_no_ot,
    "no-regen": _break_no_regen,
    "no-port": _break_no_port,
    "last-channel": _break_last_channel,
}


@SETTINGS
@given(plants(spare=True), st.sampled_from(sorted(STAGES)))
def test_failed_claim_leaves_the_plant_it_found(case, stage):
    spec, plans, _ = case
    inventory, provisioner = build(spec)

    def on_channels(plan, pick):
        segments = [Segment(s.nodes, pick(s.channel)) for s in plan.segments]
        return RwaPlan(plan.path, segments, plan.regen_sites, RATE)

    # A live lightpath on channel 0 that the rollback must not disturb;
    # the plan under test stays off it, so only ``stage`` blocks it.
    bystander = provisioner.claim(on_channels(plans[0], lambda channel: 0))
    plan = on_channels(plans[1], lambda channel: 1 + channel % (CHANNELS - 1))
    if stage == "no-regen" and not plan.regen_sites:
        stage = "no-ot"
    expected = STAGES[stage](inventory, plan)
    before = snapshot(inventory)
    ledger_before = dict(inventory.holdings)
    with pytest.raises(GriphonError) as raised:
        provisioner.claim(plan)
    assert (type(raised.value), str(raised.value)) == expected
    assert snapshot(inventory) == before
    assert inventory.holdings == ledger_before
    assert not ledger_violations(inventory)
    # The id was spent, as before: the next claim does not reuse it.
    provisioner.release(bystander)
    assert inventory.holdings == {}


# -- (iii) FaultPlan.empty -----------------------------------------------------------


def empty_by_definition(plan):
    """``empty`` as it was computed before the live-rule counter."""
    return not any(
        spec.count is None or spec.count - injected > 0
        for spec, injected in zip(plan.specs, plan.injected_counts)
    )


SPECS = st.builds(
    FaultSpec,
    command=st.sampled_from(("*", "tune", "roadm")),
    count=st.one_of(st.none(), st.integers(1, 3)),
    probability=st.sampled_from((1.0, 0.5)),
    after_s=st.sampled_from((0.0, 5.0)),
)
DECIDES = st.tuples(
    st.sampled_from(("tune", "roadm", "verify")),
    st.sampled_from((0.0, 10.0)),
)


@SETTINGS
@given(st.lists(SPECS, max_size=5), st.lists(DECIDES, max_size=30), st.integers(0, 2**16))
def test_fault_plan_empty_matches_its_definition(specs, decides, seed):
    plan = FaultPlan(specs).bind(RandomStreams(seed))
    assert plan.empty == empty_by_definition(plan)
    was_empty = plan.empty
    for command, now in decides:
        plan.decide("roadm_ems", "ROADM-I", command, now)
        assert plan.empty == empty_by_definition(plan)
        # Rules are fixed at build: an empty plan stays empty.
        assert plan.empty or not was_empty
        was_empty = plan.empty
