"""Installed equipment is a count until a claim takes it.

:class:`~repro.optical.transponder.TransponderPool`,
:class:`~repro.optical.regen.RegenPool` and a
:class:`~repro.optical.roadm.Roadm`'s add/drop ports keep what is
installed as a bitmask per class and build an element object only for a
unit in use.  Here:

* the sparse build: a 512-PoP sharded network holds no ``Transponder``,
  ``Regenerator`` or ``AddDropPort`` object, and one claimed lightpath
  holds exactly its own, until its release;
* a differential against :class:`RefPool` / :class:`RefPorts`, an
  object-per-element reference kept in this file (the pools as they were
  before, a scan in install order): over generated installs (mixed
  rates; colorless, directional and colored port classes) and operation
  sequences, both sides pick the same unit and raise the same error type;
* the auditor's transponder / regenerator pass (held units plus listed
  ones) against a walk over every installed unit, after a planted leak
  or a missing OT.
"""

import gc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.inventory import InventoryDatabase
from repro.core.provisioning import LightpathProvisioner
from repro.core.rwa import RwaEngine
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.errors import (
    EquipmentError,
    GriphonError,
    TransponderUnavailableError,
    WavelengthBlockedError,
)
from repro.faults.audit import AuditViolation, audit_inventory
from repro.optical import RegenPool, Roadm, TransponderPool, WavelengthGrid
from repro.optical.regen import Regenerator
from repro.optical.roadm import AddDropPort
from repro.optical.transponder import Transponder
from repro.shard.network import build_sharded_network
from repro.sim import RandomStreams
from repro.topo import Link, NetworkGraph, Node
from repro.topo.hierarchy import build_hierarchy
from repro.units import gbps

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
RATES = [gbps(10), gbps(40), gbps(100)]
CHANNELS = 8
DEGREES = ["E", "W", "N"]
OWNERS = ["lp-0", "lp-1", "lp-2"]


def element_counts():
    counts = {Transponder: 0, Regenerator: 0, AddDropPort: 0}
    for obj in gc.get_objects():
        kind = type(obj)
        if kind in counts:
            counts[kind] += 1
    return counts[Transponder], counts[Regenerator], counts[AddDropPort]


# -- the sparse build ------------------------------------------------------------


def test_sharded_build_holds_no_element_objects():
    hierarchy = build_hierarchy(
        2026, regions=16, pops_per_region=32, with_premises=True
    )
    network = build_sharded_network(
        seed=2026, hierarchy=hierarchy, transponders_10g=64, regens_10g=16
    )
    controller = network.controllers["R00"]
    installed = sum(pool.installed() for pool in controller.inventory.transponders.values())
    assert installed == 32 * 64
    gc.collect()
    assert element_counts() == (0, 0, 0)

    plan = controller.rwa.plan("R00-P00", "R00-P06", gbps(10))
    assert plan.regen_sites  # the claim takes a regenerator too
    lightpath = controller.provisioner.claim(plan)
    regens = len(plan.regen_sites)
    assert len(lightpath.regen_ids) == regens
    gc.collect()
    assert element_counts() == (2, regens, 2 + 2 * regens)
    controller.provisioner.release(lightpath)
    del lightpath
    gc.collect()
    assert element_counts() == (0, 0, 0)


# -- the object-per-element reference -------------------------------------------------


class RefUnit:
    def __init__(self, unit_id, rate):
        self.unit_id = unit_id
        self.rate = rate
        self.owner = None


class RefPool:
    """A transponder or regenerator pool as it was: one object per unit,
    first fit by a scan in install order."""

    def __init__(self, prefix, node):
        self.prefix = prefix
        self.node = node
        self.units = {}

    def install(self, rate, count):
        for _ in range(count):
            unit_id = f"{self.prefix}:{self.node}:{len(self.units)}"
            self.units[unit_id] = RefUnit(unit_id, rate)

    def get(self, unit_id):
        if unit_id not in self.units:
            raise TransponderUnavailableError(unit_id)
        return self.units[unit_id]

    def allocate(self, rate, owner):
        for unit in self.units.values():
            if unit.owner is None and unit.rate == rate:
                unit.owner = owner
                return unit
        raise TransponderUnavailableError(rate)

    def take(self, unit_id, owner):
        unit = self.get(unit_id)
        if unit.owner is not None:
            raise TransponderUnavailableError(unit_id)
        unit.owner = owner
        return unit

    def release(self, unit_id, owner):
        unit = self.get(unit_id)
        if unit.owner != owner:
            raise TransponderUnavailableError(unit_id)
        unit.owner = None

    def free_count(self, rate):
        return sum(
            unit.owner is None and rate in (None, unit.rate)
            for unit in self.units.values()
        )

    def held(self):
        return [(u.unit_id, u.owner) for u in self.units.values() if u.owner]


class RefPorts:
    """A ROADM's add/drop ports as they were: one object per port."""

    def __init__(self, name):
        self.name = name
        self.ports = []  # [port_id, fixed_degree, fixed_channel, owner, degree, channel]
        self.taken = {}  # (degree, channel) -> owner

    def add_ports(self, count, fixed_degree, fixed_channel):
        for _ in range(count):
            port_id = f"AD:{self.name}:{len(self.ports)}"
            self.ports.append([port_id, fixed_degree, fixed_channel, None, None, None])

    def _idle(self, degree, channel):
        return [
            port for port in self.ports
            if port[3] is None
            and (degree is None or port[1] is None or port[1] == degree)
            and (channel is None or port[2] is None or port[2] == channel)
        ]

    def first_free_port(self, degree, channel):
        idle = self._idle(degree, channel)
        return idle[0][0] if idle else None

    def free_port_count(self, degree, channel):
        return len(self._idle(degree, channel))

    def port(self, port_id):
        for port in self.ports:
            if port[0] == port_id:
                return port
        raise EquipmentError(port_id)

    def connect(self, port_id, degree, channel, owner):
        port = self.port(port_id)
        if degree not in DEGREES:
            raise EquipmentError(degree)
        if port[3] is not None:
            raise EquipmentError(port_id)
        if port[1] is not None and port[1] != degree:
            raise EquipmentError(port_id)
        if port[2] is not None and port[2] != channel:
            raise EquipmentError(port_id)
        if (degree, channel) in self.taken:
            raise WavelengthBlockedError(channel)
        self.taken[(degree, channel)] = owner
        port[3:] = [owner, degree, channel]
        return port

    def disconnect(self, port_id, owner):
        port = self.port(port_id)
        if port[3] is None or port[3] != owner:
            raise EquipmentError(port_id)
        del self.taken[(port[4], port[5])]
        port[3:] = [None, None, None]

    def connected(self):
        return [tuple(port) for port in self.ports if port[3] is not None]


def outcome(call):
    """What a call returned, or the type of the error it raised."""
    try:
        return ("ok", call())
    except GriphonError as exc:
        return ("error", type(exc))


# -- generated installs and operations ------------------------------------------------

PORT_CLASSES = st.sampled_from(
    [(None, None), ("E", None), ("W", None), (None, 3), ("E", 5), (None, 0)]
)
INSTALLS = st.lists(
    st.one_of(
        st.tuples(st.just("ot"), st.sampled_from(RATES), st.integers(1, 5)),
        st.tuples(st.just("regen"), st.sampled_from(RATES), st.integers(1, 4)),
        st.tuples(st.just("ports"), PORT_CLASSES, st.integers(1, 4)),
    ),
    min_size=1,
    max_size=8,
)
INDEX = st.integers(0, 10)
DEGREE = st.sampled_from([None] + DEGREES + ["X"])
CHANNEL = st.one_of(st.none(), st.integers(0, CHANNELS - 1))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.sampled_from(["ot", "regen"]),
                  st.sampled_from(RATES), st.sampled_from(OWNERS)),
        st.tuples(st.just("take"), st.sampled_from(["ot", "regen"]),
                  INDEX, st.sampled_from(OWNERS)),
        st.tuples(st.just("release"), st.sampled_from(["ot", "regen"]),
                  INDEX, st.sampled_from(OWNERS)),
        st.tuples(st.just("first_free_port"), DEGREE, CHANNEL),
        st.tuples(st.just("connect"), INDEX, DEGREE, CHANNEL,
                  st.sampled_from(OWNERS)),
        st.tuples(st.just("connect_free"), DEGREE, CHANNEL, st.sampled_from(OWNERS)),
        st.tuples(st.just("disconnect"), INDEX, st.sampled_from(OWNERS)),
    ),
    max_size=40,
)


def build_sides(installs):
    grid = WavelengthGrid(CHANNELS)
    roadm = Roadm("X", grid)
    for degree in DEGREES:
        roadm.add_degree(degree)
    ours = {"ot": TransponderPool("X"), "regen": RegenPool("X"), "ports": roadm}
    theirs = {"ot": RefPool("OT", "X"), "regen": RefPool("REGEN", "X"),
              "ports": RefPorts("X")}
    for kind, what, count in installs:
        if kind == "ports":
            ours[kind].add_ports(count, *what)
            theirs[kind].add_ports(count, *what)
        else:
            ours[kind].install(what, count)
            theirs[kind].install(what, count)
    return ours, theirs


def state(ours, theirs):
    """Both sides' observable state, in comparable form."""
    roadm = ours["ports"]
    mine = {
        kind: ([(u.unit_id, u.owner) for u in ours[kind].held()],
               [ours[kind].free_count(rate) for rate in [None] + RATES])
        for kind in ("ot", "regen")
    }
    ref = {
        kind: (theirs[kind].held(),
               [theirs[kind].free_count(rate) for rate in [None] + RATES])
        for kind in ("ot", "regen")
    }
    mine["ports"] = [
        (p.port_id, p.fixed_degree, p.fixed_channel, p.owner,
         p.connected_degree, p.connected_channel)
        for p in roadm.connected_ports()
    ] + [roadm.free_port_count(d, c) for d in [None] + DEGREES for c in (None, 3)]
    ref["ports"] = theirs["ports"].connected() + [
        theirs["ports"].free_port_count(d, c) for d in [None] + DEGREES for c in (None, 3)
    ]
    return mine, ref


@SETTINGS
@given(INSTALLS, OPS)
def test_pools_pick_what_an_object_per_element_pool_picks(installs, ops):
    ours, theirs = build_sides(installs)
    roadm, ref_ports = ours["ports"], theirs["ports"]
    for op in ops:
        name = op[0]
        if name == "allocate":
            _, kind, rate, owner = op
            got = outcome(lambda: ours[kind].allocate(rate, owner).unit_id)
            want = outcome(lambda: theirs[kind].allocate(rate, owner).unit_id)
        elif name == "take":
            _, kind, index, owner = op
            unit_id = f"{theirs[kind].prefix}:X:{index}"
            looked_up = outcome(lambda: (ours[kind].get(unit_id).unit_id,
                                         ours[kind].get(unit_id).owner))
            assert looked_up == outcome(lambda: (theirs[kind].get(unit_id).unit_id,
                                                 theirs[kind].get(unit_id).owner))
            got = outcome(lambda: ours[kind].take(unit_id, owner).unit_id)
            want = outcome(lambda: theirs[kind].take(unit_id, owner).unit_id)
        elif name == "release":
            _, kind, index, owner = op
            unit_id = f"{theirs[kind].prefix}:X:{index}"
            got = outcome(lambda: ours[kind].release(ours[kind].get(unit_id).index, owner))
            want = outcome(lambda: theirs[kind].release(unit_id, owner))
        elif name == "first_free_port":
            _, degree, channel = op
            port = roadm.first_free_port(degree, channel)
            got = None if port is None else port.port_id
            want = ref_ports.first_free_port(degree, channel)
        elif name == "connect":
            _, index, degree, channel, owner = op
            port_id = f"AD:X:{index}"
            channel = 0 if channel is None else channel
            got = outcome(lambda: roadm.connect_add_drop(port_id, degree, channel, owner).port_id)
            want = outcome(lambda: ref_ports.connect(port_id, degree, channel, owner)[0])
        elif name == "connect_free":
            _, degree, channel, owner = op
            channel = 0 if channel is None else channel
            port = outcome(lambda: roadm.connect_free_port(degree, channel, owner))
            got = port if port[0] == "error" or port[1] is None else ("ok", port[1].port_id)
            first = ref_ports.first_free_port(degree, channel)
            want = ("ok", None) if first is None else outcome(
                lambda: ref_ports.connect(first, degree, channel, owner)[0]
            )
        else:
            _, index, owner = op
            port_id = f"AD:X:{index}"
            got = outcome(lambda: roadm.disconnect_add_drop(port_id, owner))
            want = outcome(lambda: ref_ports.disconnect(port_id, owner))
        assert got == want, op
        mine, ref = state(ours, theirs)
        assert mine == ref


# -- the audit pass ------------------------------------------------------------------


def reference_unit_violations(inventory):
    """The transponder / regenerator pass as it was: a walk over every
    installed unit, each looked up by id."""
    lightpaths = inventory.lightpaths.values()
    found = []
    for pools, kind, ids in (
        (inventory.transponders, "ot", "ot_ids"),
        (inventory.regens, "regen", "regen_ids"),
    ):
        claimed = {
            unit_id: lp.lightpath_id for lp in lightpaths for unit_id in getattr(lp, ids)
        }
        for node, pool in pools.items():
            for index in range(pool.installed()):
                unit = pool.get(pool.unit_id(index))
                claimant = claimed.get(unit.unit_id)
                if unit.owner is None:
                    if claimant is not None and kind == "ot":
                        found.append(("ot-missing", unit.unit_id, claimant))
                elif claimant is None:
                    found.append((f"{kind}-leak", unit.unit_id, unit.owner))
                elif claimant != unit.owner:
                    found.append((f"{kind}-owner-mismatch", unit.unit_id, unit.owner))
    return found


def line_network(count, ots, regens):
    graph = NetworkGraph()
    names = [f"N{index}" for index in range(count)]
    for name in names:
        graph.add_node(Node(name))
    for a, b in zip(names, names[1:]):
        graph.add_link(Link(a, b, length_km=1500.0))
    inventory = InventoryDatabase(graph, WavelengthGrid(CHANNELS))
    for name in names:
        inventory.install_roadm(name, add_drop_ports=8)
        inventory.install_transponders(name, gbps(10), ots)
        inventory.install_transponders(name, gbps(40), 1)
        if regens:
            inventory.install_regens(name, gbps(10), regens)
    latency = LatencyModel(RandomStreams(0), cv=0.0)
    provisioner = LightpathProvisioner(
        inventory, RoadmEms(inventory.plant, latency), latency
    )
    return inventory, provisioner, RwaEngine(inventory), names


PLANTS = st.sampled_from(["leak-ot", "leak-regen", "missing-ot", "mismatch", "none"])


@SETTINGS
@given(
    st.integers(3, 5),
    st.integers(2, 4),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4),
    PLANTS,
    st.randoms(use_true_random=False),
)
def test_audit_of_units_matches_a_walk_over_every_unit(
    count, ots, regens, pairs, plant, rng
):
    inventory, provisioner, rwa, names = line_network(count, ots, regens)
    live = []
    for a, b in pairs:
        a, b = names[a % count], names[b % count]
        if a == b:
            continue
        try:
            live.append(provisioner.claim(rwa.plan(a, b, gbps(10))))
        except GriphonError:
            pass
    node = rng.choice(names)
    if plant == "leak-ot" and inventory.transponders[node].free_count(gbps(10)):
        inventory.transponders[node].allocate(gbps(10), "ghost")
    elif plant == "leak-regen" and inventory.regens[node].free_count(gbps(10)):
        inventory.regens[node].allocate(gbps(10), "ghost")
    elif plant in ("missing-ot", "mismatch") and live:
        lightpath = rng.choice(live)
        ot_id = rng.choice(lightpath.ot_ids)
        pool = inventory.transponders[ot_id.split(":")[1]]
        pool.release(pool.get(ot_id).index, lightpath.lightpath_id)
        if plant == "mismatch":
            pool.take(ot_id, "someone-else")
    report = audit_inventory(inventory)
    units = [
        (v.kind, v.resource, v.owner)
        for v in report.violations
        if v.kind.startswith(("ot-", "regen-"))
    ]
    assert units == reference_unit_violations(inventory)
    planted = plant != "none" and bool(units)
    assert report.ok == (not planted)
    assert all(isinstance(v, AuditViolation) for v in report.violations)
