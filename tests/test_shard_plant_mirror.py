"""The plant mirror's touched-key delta against the full plant scan.

``_PlantMirror.delta`` looks only at the links whose occupancy changed
since the worker last acknowledged a delta — the plant records them once
a mirror asks (``FiberPlant.touched_links``) — plus the links a torn,
unacknowledged fan-out still owes.  :class:`FullScanMirror` is the delta
it replaced, kept only here: every link's mask on every call.  Across
random claim / release / cut / repair sequences, links lit before the
mirror existed, links that join the graph later, and fan-outs that tear
before the worker acknowledges, both must send the same masks, cuts and
repairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optical import FiberPlant, WavelengthGrid
from repro.shard.network import _PlantMirror
from repro.topo import Link, NetworkGraph, Node

CHANNELS = 4
_LINKS = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E"), ("B", "D")]
#: Joins the graph only when a sequence says so, after the plant exists.
_LATE = ("A", "C")


class FullScanMirror:
    """The parent commit's delta: a scan of every link on every call."""

    def __init__(self, plant):
        self.plant = plant
        self._masks = {}
        self._failed = frozenset()

    def delta(self):
        current = self.plant.occupancy_snapshot()
        failed = frozenset(self.plant.failed_links())
        masks = {
            key: mask
            for key, mask in current.items()
            if self._masks.get(key, 0) != mask
        }
        for key in self._masks:
            if key not in current:
                masks[key] = 0
        self._sent = (current, failed)
        return {
            "masks": masks,
            "cut": sorted(failed - self._failed),
            "repair": sorted(self._failed - failed),
        }

    def acknowledged(self):
        self._masks, self._failed = self._sent

    def note_cut(self, key):
        self._failed |= {key}

    def note_repair(self, key):
        self._failed -= {key}


_STEP = st.tuples(
    st.sampled_from(
        ["claim", "claim", "release", "release", "cut", "repair",
         "forward-cut", "forward-repair", "add-late", "sync", "torn"]
    ),
    st.integers(min_value=0, max_value=len(_LINKS)),
    st.integers(min_value=0, max_value=CHANNELS - 1),
)


def _plant():
    graph = NetworkGraph()
    for name in "ABCDE":
        graph.add_node(Node(name))
    for a, b in _LINKS:
        graph.add_link(Link(a, b))
    return graph, FiberPlant(graph, WavelengthGrid(CHANNELS))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    before=st.lists(st.tuples(st.integers(0, len(_LINKS) - 1), st.integers(0, 3))),
    steps=st.lists(_STEP, max_size=40),
)
def test_touched_key_delta_equals_the_full_scan(before, steps):
    graph, plant = _plant()
    keys = list(_LINKS)
    for index, channel in before:  # lit before any mirror kept a record
        link = plant.dwdm_link(*keys[index])
        if link.owner_of(channel) is None:
            link.occupy(channel, "x")
    mirror, reference = _PlantMirror(plant), FullScanMirror(plant)
    for round_no, (op, index, channel) in enumerate(steps, start=1):
        key = keys[index % len(keys)]
        link = plant.dwdm_link(*key)
        if op == "claim":
            if not link.failed and link.owner_of(channel) is None:
                link.occupy(channel, "x")
        elif op == "release":
            if link.owner_of(channel) is not None:
                link.release(channel, "x")
        elif op in ("cut", "forward-cut"):
            plant.cut_link(*key)
            if op == "forward-cut":  # the eager cut RPC the network sends
                mirror.note_cut(key)
                reference.note_cut(key)
        elif op in ("repair", "forward-repair"):
            plant.repair_link(*key)
            if op == "forward-repair":
                mirror.note_repair(key)
                reference.note_repair(key)
        elif op == "add-late":
            if _LATE not in keys:
                graph.add_link(Link(*_LATE))
                keys.append(_LATE)
        else:
            assert mirror.delta() == reference.delta()
            if op == "sync":  # "torn": the worker never acknowledged it
                mirror.acknowledged(round_no)
                reference.acknowledged()
        assert len(plant.touched_links()) <= len(keys)
    assert mirror.delta() == reference.delta()


def test_a_plant_nobody_mirrors_records_nothing():
    _, plant = _plant()
    link = plant.dwdm_link("A", "B")
    link.occupy(0, "x")
    assert link._touched is None and plant._touched is None
    record = plant.touched_links()
    link.release(0, "x")
    plant.dwdm_link("C", "D").occupy(1, "x")
    assert record == {("A", "B"), ("C", "D")}
    assert plant.touched_links() is record
