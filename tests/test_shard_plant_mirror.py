"""What the plant mirror's syncs do to a worker: land it on the parent's plant.

``_PlantMirror.delta`` sends plant state in absolute terms — the target
mask of every link it has not sent yet (the plant's record of touched
links, ``FiberPlant.touched_links``, seeded with the links lit before
it) and every failed link — and the network clears the pending links
only once the fan-out that carried them has returned.
:class:`FullScanMirror` is the plainest mirror there is, kept only
here: every link's mask, every time.  Across random claim / release /
cut / repair sequences, links lit before the mirror existed, links that
join the graph later, and fan-outs that tear (delivered or not, their
links stay pending), a worker fed the mirror's delivered syncs must
fingerprint like the parent's plant and like a worker fed the
reference's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import plant_fingerprint
from repro.optical.fiber import FiberPlant
from repro.optical.wavelength import WavelengthGrid
from repro.shard.network import _PlantMirror
from repro.shard.workers import UnitRecipe, _WorkerState, round_payload
from repro.topo.graph import Link, NetworkGraph, Node

CHANNELS = 4
_LINKS = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E"), ("B", "D")]
#: Joins the graph only when a sequence says so, after the plant exists.
_LATE = ("A", "C")


class FullScanMirror:
    """Every link's absolute mask and every failed link, on every call."""

    def __init__(self, plant):
        self.plant = plant

    def delta(self):
        full = (1 << self.plant.grid.size) - 1
        return {
            "masks": {
                link.key: full & ~self.plant.dwdm_link(link.a, link.b).free_mask()
                for link in self.plant.graph.links
            },
            "failed": sorted(self.plant.failed_links()),
        }


_STEP = st.tuples(
    st.sampled_from(
        ["claim", "claim", "release", "release", "cut", "repair",
         "add-late", "sync", "torn"]
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
def test_delivered_syncs_land_the_worker_on_the_parents_plant(before, steps):
    graph, plant = _plant()
    keys = list(_LINKS)
    for index, channel in before:  # lit before any mirror kept a record
        link = plant.dwdm_link(*keys[index])
        if link.owner_of(channel) is None:
            link.occupy(channel, "x")
    recipe = UnitRecipe("unit", graph, grid_size=CHANNELS)
    mirror, reference = _PlantMirror(plant), FullScanMirror(plant)
    twin, reference_twin = _WorkerState(recipe), _WorkerState(recipe)

    def sync(round_no, delivered=True, torn=False):
        # What ``ShardedNetwork._plan_on_workers`` sends a unit on first
        # contact in a round; a torn fan-out leaves the links pending.
        payload = round_payload(round_no, mirror.delta(), [])
        if delivered:
            twin.dispatch("round", payload)
            reference_twin.dispatch(
                "round", round_payload(round_no, reference.delta(), [])
            )
        if not torn:
            mirror.pending.clear()

    def assert_landed():
        parent = plant_fingerprint(plant)
        assert plant_fingerprint(twin.inventory.plant) == parent
        assert plant_fingerprint(reference_twin.inventory.plant) == parent

    for round_no, (op, index, channel) in enumerate(steps, start=1):
        key = keys[index % len(keys)]
        link = plant.dwdm_link(*key)
        if op == "claim":
            if not link.failed and link.owner_of(channel) is None:
                link.occupy(channel, "x")
        elif op == "release":
            if link.owner_of(channel) is not None:
                link.release(channel, "x")
        elif op == "cut":
            plant.cut_link(*key)
        elif op == "repair":
            plant.repair_link(*key)
        elif op == "add-late":
            if _LATE not in keys:
                graph.add_link(Link(*_LATE))
                keys.append(_LATE)
        elif op == "sync":
            sync(round_no)
            assert_landed()
        else:  # torn: the worker may or may not have taken it
            sync(round_no, delivered=channel % 2 == 0, torn=True)
        assert len(plant.touched_links()) <= len(keys)
    sync(len(steps) + 1)
    assert_landed()
    assert not mirror.pending


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
