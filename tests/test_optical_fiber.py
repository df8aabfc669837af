"""Tests for DWDM link occupancy and the fiber plant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResourceError, TopologyError, WavelengthBlockedError
from repro.optical.fiber import DwdmLink, FiberPlant
from repro.optical.wavelength import WavelengthGrid
from repro.topo.graph import Link, NetworkGraph, Node
from repro.topo.testbed import build_testbed_graph


@pytest.fixture
def grid():
    return WavelengthGrid(8)


@pytest.fixture
def dwdm(grid):
    return DwdmLink(Link("A", "B", length_km=100.0), grid)


@pytest.fixture
def plant():
    return FiberPlant(build_testbed_graph(), WavelengthGrid(8))


class TestDwdmLink:
    def test_all_channels_free_initially(self, dwdm, grid):
        assert dwdm.free_channels() == set(range(8))
        assert dwdm.utilization() == 0.0

    def test_occupy_and_owner(self, dwdm):
        dwdm.occupy(3, "lp-1")
        assert dwdm.owner_of(3) == "lp-1"
        assert 3 not in dwdm.free_channels()
        assert dwdm.occupied_channels == {3}

    def test_double_occupy_blocked(self, dwdm):
        dwdm.occupy(3, "lp-1")
        with pytest.raises(WavelengthBlockedError):
            dwdm.occupy(3, "lp-2")

    def test_release_requires_owner_match(self, dwdm):
        dwdm.occupy(3, "lp-1")
        with pytest.raises(ResourceError):
            dwdm.release(3, "lp-2")
        dwdm.release(3, "lp-1")
        assert dwdm.owner_of(3) is None

    def test_release_dark_channel_rejected(self, dwdm):
        with pytest.raises(ResourceError):
            dwdm.release(0, "lp-1")

    def test_fail_reports_affected_owners(self, dwdm):
        dwdm.occupy(1, "lp-1")
        dwdm.occupy(2, "lp-2")
        assert dwdm.fail() == {"lp-1", "lp-2"}
        assert dwdm.failed

    def test_failed_link_rejects_new_channels(self, dwdm):
        dwdm.fail()
        with pytest.raises(ResourceError):
            dwdm.occupy(0, "lp-1")

    def test_repair_restores_service(self, dwdm):
        dwdm.fail()
        dwdm.repair()
        dwdm.occupy(0, "lp-1")
        assert dwdm.owner_of(0) == "lp-1"

    def test_occupancy_survives_failure(self, dwdm):
        """Restoration logic needs to see what was riding a cut link."""
        dwdm.occupy(5, "lp-1")
        dwdm.fail()
        assert dwdm.owner_of(5) == "lp-1"

    def test_utilization(self, dwdm):
        dwdm.occupy(0, "a")
        dwdm.occupy(1, "b")
        assert dwdm.utilization() == pytest.approx(2 / 8)


class TestFiberPlant:
    def test_link_lookup_either_order(self, plant):
        a = plant.dwdm_link("ROADM-I", "ROADM-IV")
        b = plant.dwdm_link("ROADM-IV", "ROADM-I")
        assert a is b

    def test_unknown_link_rejected(self, plant):
        with pytest.raises(TopologyError):
            plant.dwdm_link("ROADM-II", "ROADM-IV")

    def test_common_free_channels_intersection(self, plant):
        path = ["ROADM-I", "ROADM-III", "ROADM-IV"]
        plant.dwdm_link("ROADM-I", "ROADM-III").occupy(0, "x")
        plant.dwdm_link("ROADM-III", "ROADM-IV").occupy(1, "y")
        free = plant.common_free_channels(path)
        assert 0 not in free
        assert 1 not in free
        assert 2 in free

    def test_common_free_channels_trivial_path(self, plant):
        assert plant.common_free_channels(["ROADM-I"]) == set(range(8))

    def test_path_is_up(self, plant):
        path = ["ROADM-I", "ROADM-III", "ROADM-IV"]
        assert plant.path_is_up(path)
        plant.cut_link("ROADM-I", "ROADM-III")
        assert not plant.path_is_up(path)

    def test_cut_link_notifies_callbacks(self, plant):
        observed = []
        plant.on_failure.append(lambda key, owners: observed.append((key, owners)))
        plant.dwdm_link("ROADM-I", "ROADM-IV").occupy(0, "lp-9")
        affected = plant.cut_link("ROADM-I", "ROADM-IV")
        assert affected == {"lp-9"}
        assert observed == [(("ROADM-I", "ROADM-IV"), {"lp-9"})]

    def test_cut_and_repair_srlg(self, plant):
        srlg = "srlg:ROADM-I=ROADM-IV"
        plant.cut_srlg(srlg)
        assert ("ROADM-I", "ROADM-IV") in plant.failed_links()
        plant.repair_srlg(srlg)
        assert plant.failed_links() == []

    def test_unknown_srlg_rejected(self, plant):
        with pytest.raises(TopologyError):
            plant.cut_srlg("srlg:ghost")
        with pytest.raises(TopologyError):
            plant.repair_srlg("srlg:ghost")

    def test_shared_conduit_cut_fails_multiple_links(self):
        graph = NetworkGraph()
        for name in "ABC":
            graph.add_node(Node(name))
        graph.add_link(Link("A", "B", srlgs=frozenset({"conduit"})))
        graph.add_link(Link("B", "C", srlgs=frozenset({"conduit"})))
        plant = FiberPlant(graph, WavelengthGrid(4))
        plant.cut_srlg("conduit")
        assert len(plant.failed_links()) == 2


#: Links of the liveness property's graph, with their SRLGs; ``LATE``
#: joins the graph only when a sequence says so, after the plant exists.
_LINKS = [
    ("A", "B", {"s1"}),
    ("B", "C", {"s1", "s2"}),
    ("C", "D", {"s2"}),
    ("D", "E", set()),
    ("A", "E", {"s3"}),
]
_LATE = ("B", "D", {"s2"})
_PATHS = [
    ["A", "B", "C", "D", "E"],
    ["A", "E"],
    ["E", "D", "C"],
    ["A"],
    ["A", "B", "D", "E"],  # rides the late link
]
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["cut", "repair", "cut_srlg", "repair_srlg", "fail", "unfail", "add_late"]
        ),
        st.integers(min_value=0, max_value=len(_LINKS)),
    ),
    max_size=40,
)


class TestLivenessCount:
    """``path_is_up`` / ``failed_links`` answer at once while nothing is
    cut; every way a link's cut flag moves must keep that count."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ops=_OPS)
    def test_liveness_equals_a_brute_force_scan(self, ops):
        graph = NetworkGraph()
        for name in "ABCDE":
            graph.add_node(Node(name))
        for a, b, srlgs in _LINKS:
            graph.add_link(Link(a, b, srlgs=frozenset(srlgs)))
        plant = FiberPlant(graph, WavelengthGrid(4))
        keys = [(a, b) for a, b, _ in _LINKS]
        for op, index in ops:
            if op == "add_late":
                if _LATE[:2] not in keys:
                    graph.add_link(Link(*_LATE[:2], srlgs=frozenset(_LATE[2])))
                    keys.append(_LATE[:2])
                continue
            key = keys[index % len(keys)]
            srlg = f"s{index % 3 + 1}"
            if op == "cut":
                plant.cut_link(*key)
            elif op == "repair":
                plant.repair_link(*key)  # also on live links
            elif op == "cut_srlg":
                plant.cut_srlg(srlg)
            elif op == "repair_srlg":
                plant.repair_srlg(srlg)
            elif op == "fail":
                plant.dwdm_link(*key).fail()  # behind the plant's back
            else:
                plant.dwdm_link(*key).repair()
            # The scan every query made before the count existed.
            failed = sorted(
                link.key for link in graph.links
                if plant.dwdm_link(link.a, link.b).failed
            )
            assert sorted(plant.failed_links()) == failed
            # Exact, not just safe: an over-count would keep the scans.
            assert plant._tally.cut == len(failed)
            for path in _PATHS if _LATE[:2] in keys else _PATHS[:-1]:
                scan = all(
                    not link.failed for link in plant.links_on_path(path)
                )
                assert plant.path_is_up(path) is scan
