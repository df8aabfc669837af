"""Tests for transponders, regens, FXCs, and NTEs."""

import pytest

from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    EquipmentError,
    SignalError,
    TransponderUnavailableError,
)
from repro.optical import (
    FiberCrossConnect,
    NetworkTerminatingEquipment,
    RegenPool,
    TransponderPool,
    WavelengthGrid,
)
from repro.units import gbps


@pytest.fixture
def grid():
    return WavelengthGrid(8)


class TestTransponder:
    def test_install_and_allocate(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        pool.install(gbps(10), count=2)
        ot = pool.allocate(gbps(10), "lp-1")
        assert ot.in_use
        assert ot.owner == "lp-1"
        assert len(pool.free(gbps(10))) == 1

    def test_tune_requires_allocation(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        ot = pool.install(gbps(10))[0]
        with pytest.raises(SignalError):
            ot.tune(3)

    def test_tune_and_release_detunes(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        ot = pool.install(gbps(10))[0]
        ot.allocate("lp-1")
        ot.tune(3)
        assert ot.channel == 3
        ot.release("lp-1")
        assert ot.channel is None
        assert not ot.in_use

    def test_tune_rejects_off_grid(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        ot = pool.install(gbps(10))[0]
        ot.allocate("lp-1")
        with pytest.raises(ConfigurationError):
            ot.tune(99)

    def test_double_allocate_rejected(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        ot = pool.install(gbps(10))[0]
        ot.allocate("lp-1")
        with pytest.raises(TransponderUnavailableError):
            ot.allocate("lp-2")

    def test_release_owner_mismatch(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        ot = pool.install(gbps(10))[0]
        ot.allocate("lp-1")
        with pytest.raises(TransponderUnavailableError):
            ot.release("lp-2")

    def test_pool_exhaustion(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        pool.install(gbps(10), count=1)
        pool.allocate(gbps(10), "lp-1")
        with pytest.raises(TransponderUnavailableError):
            pool.allocate(gbps(10), "lp-2")

    def test_pool_rate_segregation(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        pool.install(gbps(10), count=1)
        pool.install(gbps(40), count=1)
        with pytest.raises(TransponderUnavailableError):
            pool.allocate(gbps(100), "lp-1")
        assert pool.allocate(gbps(40), "lp-1").line_rate_bps == gbps(40)

    def test_pool_utilization(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        pool.install(gbps(10), count=4)
        pool.allocate(gbps(10), "lp-1")
        assert pool.utilization(gbps(10)) == pytest.approx(0.25)
        assert pool.utilization(gbps(40)) == 0.0

    def test_pool_get_unknown(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        with pytest.raises(TransponderUnavailableError):
            pool.get("OT:ghost:0")

    def test_ids_are_unique(self, grid):
        pool = TransponderPool("ROADM-I", grid)
        ots = pool.install(gbps(10), count=5)
        assert len({ot.ot_id for ot in ots}) == 5


class TestRegen:
    def test_allocate_release_cycle(self):
        pool = RegenPool("CHI")
        pool.install(gbps(40), count=2)
        regen = pool.allocate(gbps(40), "lp-1")
        assert regen.in_use
        regen.release("lp-1")
        assert len(pool.free(gbps(40))) == 2

    def test_exhaustion(self):
        pool = RegenPool("CHI")
        pool.install(gbps(10), count=1)
        pool.allocate(gbps(10), "lp-1")
        with pytest.raises(TransponderUnavailableError):
            pool.allocate(gbps(10), "lp-2")

    def test_release_owner_mismatch(self):
        pool = RegenPool("CHI")
        regen = pool.install(gbps(10))[0]
        regen.allocate("lp-1")
        with pytest.raises(TransponderUnavailableError):
            regen.release("lp-2")


class TestFxc:
    def test_connect_and_peer(self):
        fxc = FiberCrossConnect("FXC:1", 8)
        fxc.connect(0, 5, "conn-1")
        assert fxc.peer_of(0) == 5
        assert fxc.peer_of(5) == 0

    def test_minimum_ports(self):
        with pytest.raises(ConfigurationError):
            FiberCrossConnect("FXC:1", 1)

    def test_self_connect_rejected(self):
        fxc = FiberCrossConnect("FXC:1", 4)
        with pytest.raises(EquipmentError):
            fxc.connect(2, 2, "conn-1")

    def test_busy_port_rejected(self):
        fxc = FiberCrossConnect("FXC:1", 4)
        fxc.connect(0, 1, "conn-1")
        with pytest.raises(EquipmentError):
            fxc.connect(1, 2, "conn-2")

    def test_disconnect_by_either_port(self):
        fxc = FiberCrossConnect("FXC:1", 4)
        fxc.connect(0, 1, "conn-1")
        fxc.disconnect(1, "conn-1")
        assert fxc.peer_of(0) is None
        assert fxc.free_ports() == [0, 1, 2, 3]

    def test_disconnect_owner_mismatch(self):
        fxc = FiberCrossConnect("FXC:1", 4)
        fxc.connect(0, 1, "conn-1")
        with pytest.raises(EquipmentError):
            fxc.disconnect(0, "conn-2")

    def test_disconnect_idle_rejected(self):
        fxc = FiberCrossConnect("FXC:1", 4)
        with pytest.raises(EquipmentError):
            fxc.disconnect(0, "conn-1")

    def test_unknown_port_rejected(self):
        fxc = FiberCrossConnect("FXC:1", 4)
        with pytest.raises(EquipmentError):
            fxc.connect(0, 9, "conn-1")

    def test_labels_and_find(self):
        fxc = FiberCrossConnect("FXC:1", 4)
        fxc.label_port(2, "OT:ROADM-I:0")
        assert fxc.port_label(2) == "OT:ROADM-I:0"
        assert fxc.port_label(3) == ""
        with pytest.raises(EquipmentError):
            fxc.port_label(9)

    def test_connections_listing(self):
        fxc = FiberCrossConnect("FXC:1", 6)
        fxc.connect(4, 1, "conn-1")
        fxc.connect(0, 5, "conn-2")
        assert fxc.connections() == [(0, 5, "conn-2"), (1, 4, "conn-1")]


class TestNte:
    def test_claim_and_view(self):
        nte = NetworkTerminatingEquipment("NTE:A", "PREMISES-A")
        index = nte.claim_interface("conn-1", channelized=False)
        assert index == 0
        assert nte.owner_of(0) == "conn-1"
        assert not nte.is_channelized(0)
        view = nte.customer_view()
        assert len(view) == 4
        assert "wavelength for conn-1" in view[0]
        assert view[1].endswith("free")

    def test_channelized_flag(self):
        nte = NetworkTerminatingEquipment("NTE:A", "PREMISES-A")
        index = nte.claim_interface("conn-1", channelized=True)
        assert nte.is_channelized(index)
        assert "channelized" in nte.customer_view()[index]

    def test_exhaustion(self):
        nte = NetworkTerminatingEquipment("NTE:A", "PREMISES-A", interface_count=1)
        nte.claim_interface("conn-1", channelized=False)
        with pytest.raises(CapacityExceededError):
            nte.claim_interface("conn-2", channelized=False)

    def test_release_and_reuse(self):
        nte = NetworkTerminatingEquipment("NTE:A", "PREMISES-A")
        index = nte.claim_interface("conn-1", channelized=False)
        nte.release_interface(index, "conn-1")
        assert nte.free_interfaces() == [0, 1, 2, 3]

    def test_release_validation(self):
        nte = NetworkTerminatingEquipment("NTE:A", "PREMISES-A")
        with pytest.raises(EquipmentError):
            nte.release_interface(0, "conn-1")
        index = nte.claim_interface("conn-1", channelized=False)
        with pytest.raises(EquipmentError):
            nte.release_interface(index, "conn-2")

    def test_is_channelized_on_idle_interface(self):
        nte = NetworkTerminatingEquipment("NTE:A", "PREMISES-A")
        with pytest.raises(EquipmentError):
            nte.is_channelized(0)
