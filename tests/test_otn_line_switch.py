"""Tests for OTN lines and switches."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    EquipmentError,
    ResourceError,
)
from repro.otn import OtnLine, OtnSwitch
from repro.units import ODU_LEVELS


@pytest.fixture
def line():
    return OtnLine("OTNLINE:A=B:0", "A", "B")


class TestOtnLine:
    def test_odu2_default_has_eight_slots(self, line):
        assert line.slot_count == 8
        assert line.free_slot_count() == 8

    def test_custom_level(self):
        line = OtnLine("L", "A", "B", level=ODU_LEVELS["ODU3"])
        assert line.slot_count == 32

    def test_endpoints_must_differ(self):
        with pytest.raises(ConfigurationError):
            OtnLine("L", "A", "A")

    def test_key_canonical(self):
        assert OtnLine("L", "B", "A").key == ("A", "B")

    def test_allocate_returns_slots(self, line):
        slots = line.allocate(2, "ckt-1")
        assert slots == [0, 1]
        assert line.free_slot_count() == 6
        assert line.owner_of(0) == "ckt-1"

    def test_allocate_beyond_capacity(self, line):
        line.allocate(8, "ckt-1")
        with pytest.raises(CapacityExceededError):
            line.allocate(1, "ckt-2")

    def test_allocate_zero_rejected(self, line):
        with pytest.raises(ConfigurationError):
            line.allocate(0, "ckt-1")

    def test_release_owner_frees_all(self, line):
        line.allocate(3, "ckt-1")
        line.allocate(2, "ckt-2")
        assert line.release_owner("ckt-1") == 3
        assert line.free_slot_count() == 6
        assert line.owners() == {"ckt-2"}

    def test_release_unknown_owner(self, line):
        with pytest.raises(ResourceError):
            line.release_owner("ghost")

    def test_fail_reports_owners_and_blocks_allocation(self, line):
        line.allocate(1, "ckt-1")
        assert line.fail() == {"ckt-1"}
        with pytest.raises(ResourceError):
            line.allocate(1, "ckt-2")
        line.repair()
        line.allocate(1, "ckt-2")

    def test_utilization(self, line):
        line.allocate(4, "ckt-1")
        assert line.utilization() == pytest.approx(0.5)

    def test_owner_of_invalid_slot(self, line):
        with pytest.raises(ConfigurationError):
            line.owner_of(8)

    @given(
        takes=st.lists(st.integers(min_value=1, max_value=3), max_size=5)
    )
    def test_slot_accounting_invariant(self, takes):
        line = OtnLine("L", "A", "B")
        allocated = 0
        for i, n in enumerate(takes):
            if allocated + n > line.slot_count:
                with pytest.raises(CapacityExceededError):
                    line.allocate(n, f"c{i}")
            else:
                line.allocate(n, f"c{i}")
                allocated += n
        assert line.free_slot_count() == line.slot_count - allocated


class TestOtnSwitch:
    def test_client_port_cycle(self):
        switch = OtnSwitch("NYC", client_port_count=2)
        port = switch.claim_client_port("ckt-1")
        assert port == 0
        switch.release_client_port(port, "ckt-1")
        assert switch.free_client_ports() == [0, 1]

    def test_client_port_exhaustion(self):
        switch = OtnSwitch("NYC", client_port_count=1)
        switch.claim_client_port("ckt-1")
        with pytest.raises(CapacityExceededError):
            switch.claim_client_port("ckt-2")

    def test_release_validation(self):
        switch = OtnSwitch("NYC")
        with pytest.raises(EquipmentError):
            switch.release_client_port(0, "ckt-1")
        port = switch.claim_client_port("ckt-1")
        with pytest.raises(EquipmentError):
            switch.release_client_port(port, "ckt-2")
        with pytest.raises(EquipmentError):
            switch.release_client_port(99, "ckt-1")

    def test_attach_line_must_terminate_here(self):
        switch = OtnSwitch("NYC")
        with pytest.raises(ConfigurationError):
            switch.attach_line(OtnLine("L", "CHI", "DFW"))

    def test_attach_duplicate_rejected(self):
        switch = OtnSwitch("NYC")
        line = OtnLine("L", "NYC", "CHI")
        switch.attach_line(line)
        with pytest.raises(ConfigurationError):
            switch.attach_line(line)

    def test_lines_toward(self):
        switch = OtnSwitch("NYC")
        chi = OtnLine("L1", "NYC", "CHI")
        dca = OtnLine("L2", "DCA", "NYC")
        switch.attach_line(chi)
        switch.attach_line(dca)
        assert switch.lines_toward("CHI") == [chi]
        assert switch.lines_toward("DCA") == [dca]
        assert switch.lines_toward("LAX") == []

    def test_detach_line(self):
        switch = OtnSwitch("NYC")
        first = OtnLine("L1", "NYC", "CHI")
        second = OtnLine("L2", "CHI", "NYC")
        switch.attach_line(first)
        switch.attach_line(second)
        assert switch.detach_line("L1") is first
        assert switch.lines == [second]
        assert switch.lines_toward("CHI") == [second]
        assert switch.best_line_toward("CHI", slots_needed=1) is second
        with pytest.raises(ConfigurationError):
            switch.detach_line("L1")

    def test_best_fit_packing_prefers_fuller_line(self):
        """Best-fit grooming packs new circuits onto used wavelengths."""
        switch = OtnSwitch("NYC")
        line_a = OtnLine("L1", "NYC", "CHI")
        line_b = OtnLine("L2", "NYC", "CHI")
        switch.attach_line(line_a)
        switch.attach_line(line_b)
        line_a.allocate(5, "existing")
        chosen = switch.best_line_toward("CHI", slots_needed=2)
        assert chosen is line_a

    def test_best_fit_respects_capacity(self):
        switch = OtnSwitch("NYC")
        line_a = OtnLine("L1", "NYC", "CHI")
        line_b = OtnLine("L2", "NYC", "CHI")
        switch.attach_line(line_a)
        switch.attach_line(line_b)
        line_a.allocate(7, "existing")
        chosen = switch.best_line_toward("CHI", slots_needed=2)
        assert chosen is line_b

    def test_best_fit_skips_failed_lines(self):
        switch = OtnSwitch("NYC")
        line = OtnLine("L1", "NYC", "CHI")
        switch.attach_line(line)
        line.fail()
        assert switch.best_line_toward("CHI", slots_needed=1) is None

    def test_best_fit_none_when_full(self):
        switch = OtnSwitch("NYC")
        line = OtnLine("L1", "NYC", "CHI")
        switch.attach_line(line)
        line.allocate(8, "existing")
        assert switch.best_line_toward("CHI", slots_needed=1) is None
