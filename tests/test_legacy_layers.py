"""Tests for the legacy SONET / W-DCS / EVC layers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    ResourceError,
)
from repro.legacy.evc import provision_epl, sts1_count_for_rate
from repro.legacy.sonet import PROTECTION_SWITCH_TIME_S, SonetRing
from repro.legacy.wdcs import WidebandDcs
from repro.units import DS1_RATE, gbps, mbps


@pytest.fixture
def ring():
    return SonetRing("R1", ["NYC", "DCA", "ATL", "CHI"], line_sts=48)


class TestSonetRingConstruction:
    def test_span_count_equals_nodes(self, ring):
        assert ring.span_count == 4

    def test_working_is_half_line(self, ring):
        assert ring.working_capacity == 24

    def test_too_few_nodes(self):
        with pytest.raises(ConfigurationError):
            SonetRing("R", ["NYC"])

    def test_duplicate_nodes(self):
        with pytest.raises(ConfigurationError):
            SonetRing("R", ["NYC", "NYC"])

    def test_odd_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SonetRing("R", ["A", "B"], line_sts=3)


class TestSonetProvisioning:
    def test_takes_short_direction_when_equal(self, ring):
        circuit = ring.provision("NYC", "DCA", sts=3)
        assert circuit.spans == [0]
        assert ring.working_free(0) == 21

    def test_capacity_aware_direction_choice(self, ring):
        # Fill the short way so the next circuit routes the long way.
        ring.provision("NYC", "DCA", sts=24)
        circuit = ring.provision("NYC", "DCA", sts=1)
        assert circuit.spans == [1, 2, 3]

    def test_full_ring_blocks(self, ring):
        ring.provision("NYC", "DCA", sts=24)
        ring.provision("DCA", "NYC", sts=24)  # takes the other arc
        with pytest.raises(CapacityExceededError):
            ring.provision("NYC", "DCA", sts=1)

    def test_bad_arguments(self, ring):
        with pytest.raises(ConfigurationError):
            ring.provision("NYC", "NYC")
        with pytest.raises(ConfigurationError):
            ring.provision("NYC", "SEA")
        with pytest.raises(ConfigurationError):
            ring.provision("NYC", "DCA", sts=0)

    def test_release_returns_capacity(self, ring):
        circuit = ring.provision("NYC", "DCA", sts=5)
        ring.release(circuit.circuit_id)
        assert ring.working_free(0) == 24

    def test_release_unknown(self, ring):
        with pytest.raises(ResourceError):
            ring.release("ghost")

    @given(sts=st.integers(min_value=1, max_value=24))
    def test_provision_release_is_lossless(self, sts):
        ring = SonetRing("R", ["A", "B", "C"], line_sts=48)
        before = [ring.working_free(s) for s in range(ring.span_count)]
        circuit = ring.provision("A", "C", sts=sts)
        ring.release(circuit.circuit_id)
        after = [ring.working_free(s) for s in range(ring.span_count)]
        assert before == after


class TestSonetProtection:
    def test_protection_switch_is_subsecond_constant(self):
        assert PROTECTION_SWITCH_TIME_S < 1.0

    def test_span_failure_switches_circuits(self, ring):
        circuit = ring.provision("NYC", "DCA", sts=2)
        switched = ring.fail_span(0)
        assert switched == [circuit]
        assert circuit.on_protection

    def test_unaffected_circuits_stay_working(self, ring):
        affected = ring.provision("NYC", "DCA", sts=1)
        bystander = ring.provision("ATL", "CHI", sts=1)
        ring.fail_span(0)
        assert affected.on_protection
        assert not bystander.on_protection

    def test_double_failure_blocks_protection(self, ring):
        circuit = ring.provision("NYC", "DCA", sts=1)
        ring.fail_span(2)  # pre-existing failure on the protection arc
        switched = ring.fail_span(0)
        assert switched == []
        assert not circuit.on_protection

    def test_repair_reverts(self, ring):
        circuit = ring.provision("NYC", "DCA", sts=2)
        ring.fail_span(0)
        reverted = ring.repair_span(0)
        assert reverted == [circuit]
        assert not circuit.on_protection
        assert ring.working_free(0) == 22

    def test_refail_same_span_is_noop(self, ring):
        ring.provision("NYC", "DCA", sts=1)
        ring.fail_span(0)
        assert ring.fail_span(0) == []

    def test_release_while_on_protection(self, ring):
        circuit = ring.provision("NYC", "DCA", sts=2)
        ring.fail_span(0)
        ring.release(circuit.circuit_id)
        # Protection capacity on the long arc must be returned.
        follower = ring.provision("DCA", "NYC", sts=24)
        assert follower.spans == [1, 2, 3]

    def test_invalid_span(self, ring):
        with pytest.raises(ConfigurationError):
            ring.fail_span(9)


class TestWidebandDcs:
    def test_connect_tracks_capacity(self):
        dcs = WidebandDcs("W1", ds1_capacity=10)
        connection = dcs.connect("officeA", "officeB", ds1_count=2)
        assert connection.rate_bps == pytest.approx(2 * DS1_RATE)
        assert dcs.ds1_free == 6

    def test_exhaustion(self):
        dcs = WidebandDcs("W1", ds1_capacity=2)
        dcs.connect("a", "b", ds1_count=1)
        with pytest.raises(CapacityExceededError):
            dcs.connect("a", "c", ds1_count=1)

    def test_disconnect_returns_capacity(self):
        dcs = WidebandDcs("W1", ds1_capacity=4)
        connection = dcs.connect("a", "b", ds1_count=1)
        dcs.disconnect(connection.connection_id)
        assert dcs.ds1_free == 4
        assert dcs.connections() == []

    def test_validation(self):
        dcs = WidebandDcs("W1")
        with pytest.raises(ConfigurationError):
            dcs.connect("a", "a")
        with pytest.raises(ConfigurationError):
            dcs.connect("a", "b", ds1_count=0)
        with pytest.raises(ResourceError):
            dcs.disconnect("ghost")
        with pytest.raises(ConfigurationError):
            WidebandDcs("W2", ds1_capacity=0)


class TestEthernetPrivateLine:
    def test_gig_e_needs_sts1_21v(self):
        """The textbook VCAT sizing: 1 GbE -> STS-1-21v."""
        assert sts1_count_for_rate(gbps(1)) == 21

    def test_hundred_meg_needs_three(self):
        assert sts1_count_for_rate(mbps(100)) == 3

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            sts1_count_for_rate(0)

    def test_provision_epl_takes_ring_slots(self, ring):
        epl = provision_epl(ring, "epl-1", "NYC", "DCA", mbps(100))
        assert epl.provisioned
        assert epl.vcat_members == 3
        assert ring.working_free(0) == 21

    def test_epl_too_big_for_ring(self, ring):
        with pytest.raises(CapacityExceededError):
            provision_epl(ring, "epl-1", "NYC", "DCA", gbps(10))

    def test_transport_overhead_positive(self, ring):
        epl = provision_epl(ring, "epl-1", "NYC", "DCA", gbps(1))
        assert 0 < epl.transport_overhead < 0.1
