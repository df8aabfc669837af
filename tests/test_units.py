"""Unit tests for repro.units: rates, hierarchies, and formatting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units


class TestRateConstants:
    def test_gbps_helper(self):
        assert units.gbps(10) == 10e9

    def test_mbps_helper(self):
        assert units.mbps(622) == 622e6

    def test_terabytes_helper(self):
        assert units.terabytes(1) == 8e12

    def test_week_is_seven_days(self):
        assert units.WEEK == 7 * units.DAY


class TestTransferTime:
    def test_simple_division(self):
        assert units.transfer_time(units.gbps(10), units.gbps(10)) == 1.0

    def test_petabyte_at_forty_gig(self):
        seconds = units.transfer_time(units.PETABYTE, units.gbps(40))
        assert seconds == pytest.approx(8e15 / 40e9)

    def test_zero_volume(self):
        assert units.transfer_time(0, units.gbps(1)) == 0.0

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            units.transfer_time(1.0, 0.0)

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            units.transfer_time(-1.0, 1.0)

    @given(
        volume=st.floats(min_value=0, max_value=1e18),
        rate=st.floats(min_value=1e3, max_value=1e12),
    )
    def test_transfer_time_nonnegative_and_consistent(self, volume, rate):
        seconds = units.transfer_time(volume, rate)
        assert seconds >= 0
        assert math.isclose(seconds * rate, volume, rel_tol=1e-9, abs_tol=1e-6)


class TestFormatting:
    def test_format_rate_gbps(self):
        assert units.format_rate(units.gbps(10)) == "10 Gbps"

    def test_format_rate_mbps(self):
        assert units.format_rate(units.mbps(622)) == "622 Mbps"

    def test_format_rate_sub_kbps(self):
        assert units.format_rate(500) == "500 bps"

    def test_format_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            units.format_rate(-1)

    def test_format_duration_minutes(self):
        assert units.format_duration(120) == "2 min"

    def test_format_duration_weeks(self):
        assert units.format_duration(2 * units.WEEK) == "2 wk"

    def test_format_duration_millis(self):
        assert units.format_duration(0.05) == "50 ms"

    def test_format_duration_rejects_negative(self):
        with pytest.raises(ValueError):
            units.format_duration(-0.1)


class TestOduHierarchy:
    def test_odu0_rate_and_slots(self):
        level = units.ODU_LEVELS["ODU0"]
        assert level.rate_bps == pytest.approx(1.25e9)
        assert level.tributary_slots == 1

    def test_odu2_holds_eight_slots(self):
        assert units.ODU_LEVELS["ODU2"].tributary_slots == 8

    def test_slot_counts_track_rates(self):
        ordered = sorted(units.ODU_LEVELS.values(), key=lambda lv: lv.rate_bps)
        slot_counts = [level.tributary_slots for level in ordered]
        assert slot_counts == sorted(slot_counts)
