"""Units, data rates, and the standard rate hierarchies used throughout.

All data rates in the library are expressed in **bits per second** (plain
``float``), all times in **seconds**, and all data volumes in **bits**.
This module provides the named constants and conversion helpers so callers
never write raw powers of ten, plus the legacy DS-level rates and the OTN
``ODUk`` rate table the carrier layers are built on.
"""

from __future__ import annotations

from dataclasses import dataclass

# --------------------------------------------------------------------------
# Base multipliers (bits per second).
# --------------------------------------------------------------------------

KBPS = 1e3
MBPS = 1e6
GBPS = 1e9
TBPS = 1e12

# Convenience byte-volume multipliers (bits).
KILOBYTE = 8e3
MEGABYTE = 8e6
GIGABYTE = 8e9
TERABYTE = 8e12
PETABYTE = 8e15

# Time multipliers (seconds).
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY


def gbps(value: float) -> float:
    """Return ``value`` gigabits per second expressed in bits per second."""
    return value * GBPS


def mbps(value: float) -> float:
    """Return ``value`` megabits per second expressed in bits per second."""
    return value * MBPS


def terabytes(value: float) -> float:
    """Return ``value`` terabytes expressed in bits."""
    return value * TERABYTE


def transfer_time(volume_bits: float, rate_bps: float) -> float:
    """Return the seconds needed to move ``volume_bits`` at ``rate_bps``.

    Raises:
        ValueError: if the rate is not positive or the volume is negative.
    """
    if rate_bps <= 0:
        raise ValueError(f"transfer rate must be positive, got {rate_bps}")
    if volume_bits < 0:
        raise ValueError(f"volume must be non-negative, got {volume_bits}")
    return volume_bits / rate_bps


def format_rate(rate_bps: float) -> str:
    """Render a rate with the most natural SI prefix, e.g. ``'10.0 Gbps'``."""
    if rate_bps < 0:
        raise ValueError(f"rate must be non-negative, got {rate_bps}")
    for unit, name in ((TBPS, "Tbps"), (GBPS, "Gbps"), (MBPS, "Mbps"), (KBPS, "kbps")):
        if rate_bps >= unit:
            return f"{rate_bps / unit:.4g} {name}"
    return f"{rate_bps:.4g} bps"


def format_duration(seconds: float) -> str:
    """Render a duration human-readably, e.g. ``'2.0 min'`` or ``'3.5 h'``."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds >= WEEK:
        return f"{seconds / WEEK:.4g} wk"
    if seconds >= DAY:
        return f"{seconds / DAY:.4g} d"
    if seconds >= HOUR:
        return f"{seconds / HOUR:.4g} h"
    if seconds >= MINUTE:
        return f"{seconds / MINUTE:.4g} min"
    if seconds >= 1:
        return f"{seconds:.4g} s"
    return f"{seconds * 1e3:.4g} ms"


#: DS-level legacy TDM rates handled by the W-DCS layer.
DS0_RATE = 64 * KBPS
DS1_RATE = 1.544 * MBPS
DS3_RATE = 44.736 * MBPS


# --------------------------------------------------------------------------
# OTN (ITU-T G.709) ODU hierarchy.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OduLevel:
    """One level of the ODU multiplexing hierarchy.

    Attributes:
        name: Canonical name, e.g. ``'ODU2'``.
        rate_bps: Approximate payload rate in bits per second.
        tributary_slots: Number of 1.25G tributary slots the container
            occupies when multiplexed into a higher-order ODU.
    """

    name: str
    rate_bps: float
    tributary_slots: int


#: The ODU levels GRIPhoN's OTN layer switches.  ODU0 is the paper's
#: 1.25 Gbps cross-connect granularity (carrying 1 GbE clients).
ODU_LEVELS = {
    "ODU0": OduLevel("ODU0", 1.25 * GBPS, 1),
    "ODU1": OduLevel("ODU1", 2.5 * GBPS, 2),
    "ODU2": OduLevel("ODU2", 10.04 * GBPS, 8),
    "ODU3": OduLevel("ODU3", 40.32 * GBPS, 32),
    "ODU4": OduLevel("ODU4", 104.79 * GBPS, 80),
}
