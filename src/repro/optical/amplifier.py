"""Amplifier chains along a fiber link and power-transient bookkeeping.

Long-haul fiber is amplified every ~80 km by EDFAs.  Two aspects matter
to GRIPhoN (paper §4, "DWDM layer management"):

* the *amplifier count* on a path contributes to OSNR degradation and
  hence to the optical reach limit (see :mod:`repro.optical.impairments`);
* adding or dropping a wavelength perturbs amplifier gain on every span
  it traverses — a *power transient* that the line system must settle
  before the new channel is error-free.  The settle time contributes to
  connection establishment latency and scales with span count, which is
  one reason Table 2's setup time grows with path length.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: Default EDFA spacing in kilometers.
DEFAULT_SPAN_KM = 80.0

#: Per-amplifier settle time for a power transient, in seconds.  With a
#: handful of amplifiers per lab link this yields the ~1 s-scale optical
#: contribution the testbed observed on top of EMS latency.
DEFAULT_SETTLE_PER_AMP_S = 0.35


class AmplifierChain:
    """The EDFA chain on one fiber link.

    Attributes:
        length_km: Fiber length of the link.
        span_km: Amplifier spacing.
    """

    #: Default per-span gain target: exactly compensating an 80 km span
    #: at 0.25 dB/km.  The provisioned value is recorded in inventory so
    #: the invariant auditor can cross-check the live setting.
    DEFAULT_GAIN_DB = 20.0

    __slots__ = (
        "length_km", "span_km", "_settle_per_amp_s", "target_gain_db", "gain_db",
    )

    def __init__(
        self,
        length_km: float,
        span_km: float = DEFAULT_SPAN_KM,
        settle_per_amp_s: float = DEFAULT_SETTLE_PER_AMP_S,
        target_gain_db: float = DEFAULT_GAIN_DB,
    ) -> None:
        if length_km <= 0:
            raise ConfigurationError(f"length must be positive, got {length_km}")
        if span_km <= 0:
            raise ConfigurationError(f"span must be positive, got {span_km}")
        if settle_per_amp_s < 0:
            raise ConfigurationError(
                f"settle time must be >= 0, got {settle_per_amp_s}"
            )
        self.length_km = length_km
        self.span_km = span_km
        self._settle_per_amp_s = settle_per_amp_s
        #: The provisioned (inventory-recorded) per-amp gain setting.
        self.target_gain_db = target_gain_db
        #: The live gain setting, mutated by gray-failure injection and
        #: restored by remediation; audited against the target.
        self.gain_db = target_gain_db

    def set_gain(self, gain_db: float) -> None:
        """Set the live per-amp gain (gray-failure injection)."""
        self.gain_db = gain_db

    def reset_gain(self) -> None:
        """Restore the live gain to the provisioned target."""
        self.gain_db = self.target_gain_db

    @property
    def gain_error_db(self) -> float:
        """Absolute deviation of the live gain from the target, in dB."""
        return abs(self.gain_db - self.target_gain_db)

    @property
    def amplifier_count(self) -> int:
        """Number of amplified spans on the link (at least 1).

        Counts the terminal amplifier too, so an 80 km lab link has one
        amplifier and a 400 km route has five.
        """
        return max(1, math.ceil(self.length_km / self.span_km))

    def transient_settle_time(self) -> float:
        """Seconds for the chain to settle after a channel add/drop."""
        return self.amplifier_count * self._settle_per_amp_s
