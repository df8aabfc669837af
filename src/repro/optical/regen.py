"""OEO regenerators (REGENs) and per-node pools.

A regenerator is effectively two transponders back-to-back: it terminates
the optical signal electrically and retransmits it, resetting the
accumulated impairment budget.  Crucially it can retransmit on a
*different* wavelength, so a lightpath with a regen in the middle does
not need wavelength continuity across the regen site.  Client-side FXCs
let GRIPhoN share regens among connections dynamically (paper §3).
"""

from __future__ import annotations

from repro.optical.pool import PooledUnit, UnitPool


class Regenerator(PooledUnit):
    """One OEO regenerator (``regen_id`` e.g. ``'REGEN:CHI:0'``)."""

    __slots__ = ()

    @property
    def regen_id(self) -> str:
        """The regenerator's id."""
        return self.unit_id


class RegenPool(UnitPool):
    """The regenerators installed at one node, grouped by line rate."""

    unit_type = Regenerator
    prefix = "REGEN"
    noun = "regenerator"
