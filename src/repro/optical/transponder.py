"""Wavelength-tunable optical transponders (OTs) and per-node pools.

An OT converts a standard client-side optical signal to a tuned line-side
DWDM signal.  GRIPhoN installs OTs at ROADM add/drop ports; because the
ports are colorless and non-directional, *any* free OT at a node can
serve *any* wavelength toward *any* degree — which is exactly what makes
the FXC-based dynamic sharing of transponders worthwhile (paper §2.2).
Tuning the laser is the ``ot.tune`` EMS step of a setup workflow; an
idle OT carries no state, so a pool counts its idle OTs
(:mod:`repro.optical.pool`).
"""

from __future__ import annotations

from repro.optical.pool import PooledUnit, UnitPool


class Transponder(PooledUnit):
    """One tunable OT (``ot_id`` e.g. ``'OT:ROADM-I:3'``)."""

    __slots__ = ()

    @property
    def ot_id(self) -> str:
        """The OT's id."""
        return self.unit_id


class TransponderPool(UnitPool):
    """The OTs installed at one node, grouped by line rate.

    The pool is the unit of the carrier's resource planning problem
    (paper §4): too few OTs means blocked BoD requests, too many means
    stranded capital.
    """

    __slots__ = ()

    unit_type = Transponder
    prefix = "OT"
    noun = "transponder"
