"""The DWDM layer: wavelengths, fiber, ROADMs, transponders, FXCs.

This package models the photonic substrate GRIPhoN's wavelength services
ride on:

* :mod:`repro.optical.wavelength` — the ITU channel grid;
* :mod:`repro.optical.fiber` — per-link wavelength occupancy and failures;
* :mod:`repro.optical.amplifier` — amplifier chains and power transients;
* :mod:`repro.optical.impairments` — optical reach and regen placement;
* :mod:`repro.optical.osnr` — OSNR margin arithmetic for gray failures;
* :mod:`repro.optical.pool` — installed units as per-class bitmasks;
* :mod:`repro.optical.transponder` — tunable OTs and node-local pools;
* :mod:`repro.optical.regen` — OEO regenerators;
* :mod:`repro.optical.roadm` — colorless/non-directional ROADM nodes;
* :mod:`repro.optical.fxc` — client-side fiber cross-connects;
* :mod:`repro.optical.nte` — customer network-terminating equipment;
* :mod:`repro.optical.lightpath` — end-to-end wavelength connections.
"""

from repro.optical.amplifier import AmplifierChain
from repro.optical.fiber import DwdmLink, FiberPlant
from repro.optical.fxc import FiberCrossConnect
from repro.optical.impairments import ReachModel
from repro.optical.lightpath import Lightpath, LightpathState
from repro.optical.nte import NetworkTerminatingEquipment
from repro.optical.osnr import OsnrModel
from repro.optical.regen import Regenerator, RegenPool
from repro.optical.roadm import Roadm
from repro.optical.transponder import Transponder, TransponderPool
from repro.optical.wavelength import WavelengthGrid

__all__ = [
    "AmplifierChain",
    "DwdmLink",
    "FiberPlant",
    "FiberCrossConnect",
    "ReachModel",
    "Lightpath",
    "LightpathState",
    "NetworkTerminatingEquipment",
    "OsnrModel",
    "Regenerator",
    "RegenPool",
    "Roadm",
    "Transponder",
    "TransponderPool",
    "WavelengthGrid",
]
