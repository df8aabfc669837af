"""The GRIPhoN controller — the paper's primary contribution.

"Connection establishment and release based on requests from the CSP are
handled by the GRIPhoN controller.  The controller is responsible for
keeping track of the available network resources in its database,
communication with the network elements (FXC controllers, OTN switch
EMS, ROADM EMS and NTE controllers) in order to create or tear down the
connections ordered by the CSPs, capacity and resource management,
inventory database management, failure detection, localization and
automated restorations."  (paper §2.2)

Sub-modules, in dependency order:

* :mod:`repro.core.inventory` — the controller's resource database;
* :mod:`repro.core.rwa` — routing and wavelength assignment;
* :mod:`repro.core.connection` — customer connection records;
* :mod:`repro.core.provisioning` — resource claiming with rollback plus
  the timed EMS-step choreography for setup/teardown;
* :mod:`repro.core.grooming` — the OTN sub-wavelength path engine;
* :mod:`repro.core.admission` — customers, quotas, isolation;
* :mod:`repro.core.controller` — the controller facade (orders,
  failure detection and automated restoration, bridge-and-roll);
* :mod:`repro.core.maintenance` — planned-maintenance orchestration;
* :mod:`repro.core.regrooming` — §4's network re-grooming;
* :mod:`repro.core.planning` — §4's Erlang-B resource planning;
* :mod:`repro.core.calendar` — advance reservations (scheduled BoD);
* :mod:`repro.core.reclamation` — idle OTN-line garbage collection;
* :mod:`repro.core.service` — the per-customer BoD service API;
* :mod:`repro.core.gui` — customer and operator text views.
"""

from repro.core.admission import AdmissionControl, CustomerProfile
from repro.core.calendar import Reservation, ReservationBook, ReservationState
from repro.core.connection import Connection, ConnectionKind, ConnectionState
from repro.core.controller import GriphonController
from repro.core.inventory import InventoryDatabase
from repro.core.maintenance import MaintenanceScheduler
from repro.core.planning import DemandForecast, ResourcePlanner
from repro.core.reclamation import OtnLineReclaimer
from repro.core.regrooming import RegroomingEngine
from repro.core.rwa import RwaEngine, RwaPlan
# ServiceDegraded/SetupFailed moved to repro.api; re-exported here so
# historical imports keep working.
from repro.api import ServiceDegraded, SetupFailed
from repro.core.service import BodService, FaultReport

__all__ = [
    "AdmissionControl",
    "CustomerProfile",
    "Reservation",
    "ReservationBook",
    "ReservationState",
    "Connection",
    "ConnectionKind",
    "ConnectionState",
    "GriphonController",
    "InventoryDatabase",
    "MaintenanceScheduler",
    "DemandForecast",
    "ResourcePlanner",
    "OtnLineReclaimer",
    "RegroomingEngine",
    "RwaEngine",
    "RwaPlan",
    "BodService",
    "FaultReport",
    "ServiceDegraded",
    "SetupFailed",
]
