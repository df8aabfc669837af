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
* :mod:`repro.core.controller` — the controller facade (orders and
  their claims ledger);
* :mod:`repro.core.restoration` — failure detection, localization and
  automated restoration of every failed lightpath of a connection;
* :mod:`repro.core.migration` — bridge-and-roll, the one locked path
  every migration driver moves a connection through;
* :mod:`repro.core.maintenance` — planned-maintenance orchestration;
* :mod:`repro.core.regrooming` — §4's network re-grooming;
* :mod:`repro.core.planning` — §4's Erlang-B resource planning;
* :mod:`repro.core.calendar` — advance reservations (scheduled BoD);
* :mod:`repro.core.reclamation` — idle OTN-line garbage collection;
* :mod:`repro.core.service` — the per-customer BoD service API;
* :mod:`repro.core.gui` — customer and operator text views.
"""
