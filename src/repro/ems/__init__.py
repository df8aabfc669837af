"""Element management systems (EMS) with per-step latency models.

The paper's headline measurement — 60–70 s wavelength connection
establishment — decomposes into "(i) ROADM Element Management System
(EMS) configuration steps, and (ii) optical tasks, such as ROADM
reconfiguration, laser tuning, power balancing and link equalization"
(§3).  This package times those steps; two modules:

* :mod:`repro.ems.latency` — the step-duration catalog and sampler;
* :mod:`repro.ems.roadm_ems` — the ROADM EMS: per-link amplifier chains,
  link equalization and end-to-end verification.

Claim mutates, steps take time: :meth:`repro.core.provisioning.
LightpathProvisioner.claim` applies every network-element mutation when
the order is accepted, and the setup / teardown workflows yield one
:class:`LatencyModel` **duration** per configuration step to the
simulator.  The other vendor interfaces (``fxc_ctl``, ``otn_ems``) exist
as the EMS *names* a step is issued under — what a
:class:`repro.faults.plan.FaultSpec` matches — not as objects.
"""
