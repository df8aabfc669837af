"""The OTN sub-wavelength layer (ITU-T G.709).

GRIPhoN's OTN layer rides on top of the DWDM layer and provides
sub-wavelength connections: OTN switches cross-connect at ODU0
(1.25 Gbps) granularity, pack client signals into wavelength-rate line
ODUs via tributary slots, and offer automatic sub-second shared-mesh
restoration similar to today's SONET layer (paper §2.1).

* :mod:`repro.otn.line` — tributary-slot capacity of one OTN line;
* :mod:`repro.otn.switch` — OTN switches with client and line ports;
* :mod:`repro.otn.circuit` — ODU circuit records and state machine;
* :mod:`repro.otn.mesh_restoration` — shared-mesh protection manager.
"""
