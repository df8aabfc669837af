"""GRIPhoN: bandwidth on demand for inter-data center communication.

A full reproduction (in simulation) of the HotNets 2011 paper by
Mahimkar et al. (AT&T Labs Research).  The package provides:

* ``repro.sim`` — deterministic discrete-event simulation kernel;
* ``repro.topo`` — network graphs, the Fig. 4 testbed, a synthetic backbone;
* ``repro.optical`` — the DWDM layer: ROADMs, transponders, FXCs, reach;
* ``repro.otn`` — the OTN sub-wavelength layer (ODU switching, mesh
  restoration);
* ``repro.legacy`` — today's SONET / W-DCS layers for baselines;
* ``repro.ems`` — element-management latency models (the source of the
  paper's 60–70 s connection setup times);
* ``repro.core`` — the GRIPhoN controller and the customer-facing
  bandwidth-on-demand service API (the paper's contribution);
* ``repro.workload`` / ``repro.baselines`` / ``repro.metrics`` — traffic
  generators, comparison systems, and measurement utilities.

The packages re-export nothing: import a name from the module that
defines it, so a run loads only the modules it uses.

Quickstart::

    from repro.facade import build_griphon_testbed

    net = build_griphon_testbed(seed=1)
    service = net.service_for("csp-alpha")
    conn = service.request_connection("PREMISES-A", "PREMISES-C", rate_gbps=10)
    net.sim.run()
    print(conn.state, conn.setup_duration)
"""

from repro._version import __version__
