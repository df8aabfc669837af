"""Inter-data-center workloads.

The paper motivates BoD with two traffic classes (§1): non-interactive
**bulk transfers** (backup/replication, terabytes to petabytes, run by
cloud operators, tolerant of scheduling) and **interactive** end-user
traffic (diurnal, latency-sensitive).  This package generates both:

* :mod:`repro.workload.arrivals` — Poisson and diurnal arrival processes;
* :mod:`repro.workload.bulk` — heavy-tailed bulk replication jobs driven
  through a BoD service;
* :mod:`repro.workload.interactive` — diurnal bandwidth-demand curves;
* :mod:`repro.workload.failures` — Poisson fiber cuts with hours-long
  repairs;
* :mod:`repro.workload.tenants` — heavy-tailed (Zipf) tenant
  populations with lazy profile registration, for the service-frontend
  load benchmarks.
"""
