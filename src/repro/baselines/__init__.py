"""Comparison systems: how things work *without* GRIPhoN.

Table 1 compares GRIPhoN against today's reality on four dimensions;
these baselines make that column executable:

* :mod:`repro.baselines.manual_ops` — weeks-long manual provisioning and
  4–12 hour manual restoration;
* :mod:`repro.baselines.protection` — 1+1 protection: millisecond
  switchover at double the resource cost;
* :mod:`repro.baselines.static_provisioning` — peak-provisioned leased
  lines (the economics comparator for BoD);
* :mod:`repro.baselines.store_forward` — a NetStitcher-style store-and-
  forward bulk scheduler over *existing* leftover capacity.
"""
