"""End-to-end order-path benchmark for the GRIPhoN reproduction.

``python -m bench`` drives four named workloads through
``BodFrontend`` -> intake -> stitch -> RWA -> claim -> EMS -> kernel and
reports ten end-to-end metrics; ``python -m bench --trace`` adds the
per-layer wall-clock attribution.  See ``bench/README.md``.
"""

#: Every workload's topology is built from this seed; ``--seed`` moves
#: only the load schedule.
TOPOLOGY_SEED = 2026
