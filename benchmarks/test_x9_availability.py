"""X9: connection availability under random fiber cuts.

The paper's opening motivation: CSPs replicate across data centers "to
offer high reliability under failures" — which only works if the
inter-DC connections themselves are available.  We subject the same
connection to a month of Poisson fiber cuts under each restoration
regime and measure availability, then cross-check against the analytic
``MTBF / (MTBF + MTTR)`` with each regime's MTTR.

The study is now a Monte Carlo: four independent seeds per regime,
declared as a :class:`~repro.sweep.spec.SweepSpec` and driven through
the scale-out sweep engine (``griphon sweep x9 --jobs N`` regenerates
it from a shell; that ``--jobs 1`` and ``--jobs N`` aggregate
byte-identically is tier-1:
``tests/test_sweep_engine.py::test_parallel_matches_serial_byte_identically``).
"""

from benchmarks.harness import print_rows
from repro.metrics import availability_from_mtbf_mttr, downtime_minutes_per_year
from repro.sweep import run_sweep, x9_availability_spec
from repro.units import DAY

HORIZON = 28 * DAY
REPEATS = 4

#: Restoration MTTR (seconds) for the analytic cross-check.
RESTORE_MTTR_S = 64.0


def run_study(jobs: int = 1):
    return run_sweep(
        x9_availability_spec(repeats=REPEATS, horizon_s=HORIZON), jobs=jobs
    )


def test_x9_availability_with_and_without_restoration(benchmark):
    result = benchmark.pedantic(run_study, rounds=1, iterations=1)
    assert not result.failed, [r.error for r in result.failed]
    grouped = result.grouped_values()
    griphon = grouped["auto_restore=True"]
    manual = grouped["auto_restore=False"]

    rows = [["regime", "cuts", "availability", "downtime (min/yr equiv)"]]
    for name, means in (
        ("GRIPhoN automated restoration", griphon),
        ("manual repair only", manual),
    ):
        rows.append(
            [
                name,
                f"{means['cuts']:.1f}",
                f"{means['availability']:.5f}",
                f"{downtime_minutes_per_year(means['availability']):,.0f}",
            ]
        )
    print_rows(
        f"X9: one month of fiber cuts ({REPEATS} seeds/regime)", rows
    )
    benchmark.extra_info.update(
        {
            "griphon": griphon["availability"],
            "manual": manual["availability"],
        }
    )

    # Every restoration trial ends with the connection up.
    restore_trials = [
        r for r in result.results if r.params["auto_restore"]
    ]
    assert all(r.values["up"] for r in restore_trials)
    # Restoration keeps the connection essentially always-on...
    assert griphon["availability"] > 0.999
    # ...while waiting for physical repair costs orders of magnitude.
    assert manual["availability"] < griphon["availability"]
    ratio = (1 - manual["availability"]) / (1 - griphon["availability"])
    assert ratio > 20


def test_x9_analytic_cross_check(benchmark):
    """The simulated numbers should agree with MTBF/(MTBF+MTTR) using
    each regime's MTTR (restoration ~64 s vs repair ~6 h), given that
    only cuts on the connection's own path count (per-path MTBF is
    longer than the network-wide MTBF)."""

    def run():
        result = run_study()
        checks = []
        for trial in result.results:
            if not trial.params["auto_restore"]:
                continue
            measured = trial.values["availability"]
            # Path-level MTBF: infer how many cuts actually hit the
            # connection's path from its total outage.
            hits = max(
                1, round(trial.values["total_outage_s"] / RESTORE_MTTR_S)
            )
            per_path_mtbf = HORIZON / hits
            analytic = availability_from_mtbf_mttr(
                per_path_mtbf, RESTORE_MTTR_S
            )
            checks.append((trial.trial_id, measured, analytic))
        return checks

    checks = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["trial", "measured", "analytic MTBF/(MTBF+MTTR)"]]
    for trial_id, measured, analytic in checks:
        rows.append([trial_id, f"{measured:.6f}", f"{analytic:.6f}"])
    print_rows("X9: analytic cross-check (GRIPhoN regime)", rows)
    assert checks
    for trial_id, measured, analytic in checks:
        assert measured == analytic or abs(measured - analytic) < 2e-3, trial_id
