"""X4: BoD economics vs static provisioning and store-and-forward.

The paper's motivation (§1): inter-DC demand is dominated by bursty
bulk transfers over a diurnal interactive floor, so statically leasing
peak capacity strands most of it.  We compare three ways to serve the
same workload:

* **static**: lease the peak, pay around the clock;
* **BoD (GRIPhoN)**: track demand hourly with 1G granularity, and run
  bulk jobs on on-demand wavelengths;
* **store-and-forward (NetStitcher-like)**: no new capacity, bulk data
  rides the leftover bandwidth of the static interactive pipes.
"""

import statistics

from benchmarks.harness import print_rows
from repro.baselines.static_provisioning import StaticProvisioningPlan
from repro.baselines.store_forward import StoreForwardScheduler
from repro.facade import build_griphon_testbed
from repro.units import GBPS, HOUR, TERABYTE, gbps, terabytes, transfer_time
from repro.workload.bulk import BulkTransferWorkload
from repro.workload.interactive import InteractiveDemand


def interactive_capacity_hours():
    """Static vs demand-tracking capacity-hours for interactive load."""
    demand = InteractiveDemand(
        ("DC-EAST", "DC-WEST"), base_gbps=6.0, amplitude=0.6, peak_hour=20.0
    )
    series = demand.hourly_series(24)
    static = StaticProvisioningPlan(series, granularity_bps=gbps(10))
    tracking = demand.capacity_hours_tracking(24, granularity_bps=gbps(1))
    return static, tracking, series


def bulk_completion_bod(volume_bits, samples=3):
    """Request-to-done latency for a bulk job on a BoD wavelength."""
    times = []
    for i in range(samples):
        net = build_griphon_testbed(seed=500 + i, latency_cv=0.0)
        svc = net.service_for("csp")
        workload = BulkTransferWorkload(
            net.sim,
            net.streams,
            svc,
            premises=["PREMISES-A", "PREMISES-C"],
            rate_policy="wavelength",
        )
        record = workload.submit_job()
        record.volume_bits = volume_bits  # fixed-size job
        # Re-run the timing with the fixed volume: cancel nothing, the
        # watcher reads volume at completion scheduling time, so patch
        # before the connection comes up.
        net.run()
        times.append(record.completion_time)
    return statistics.fmean(times)


def bulk_completion_store_forward(volume_bits, series):
    """Completion over the leftover capacity of the static pipe."""
    static = StaticProvisioningPlan(series, granularity_bps=gbps(10))
    leftover = [static.leased_capacity_bps - d for d in series]
    scheduler = StoreForwardScheduler({"east-west": leftover})
    return scheduler.hop_completion_time("east-west", volume_bits)


def test_x4_capacity_hours(benchmark):
    def run():
        return interactive_capacity_hours()

    static, tracking, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    static_ch = static.capacity_hours() / (GBPS * 1)
    tracking_ch = tracking / (GBPS * 1)
    rows = [
        ["provisioning", "capacity-hours (G-h / day)", "utilization"],
        ["static peak lease", f"{static_ch:.0f}", f"{static.utilization():.0%}"],
        ["BoD hourly tracking", f"{tracking_ch:.0f}", "-"],
    ]
    print_rows("X4: interactive capacity-hours, static vs BoD", rows)
    benchmark.extra_info["static_gh"] = static_ch
    benchmark.extra_info["bod_gh"] = tracking_ch

    # BoD tracks demand, so it bills materially fewer capacity-hours.
    assert tracking < static.capacity_hours()
    assert tracking / static.capacity_hours() < 0.75
    # And static utilization is poor — the stranded-capacity motivation.
    assert static.utilization() <= 0.65


def test_x4_bulk_completion_times(benchmark):
    volume = terabytes(20)

    def run():
        _, _, series = interactive_capacity_hours()
        bod = bulk_completion_bod(volume)
        snf = bulk_completion_store_forward(volume, series)
        direct = transfer_time(volume, gbps(10))
        return bod, snf, direct

    bod, snf, direct = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["scheme", "20 TB completion (h)"],
        ["BoD 10G wavelength (GRIPhoN)", f"{bod / HOUR:.2f}"],
        ["store-and-forward on leftovers", f"{snf / HOUR:.2f}"],
        ["ideal dedicated 10G (lower bound)", f"{direct / HOUR:.2f}"],
    ]
    print_rows("X4: bulk transfer completion", rows)
    benchmark.extra_info["bod_h"] = bod / HOUR
    benchmark.extra_info["snf_h"] = snf / HOUR

    # BoD pays only the ~1 min setup over the dedicated lower bound.
    assert direct < bod < direct + 300
    # Store-and-forward needs no new capacity but is slower when the
    # leftover is thin (peak-provisioned pipe leaves ~4G on average
    # against BoD's dedicated 10G).
    assert snf > bod
    # Crossover intuition: with a *mostly idle* static pipe the leftover
    # approach can compete; check the factor is in a sane band, not huge.
    assert 1.2 < snf / bod < 6.0


def test_x4_blocking_under_load(benchmark):
    """BoD under heavy bulk load: some requests block (the carrier's
    pool is finite), which is the resource-planning hook for X5."""

    def run():
        net = build_griphon_testbed(seed=520, latency_cv=0.0)
        svc = net.service_for(
            "csp", max_connections=64, max_total_rate_gbps=10000
        )
        workload = BulkTransferWorkload(
            net.sim,
            net.streams,
            svc,
            premises=["PREMISES-A", "PREMISES-B", "PREMISES-C"],
            mean_volume_bits=40 * TERABYTE,
            rate_policy="wavelength",
        )
        for _ in range(30):
            workload.submit_job()
        net.run(until=12 * HOUR)
        return workload

    workload = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = workload.blocking_ratio()
    print_rows(
        "X4: blocking under simultaneous bulk load",
        [["jobs", "blocked"], [str(len(workload.records)), f"{ratio:.0%}"]],
    )
    assert 0.0 < ratio < 1.0  # finite pool: some block, some run
