"""X7: resource planning validation and the DWDM speedup frontier.

Two §4 research-challenge studies:

* **planning**: size the transponder pools with the Erlang-B planner,
  then drive the simulated network with the forecast load and check the
  realized blocking honors the target — while a half-sized pool visibly
  violates it ("accurate planning far more critical");
* **DWDM layer management**: the paper stresses the 60-70 s setup "is
  not constrained by any fundamental limitations"; we sweep a vendor
  speedup factor over the EMS/optical steps and chart the establishment
  time frontier down to seconds.
"""

from benchmarks.harness import print_rows
from repro.core.connection import ConnectionState
from repro.core.planning import DemandForecast, ResourcePlanner
from repro.ems.latency import LatencyModel
from repro.facade import build_griphon_testbed
from repro.sim import Process
from repro.units import HOUR, gbps


def drive_forecast_load(net, pairs, arrivals_per_hour, hold_hours, requests):
    """Offer Poisson-ish load matching the forecast; return blocking."""
    svc = net.service_for(
        "csp", max_connections=256, max_total_rate_gbps=100000
    )
    gap = 3600.0 / (arrivals_per_hour * len(pairs))
    blocked = 0
    for index in range(requests):
        a, b = pairs[index % len(pairs)]
        conn = svc.request_connection(a, b, 10)
        if conn.state is ConnectionState.BLOCKED:
            blocked += 1
        else:
            net.sim.schedule(
                hold_hours * HOUR, svc.teardown_connection, conn.connection_id
            )
        net.run(until=net.sim.now + gap)
    net.run()
    return blocked / requests


def run_planning_validation():
    pairs = [
        ("PREMISES-A", "PREMISES-B"),
        ("PREMISES-A", "PREMISES-C"),
        ("PREMISES-B", "PREMISES-C"),
    ]
    pops = {
        "PREMISES-A": "ROADM-I",
        "PREMISES-B": "ROADM-III",
        "PREMISES-C": "ROADM-IV",
    }
    arrivals_per_hour = 2.0  # per pair
    hold_hours = 1.0
    forecasts = [
        DemandForecast(pops[a], pops[b], arrivals_per_hour, hold_hours)
        for a, b in pairs
    ]
    planner = ResourcePlanner()
    pools = planner.size_pools(
        forecasts, target_blocking=0.02, restoration_headroom=0
    )
    planned_size = max(pools.values())

    realized = {}
    for label, size in (
        ("planned", planned_size),
        ("half-planned", max(1, planned_size // 2)),
    ):
        net = build_griphon_testbed(
            seed=740,
            latency_cv=0.0,
            ots_per_node_10g=size,
            nte_interfaces=16,
        )
        realized[label] = drive_forecast_load(
            net, pairs, arrivals_per_hour, hold_hours, requests=60
        )
    return planned_size, realized


def test_x7_planning_validation(benchmark):
    planned_size, realized = benchmark.pedantic(
        run_planning_validation, rounds=1, iterations=1
    )
    rows = [
        ["pool sizing", "OTs/node", "realized blocking"],
        ["Erlang-B planned (2% target)", str(planned_size),
         f"{realized['planned']:.1%}"],
        ["half the plan", str(max(1, planned_size // 2)),
         f"{realized['half-planned']:.1%}"],
    ]
    print_rows("X7: planner-sized pools vs realized blocking", rows)
    benchmark.extra_info.update(realized)

    # The planned pool keeps blocking near the target; note the sim's
    # deterministic arrival pattern is burstier than Poisson, so allow
    # modest slack above the 2% design point.
    assert realized["planned"] <= 0.10
    # Halving the pool visibly violates the target.
    assert realized["half-planned"] > realized["planned"]
    assert realized["half-planned"] > 0.10


def run_speedup_sweep():
    results = {}
    for speedup in (1, 2, 5, 10, 30):
        net = build_griphon_testbed(seed=760, latency_cv=0.0)
        fast = LatencyModel(net.streams, cv=0.0, speedup=float(speedup))
        net.controller.set_latency_model(fast)
        plan = net.controller.rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        lightpath = net.controller.provisioner.claim(plan)
        start = net.sim.now
        Process(net.sim, net.controller.provisioner.setup_workflow(lightpath))
        net.run()
        results[speedup] = net.sim.now - start
    return results


def test_x7_dwdm_speedup_frontier(benchmark):
    results = benchmark.pedantic(run_speedup_sweep, rounds=1, iterations=1)
    rows = [["vendor speedup", "establishment time (s)"]]
    for speedup, seconds in sorted(results.items()):
        rows.append([f"{speedup}x", f"{seconds:.2f}"])
    print_rows("X7: DWDM-layer speedup frontier (setup time)", rows)
    from repro.metrics import bar_chart

    print(
        bar_chart(
            [(f"{k}x", round(v, 2)) for k, v in sorted(results.items())],
            unit=" s",
        )
    )
    benchmark.extra_info.update({str(k): v for k, v in results.items()})

    ordered = [results[k] for k in sorted(results)]
    assert ordered == sorted(ordered, reverse=True)
    # Amplifier-settle physics (the `extra` term) does not scale with
    # vendor software, so the curve flattens above ~x30 rather than
    # reaching zero: "the entire system's dynamics [must] be considered".
    assert results[1] / results[30] < 31
    # The floor is the unscaled amplifier settle plus residual steps.
    assert results[30] > 0.3
