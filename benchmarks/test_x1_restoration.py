"""X1: restoration-time comparison across mechanisms.

The paper's claims (§1, Table 1): for low-rate services restoration is
milliseconds (SONET APS; OTN shared mesh is sub-second); for full
wavelengths today the choices are expensive 1+1 (milliseconds, double
cost) or manual repair (4-12 hours); GRIPhoN adds automated wavelength
re-provisioning in about a minute at no standing resource cost.
"""

import statistics

from benchmarks.harness import print_rows
from repro.baselines.manual_ops import ManualOperations
from repro.baselines.protection import OnePlusOneProtection
from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.legacy.sonet import PROTECTION_SWITCH_TIME_S, SonetRing
from repro.sim.randomness import RandomStreams
from repro.units import HOUR, MINUTE, format_duration


def measure_sonet():
    ring = SonetRing("r", ["A", "B", "C", "D"], line_sts=48)
    circuit = ring.provision("A", "B", sts=3)
    switched = ring.fail_span(circuit.spans[0])
    assert switched
    return PROTECTION_SWITCH_TIME_S


def measure_otn_mesh(samples=5):
    outages = []
    for i in range(samples):
        net = build_griphon_testbed(seed=300 + i, latency_cv=0.0)
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        circuit = net.inventory.circuits[conn.circuit_ids[0]]
        line = net.inventory.otn_lines[circuit.line_ids[0]]
        lightpath = net.inventory.lightpaths[
            net.controller._line_lightpath[line.line_id]
        ]
        net.controller.cut_link(lightpath.path[0], lightpath.path[1])
        net.run()
        outages.append(conn.total_outage_s)
    return statistics.fmean(outages)


def measure_one_plus_one(samples=5):
    outages = []
    for i in range(samples):
        net = build_griphon_testbed(seed=320 + i, latency_cv=0.0)
        protection = OnePlusOneProtection(
            net.inventory, net.controller.rwa, net.controller.provisioner
        )
        pair = protection.claim_pair("ROADM-I", "ROADM-IV", 10e9)
        net.inventory.plant.cut_link(pair.working.path[0], pair.working.path[1])
        outages.append(protection.on_failure(pair))
    return statistics.fmean(outages)


def measure_griphon(samples=5):
    outages = []
    for i in range(samples):
        net = build_griphon_testbed(seed=340 + i)
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        net.controller.cut_link(lightpath.path[0], lightpath.path[1])
        net.run()
        assert conn.state is ConnectionState.UP
        outages.append(conn.total_outage_s)
    return statistics.fmean(outages)


def measure_manual(samples=10):
    manual = ManualOperations(RandomStreams(55))
    return statistics.fmean(manual.restoration_time() for _ in range(samples))


def measure_ip_reroute(samples=5):
    outages = []
    for i in range(samples):
        net = build_griphon_testbed(seed=380 + i, latency_cv=0.0)
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 0.5)
        net.run()
        evc = net.controller.ip_layer.evcs[0]
        net.controller.cut_link(evc.path[0], evc.path[1])
        net.run()
        outages.append(conn.total_outage_s)
    return statistics.fmean(outages)


def test_x1_restoration_comparison(benchmark):
    def run():
        return {
            "SONET APS (legacy, low-rate)": measure_sonet(),
            "IP/EVC reroute (packet, <1G)": measure_ip_reroute(),
            "OTN shared mesh (GRIPhoN sub-wavelength)": measure_otn_mesh(),
            "1+1 protection (2x cost)": measure_one_plus_one(),
            "GRIPhoN wavelength re-provisioning": measure_griphon(),
            "manual repair (today's unprotected wavelength)": measure_manual(),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["mechanism", "mean outage"]]
    for name, outage in results.items():
        rows.append([name, format_duration(outage)])
    print_rows("X1: restoration time by mechanism", rows)
    benchmark.extra_info.update(
        {name: outage for name, outage in results.items()}
    )

    sonet = results["SONET APS (legacy, low-rate)"]
    ip = results["IP/EVC reroute (packet, <1G)"]
    mesh = results["OTN shared mesh (GRIPhoN sub-wavelength)"]
    opo = results["1+1 protection (2x cost)"]
    griphon = results["GRIPhoN wavelength re-provisioning"]
    manual = results["manual repair (today's unprotected wavelength)"]

    # Orders of magnitude, exactly as the paper lays them out.
    assert sonet < 1.0
    assert ip < 1.0
    assert mesh < 1.0
    assert opo < 0.1
    assert MINUTE / 2 < griphon < 3 * MINUTE
    assert 4 * HOUR <= manual <= 12 * HOUR
    # GRIPhoN restoration is "not as fast as 1+1" but "far faster than
    # repair of the underlying fault".
    assert opo < griphon < manual
    assert manual / griphon > 100


def test_x1_srlg_cut_hits_multiple_connections(benchmark):
    """A conduit cut (shared SRLG) takes down several links at once;
    restoration must avoid the whole risk group."""

    def run():
        net = build_griphon_testbed(seed=360, latency_cv=0.0)
        svc = net.service_for("csp")
        first = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        second = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
        net.run()
        net.controller.cut_srlg("srlg:ROADM-I=ROADM-IV")
        net.run()
        return net, first, second

    net, first, second = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first.state is ConnectionState.UP
    assert second.state is ConnectionState.UP
    for conn in (first, second):
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        links = {tuple(sorted(p)) for p in zip(lightpath.path, lightpath.path[1:])}
        assert ("ROADM-I", "ROADM-IV") not in links
