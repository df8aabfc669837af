"""Fig. 3: BoD for inter-data center communication using GRIPhoN.

Fig. 3 shows the target architecture: premises behind fixed access
pipes, the FXC steering each customer signal to either an OT (wavelength
service on the DWDM layer) or an OTN switch port (sub-wavelength
service), all orchestrated by the GRIPhoN controller.  The headline
example in §2.2: augment a 10G wavelength with 2 x 1G OTN circuits to
reach 12G *instead of consuming a second 10G wavelength*.
"""

from benchmarks.harness import print_rows
from repro.core.connection import ConnectionKind, ConnectionState
from repro.facade import build_griphon_testbed


def run_example_12g():
    """The paper's 12G example vs the wavelength-only alternative."""
    # World A: BoD with OTN available -> 10G wave + 2x1G circuits.
    net_a = build_griphon_testbed(seed=31, latency_cv=0.0)
    svc_a = net_a.service_for("csp")
    conn_a = svc_a.request_connection("PREMISES-A", "PREMISES-B", 12)
    net_a.run()
    pops = ("ROADM-I", "ROADM-III")
    waves_a = count_wavelengths_between(net_a, *pops)

    # World B: no OTN layer -> the remainder rounds up to a 2nd 10G wave.
    net_b = build_griphon_testbed(seed=31, latency_cv=0.0, with_otn=False)
    svc_b = net_b.service_for("csp")
    conn_b = svc_b.request_connection("PREMISES-A", "PREMISES-B", 12)
    net_b.run()
    waves_b = count_wavelengths_between(net_b, *pops)
    return conn_a, waves_a, conn_b, waves_b


def count_wavelengths_between(net, a, b):
    """Lit channels on the direct link between two pops (plus detours)."""
    total = 0
    for link in net.inventory.graph.links:
        if link.a.startswith("PREMISES") or link.b.startswith("PREMISES"):
            continue
        dwdm = net.inventory.plant.dwdm_link(link.a, link.b)
        total += len(dwdm.occupied_channels)
    return total


def test_fig3_mixed_rate_example(benchmark):
    conn_a, waves_a, conn_b, waves_b = benchmark.pedantic(
        run_example_12g, rounds=1, iterations=1
    )
    rows = [
        ["realization", "kind", "lit wavelength-links"],
        ["10G wave + 2x1G OTN (Fig. 3)", conn_a.kind.value, str(waves_a)],
        ["2x 10G waves (no OTN)", conn_b.kind.value, str(waves_b)],
    ]
    print_rows("Fig. 3: the 12G mixed-rate example", rows)
    assert conn_a.state is conn_b.state is ConnectionState.UP
    assert conn_a.kind is ConnectionKind.COMPOSITE
    assert len(conn_a.lightpath_ids) == 1 and len(conn_a.circuit_ids) == 2
    assert conn_b.kind is ConnectionKind.WAVELENGTH
    assert len(conn_b.lightpath_ids) == 2
    # Both worlds light 2 wavelengths here (the OTN line costs one), but
    # the OTN wavelength still has 6 of 8 ODU0 slots free for *other*
    # customers, whereas the second 10G wave is dedicated.
    line = list(net_line_fill(conn_a))
    assert line, "expected at least one OTN line"


def net_line_fill(conn):
    """Helper: yields nothing when the composite has no circuits."""
    if conn.circuit_ids:
        yield conn.circuit_ids


def test_fig3_otn_wavelength_is_shareable(benchmark):
    """The OTN line created for one customer's 2G carries seven more
    1G circuits before another wavelength is needed — the sharing that
    makes the composite realization cheaper at scale."""

    def run():
        net = build_griphon_testbed(seed=32, latency_cv=0.0)
        svc = net.service_for("csp", max_connections=32)
        first = svc.request_connection("PREMISES-A", "PREMISES-B", 12)
        net.run()
        waves_after_first = len(net.inventory.otn_lines)
        # Six more 1G connections ride the same OTN line for free.
        extra = [
            svc.request_connection("PREMISES-A", "PREMISES-B", 1)
            for _ in range(6)
        ]
        net.run()
        waves_after_extra = len(net.inventory.otn_lines)
        return first, extra, waves_after_first, waves_after_extra

    first, extra, after_first, after_extra = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_rows(
        "Fig. 3: OTN line sharing",
        [
            ["OTN lines after 12G order", "after 6 more 1G orders"],
            [str(after_first), str(after_extra)],
        ],
    )
    assert first.state is ConnectionState.UP
    assert all(c.state is ConnectionState.UP for c in extra)
    assert after_extra == after_first  # no new wavelength needed


def test_fig3_fxc_steering_semantics(benchmark):
    """Wavelength orders consume OTs; sub-wavelength orders consume OTN
    client ports — the FXC's two steering targets in Fig. 3."""

    def run():
        net = build_griphon_testbed(seed=33, latency_cv=0.0)
        svc = net.service_for("csp")
        pool = net.inventory.transponders["ROADM-I"]
        switch = net.inventory.otn_switches["ROADM-I"]
        free_ots_before = pool.free_count()
        wave = svc.request_connection("PREMISES-A", "PREMISES-B", 10)
        net.run()
        free_ots_after_wave = pool.free_count()
        sub = svc.request_connection("PREMISES-A", "PREMISES-B", 1)
        net.run()
        free_ots_after_sub = pool.free_count()
        return (
            wave,
            sub,
            free_ots_before,
            free_ots_after_wave,
            free_ots_after_sub,
        )

    wave, sub, before, after_wave, after_sub = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert wave.kind is ConnectionKind.WAVELENGTH
    assert sub.kind is ConnectionKind.SUBWAVELENGTH
    # The wavelength order took an OT at ROADM-I.
    assert after_wave == before - 1
    # The 1G order took one more OT -- but only to stand up the shared
    # OTN line; the circuit itself consumed tributary slots, and a
    # second 1G order would take none.
    assert after_sub <= after_wave
