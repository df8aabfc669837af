"""Fig. 1: the carrier's *current* services and network layers.

Fig. 1 is an architecture diagram: W-DCS over SONET over DWDM over
fiber, with each service category mapped to a layer and BoD available
only at the SONET layer (via virtually concatenated STS-1s), capped well
below a wavelength.  This benchmark builds that stack executably and
verifies every mapping the figure depicts.
"""

from benchmarks.harness import print_rows
from repro.legacy.evc import (
    STS1_PAYLOAD_BPS,
    provision_epl,
    sts1_count_for_rate,
)
from repro.legacy.sonet import PROTECTION_SWITCH_TIME_S, SonetRing
from repro.legacy.wdcs import WidebandDcs
from repro.optical.fiber import FiberPlant
from repro.optical.wavelength import WavelengthGrid
from repro.topo.backbone import build_backbone_graph
from repro.units import DS1_RATE, format_rate, gbps, mbps


def build_current_stack():
    """Assemble the Fig. 1 layer stack on the backbone topology."""
    graph = build_backbone_graph(with_data_centers=False)
    # Fiber + DWDM layer (static in the current world).
    plant = FiberPlant(graph, WavelengthGrid(80))
    # SONET layer: an OC-192 ring over four eastern PoPs.
    ring = SonetRing("east-ring", ["NYC", "DCA", "ATL", "CHI"], line_sts=192)
    # W-DCS layer: DS1 grooming above SONET.
    wdcs = WidebandDcs("wdcs-nyc", ds1_capacity=672)
    return graph, plant, ring, wdcs


def exercise_services(plant, ring, wdcs):
    """Provision one service per Fig. 1 category; returns the mapping."""
    services = {}
    # nxDS1 private line via W-DCS.
    ds1 = wdcs.connect("customer-1", "customer-2", ds1_count=4)
    services["nxDS1 private line"] = ("W-DCS layer", ds1.rate_bps)
    # Ethernet private line via VCAT on the SONET layer.
    epl = provision_epl(ring, "epl-1", "NYC", "ATL", gbps(1))
    services["Ethernet private line (1 GbE)"] = (
        "SONET layer (VCAT)",
        epl.vcat_members * STS1_PAYLOAD_BPS,
    )
    # Circuit BoD today: sub-622M VCAT groups from a dedicated pipe.
    bod_members = sts1_count_for_rate(mbps(622))
    services["circuit BoD (today's max)"] = (
        "SONET layer (VCAT)",
        bod_members * STS1_PAYLOAD_BPS,
    )
    # Static wavelength private line directly on DWDM.
    plant.dwdm_link("NYC", "CHI").occupy(0, "static-wave-1")
    services["wavelength private line (static)"] = (
        "DWDM layer",
        gbps(10),
    )
    return services


def test_fig1_current_layers(benchmark):
    def run():
        graph, plant, ring, wdcs = build_current_stack()
        services = exercise_services(plant, ring, wdcs)
        return graph, plant, ring, wdcs, services

    graph, plant, ring, wdcs, services = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [["service", "layer", "transport rate"]]
    for name, (layer, rate) in services.items():
        rows.append([name, layer, format_rate(rate)])
    print_rows("Fig. 1: current services -> network layers", rows)

    # The stack exists bottom-up: fiber -> DWDM -> SONET -> W-DCS.
    assert len(graph.links) > 0
    assert plant.grid.size >= 40  # "40 to 100 wavelengths"
    assert ring.line_sts == 192  # OC-192 SONET line rate
    assert wdcs.ds1_free < wdcs.ds1_capacity
    # Service-to-layer mapping matches the figure.
    assert services["nxDS1 private line"][0] == "W-DCS layer"
    assert services["nxDS1 private line"][1] == 4 * DS1_RATE
    assert services["Ethernet private line (1 GbE)"][0].startswith("SONET")
    # Today's BoD tops out below a wavelength, at the SONET layer only.
    bod_rate = services["circuit BoD (today's max)"][1]
    assert bod_rate < gbps(1)
    # SONET protection is sub-second; wavelengths have none (manual).
    assert PROTECTION_SWITCH_TIME_S < 1.0
    # 1 GbE over VCAT really is the textbook STS-1-21v.
    assert sts1_count_for_rate(gbps(1)) == 21


def test_fig1_sonet_protection_vs_static_wavelength(benchmark):
    """The figure's implicit contrast: SONET circuits self-heal, static
    DWDM wavelengths do not."""

    def run():
        _, plant, ring, _ = build_current_stack()
        circuit = ring.provision("NYC", "ATL", sts=21)
        switched = ring.fail_span(circuit.spans[0])
        plant.dwdm_link("NYC", "CHI").occupy(0, "static-wave-1")
        affected = plant.cut_link("NYC", "CHI")
        return switched, affected

    switched, affected = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(switched) == 1 and switched[0].on_protection
    # The wavelength's owner is simply down; nothing switches for it.
    assert affected == {"static-wave-1"}
