"""X3: OTN grooming vs muxponders — wavelength packing efficiency.

"Compared to using muxponders in the DWDM layer to provide
sub-wavelength connections, the OTN layer with its switching capability
can achieve more efficient packing of wavelengths" (§2.1).  Muxponders
are point-to-point: clients of *different* premises pairs can never
share a wavelength even when their routes overlap.  The OTN layer
switches ODU0s at every node, so circuits from different pairs pack
into the same wavelengths hop by hop.

We offer the same sub-wavelength demand set to both designs on the
backbone and count wavelengths consumed and average fill.
"""

import math
from collections import defaultdict

from benchmarks.harness import print_rows
from repro.core.grooming import GroomingEngine
from repro.core.inventory import InventoryDatabase
from repro.optical.wavelength import WavelengthGrid
from repro.sim.randomness import RandomStreams
from repro.topo.backbone import build_backbone_graph
from repro.units import ODU_LEVELS

#: Sub-wavelength demand set: (src, dst, number of 1G circuits).  The
#: east-coast pairs share the NYC-DCA-ATL corridor, which is exactly
#: where grooming wins.
DEMANDS = [
    ("NYC", "ATL", 3),
    ("NYC", "DCA", 2),
    ("DCA", "ATL", 3),
    ("NYC", "MIA", 2),
    ("DCA", "MIA", 2),
    ("ATL", "MIA", 2),
    ("CHI", "ATL", 3),
    ("CHI", "STL", 2),
    ("STL", "ATL", 2),
]

MUXPONDER_CLIENTS_PER_WAVE = 10  # ten 1G clients on a 10G muxponder


def run_otn_grooming():
    """Route every demand through the OTN layer; count lines created."""
    inventory = InventoryDatabase(
        build_backbone_graph(with_data_centers=False), WavelengthGrid(80)
    )
    for node in list(inventory.graph.nodes):
        inventory.install_otn_switch(node.name, client_ports=64)

    def factory(a, b):
        return inventory.create_otn_line(a, b, level=ODU_LEVELS["ODU2"])

    engine = GroomingEngine(inventory, line_factory=factory)
    for src, dst, count in DEMANDS:
        for _ in range(count):
            engine.claim_circuit(src, dst, ODU_LEVELS["ODU0"])
    # Wavelength-links: each line spans one hop of the switch mesh.
    wavelength_links = len(inventory.otn_lines)
    fill = engine.mean_line_fill()
    return wavelength_links, fill


def run_muxponder_baseline():
    """Point-to-point muxponders: per-pair wavelengths, no sharing.

    Each pair needs ceil(n / 10) muxponder wavelengths, and each of
    those wavelengths occupies a channel on *every* hop of that pair's
    route — count wavelength-links for an apples-to-apples comparison.
    """
    graph = build_backbone_graph(with_data_centers=False)
    wavelength_links = 0
    used_capacity = 0.0
    provisioned = 0.0
    per_pair = defaultdict(int)
    for src, dst, count in DEMANDS:
        per_pair[(src, dst)] += count
    for (src, dst), clients in per_pair.items():
        waves = math.ceil(clients / MUXPONDER_CLIENTS_PER_WAVE)
        hops = len(graph.shortest_path(src, dst)) - 1
        wavelength_links += waves * hops
        used_capacity += clients * hops  # 1G-hops carried
        provisioned += waves * hops * MUXPONDER_CLIENTS_PER_WAVE
    fill = used_capacity / provisioned if provisioned else 0.0
    return wavelength_links, fill


def test_x3_grooming_efficiency(benchmark):
    def run():
        return run_otn_grooming(), run_muxponder_baseline()

    (otn_links, otn_fill), (mux_links, mux_fill) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ["design", "wavelength-links lit", "mean fill"],
        ["OTN grooming (GRIPhoN)", str(otn_links), f"{otn_fill:.0%}"],
        ["muxponders (today)", str(mux_links), f"{mux_fill:.0%}"],
    ]
    print_rows("X3: wavelength packing efficiency", rows)
    benchmark.extra_info["otn_links"] = otn_links
    benchmark.extra_info["mux_links"] = mux_links

    # The paper's claim: OTN packs wavelengths more efficiently.
    assert otn_links < mux_links
    assert otn_fill > mux_fill
    # On this corridor-heavy demand set the win is substantial.
    assert mux_links / otn_links >= 1.5


def test_x3_ablation_no_grooming_fill(benchmark):
    """Ablation: first-fit (spread) vs best-fit (pack) line selection.

    Best-fit concentrates circuits on already-used wavelengths.  With
    spreading, adding a circuit per pair round-robins across lines and
    leaves every wavelength partly empty.
    """

    def run():
        inventory = InventoryDatabase(
            build_backbone_graph(with_data_centers=False), WavelengthGrid(80)
        )
        for node in list(inventory.graph.nodes):
            inventory.install_otn_switch(node.name, client_ports=64)

        def factory(a, b):
            return inventory.create_otn_line(a, b, level=ODU_LEVELS["ODU2"])

        engine = GroomingEngine(inventory, line_factory=factory)
        # Interleave demands so naive spreading would fragment.
        streams = RandomStreams(9)
        flattened = []
        for src, dst, count in DEMANDS:
            flattened.extend([(src, dst)] * count)
        order = sorted(
            flattened,
            key=lambda _: streams.uniform("x3:shuffle", 0, 1),
        )
        for src, dst in order:
            engine.claim_circuit(src, dst, ODU_LEVELS["ODU0"])
        return engine.wavelengths_consumed(), engine.mean_line_fill()

    links, fill = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows(
        "X3 ablation: best-fit packing under shuffled arrivals",
        [["lines", "mean fill"], [str(links), f"{fill:.0%}"]],
    )
    # Best-fit keeps consolidation even under shuffled arrival order.
    assert fill > 0.5
