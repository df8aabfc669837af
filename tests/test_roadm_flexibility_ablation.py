"""Ablation: what colorless/non-directional add/drop ports buy.

The paper leans on ROADMs "with add/drop ports which are both
'colorless' ... and 'non-directional'" (§2.1) — it is what lets any
free transponder serve any wavelength toward any degree, making the
FXC-based dynamic sharing work.  This ablation shows the failure modes
of the older port types:

* **directional** ports are wired to one degree: ports toward a quiet
  degree sit stranded while demand on a busy degree blocks;
* **colored** ports carry one fixed wavelength: a port is useless the
  moment its wavelength is taken on the needed degree.
"""

import pytest

from repro.errors import TransponderUnavailableError, WavelengthBlockedError
from repro.optical.roadm import Roadm
from repro.optical.wavelength import WavelengthGrid


@pytest.fixture
def grid():
    return WavelengthGrid(8)


def connect_n(roadm, degree, count, start_channel=0):
    """Connect ``count`` add/drops toward ``degree``; returns successes."""
    done = 0
    for i in range(count):
        free = roadm.first_free_port(degree=degree, channel=start_channel + i)
        if free is None:
            break
        try:
            roadm.connect_add_drop(
                free.port_id, degree, start_channel + i, f"lp-{degree}-{i}"
            )
        except (TransponderUnavailableError, WavelengthBlockedError):
            break
        done += 1
    return done


class TestDirectionalAblation:
    def test_flexible_ports_follow_demand(self, grid):
        roadm = Roadm("X", grid)  # colorless + non-directional
        roadm.add_degree("EAST")
        roadm.add_degree("WEST")
        roadm.add_ports(4)
        # All demand toward EAST: every port is usable.
        assert connect_n(roadm, "EAST", 4) == 4

    def test_directional_ports_strand_capacity(self, grid):
        roadm = Roadm("X", grid, non_directional=False)
        roadm.add_degree("EAST")
        roadm.add_degree("WEST")
        roadm.add_ports(2, fixed_degree="EAST")
        roadm.add_ports(2, fixed_degree="WEST")
        # Same 4 ports, same all-EAST demand: only 2 usable, 2 stranded.
        assert connect_n(roadm, "EAST", 4) == 2
        stranded = roadm.free_port_count(degree="WEST")
        assert stranded == 2 == roadm.free_port_count()

    def test_same_port_count_different_service(self, grid):
        """Quantify the gap: flexible ports serve 2x the skewed demand."""
        flexible = Roadm("F", grid)
        for degree in ("EAST", "WEST"):
            flexible.add_degree(degree)
        flexible.add_ports(6)

        directional = Roadm("D", grid, non_directional=False)
        for degree in ("EAST", "WEST"):
            directional.add_degree(degree)
        directional.add_ports(3, fixed_degree="EAST")
        directional.add_ports(3, fixed_degree="WEST")

        assert connect_n(flexible, "EAST", 6) == 6
        assert connect_n(directional, "EAST", 6) == 3


class TestColoredAblation:
    def test_colorless_ports_dodge_taken_wavelengths(self, grid):
        roadm = Roadm("X", grid)
        roadm.add_degree("EAST")
        roadm.add_ports(2)
        # Channel 0 already used by an express connection...
        roadm.add_degree("WEST")
        roadm.connect_express("EAST", "WEST", 0, "through-traffic")
        # ...a colorless port simply tunes to channel 1.
        port = roadm.first_free_port()
        roadm.connect_add_drop(port.port_id, "EAST", 1, "lp-1")
        assert roadm.port(port.port_id).in_use

    def test_colored_port_useless_when_wavelength_taken(self, grid):
        roadm = Roadm("X", grid, colorless=False)
        roadm.add_degree("EAST")
        roadm.add_degree("WEST")
        roadm.add_ports(1, fixed_channel=0)
        roadm.connect_express("EAST", "WEST", 0, "through-traffic")
        port = roadm.port("AD:X:0")
        # The port's one wavelength is taken on both degrees: blocked.
        for degree in ("EAST", "WEST"):
            with pytest.raises(WavelengthBlockedError):
                roadm.connect_add_drop(port.port_id, degree, 0, "lp-1")

    def test_colored_bank_needs_port_per_channel(self, grid):
        """To guarantee any-wavelength add/drop, a colored design needs a
        port per channel; colorless needs one per simultaneous signal."""
        colored = Roadm("C", grid, colorless=False)
        colored.add_degree("EAST")
        for channel in grid.channels():
            colored.add_ports(1, fixed_channel=channel)
        flexible = Roadm("F", grid)
        flexible.add_degree("EAST")
        flexible.add_ports(1)
        # One signal at an arbitrary channel: both serve it, but the
        # colored bank spent 8 ports to the flexible node's 1.
        assert colored.port_count == grid.size
        assert flexible.port_count == 1
        flexible.connect_add_drop("AD:F:0", "EAST", 5, "lp-1")
        target = colored.first_free_port(channel=5)
        assert target.fixed_channel == 5
        colored.connect_add_drop(target.port_id, "EAST", 5, "lp-1")
