"""The GRIPhoN controller's inventory database.

Holds every resource the controller manages: the fiber plant and its
wavelength occupancy, the ROADMs with their add/drop ports, transponder
and regenerator pools, FXCs, NTEs, OTN switches and lines, plus the
registry of live lightpaths, ODU circuits, and customer connections.
Construction helpers install equipment consistently (a ROADM's degrees
always match the topology, FXC ports get labeled, etc.).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set

from repro.errors import ConfigurationError, ResourceError, TopologyError
from repro.optical.fiber import FiberPlant
from repro.optical.fxc import FiberCrossConnect
from repro.optical.lightpath import Lightpath
from repro.optical.nte import NetworkTerminatingEquipment
from repro.optical.regen import RegenPool
from repro.optical.roadm import Roadm
from repro.optical.transponder import TransponderPool
from repro.optical.wavelength import WavelengthGrid
from repro.otn.circuit import OduCircuit
from repro.otn.line import OtnLine
from repro.otn.switch import OtnSwitch
from repro.topo.graph import NetworkGraph
from repro.units import GBPS

#: Kinds of ledger entry (see ``InventoryDatabase.holdings``).
HELD_OT = "ot"  # (kind, Transponder)
HELD_REGEN = "regen"  # (kind, Regenerator)
HELD_PORT = "port"  # (kind, Roadm, AddDropPort)
HELD_EXPRESS = "express"  # (kind, Roadm, degree_in, degree_out, channel)
HELD_CHANNEL = "channel"  # (kind, DwdmLink, channel)


class InventoryDatabase:
    """All network resources, indexed for the controller."""

    def __init__(
        self, graph: NetworkGraph, grid: Optional[WavelengthGrid] = None
    ) -> None:
        self.graph = graph
        self.grid = grid or WavelengthGrid()
        self.plant = FiberPlant(graph, self.grid)
        self.roadms: Dict[str, Roadm] = {}
        self.transponders: Dict[str, TransponderPool] = {}
        # Line rates with a transponder installed anywhere: the union of
        # every pool's rates, kept here so an order does not scan all
        # pools to learn it.
        self.wavelength_rates: Set[float] = set()
        self.regens: Dict[str, RegenPool] = {}
        self.fxcs: Dict[str, FiberCrossConnect] = {}
        self.ntes: Dict[str, NetworkTerminatingEquipment] = {}
        self.otn_switches: Dict[str, OtnSwitch] = {}
        self.otn_lines: Dict[str, OtnLine] = {}
        # Which core PoP (ROADM) each customer premises homes onto.
        self.premises_pop: Dict[str, str] = {}
        # Live resource records.
        self.lightpaths: Dict[str, Lightpath] = {}
        self.circuits: Dict[str, OduCircuit] = {}
        # The holdings ledger: per live lightpath id, one flat list of
        # what its claim took.  Release walks it and drops it; the
        # auditor checks it against what the elements say they carry.
        self.holdings: Dict[str, List[tuple]] = {}
        # Provisioned amplifier gain per link key (dB).  The controller
        # records each chain's target at build time; the invariant
        # auditor cross-checks the live EMS setting against this.
        self.amplifier_gains: Dict[tuple, float] = {}
        self._lightpath_seq = itertools.count()
        self._circuit_seq = itertools.count()
        self._otn_line_seq = itertools.count()

    # -- equipment installation ---------------------------------------------------

    def install_roadm(
        self,
        node: str,
        add_drop_ports: int = 8,
        colorless: bool = True,
        non_directional: bool = True,
    ) -> Roadm:
        """Install a ROADM at ``node`` with degrees matching the topology."""
        if node in self.roadms:
            raise ConfigurationError(f"ROADM already installed at {node}")
        roadm = Roadm(node, self.grid, colorless, non_directional)
        for neighbor in self.graph.neighbors(node):
            roadm.add_degree(neighbor)
        if non_directional and colorless:
            roadm.add_ports(add_drop_ports)
        self.roadms[node] = roadm
        self.transponders.setdefault(node, TransponderPool(node, self.grid))
        self.regens.setdefault(node, RegenPool(node))
        return roadm

    def install_transponders(
        self, node: str, line_rate_bps: float, count: int
    ) -> None:
        """Install OTs at a ROADM node's pool."""
        pool = self.transponders.get(node)
        if pool is None:
            raise ConfigurationError(f"no ROADM installed at {node}")
        pool.install(line_rate_bps, count)
        self.wavelength_rates.add(line_rate_bps)

    def install_regens(self, node: str, line_rate_bps: float, count: int) -> None:
        """Install regenerators at a node's pool."""
        pool = self.regens.get(node)
        if pool is None:
            raise ConfigurationError(f"no ROADM installed at {node}")
        pool.install(line_rate_bps, count)

    def install_fxc(self, site: str, port_count: int = 32) -> FiberCrossConnect:
        """Install a fiber cross-connect at a site."""
        if site in self.fxcs:
            raise ConfigurationError(f"FXC already installed at {site}")
        fxc = FiberCrossConnect(f"FXC:{site}", port_count)
        self.fxcs[site] = fxc
        return fxc

    def install_nte(
        self,
        premises: str,
        pop: str,
        interface_rate_bps: float = 10 * GBPS,
        interface_count: int = 4,
    ) -> NetworkTerminatingEquipment:
        """Install the NTE at a customer premises homed on core PoP ``pop``."""
        if premises in self.ntes:
            raise ConfigurationError(f"NTE already installed at {premises}")
        if not self.graph.has_node(pop):
            raise TopologyError(f"unknown PoP {pop!r}")
        nte = NetworkTerminatingEquipment(
            f"NTE:{premises}", premises, interface_rate_bps, interface_count
        )
        self.ntes[premises] = nte
        self.premises_pop[premises] = pop
        return nte

    def install_otn_switch(self, node: str, client_ports: int = 32) -> OtnSwitch:
        """Install an OTN switch at a node."""
        if node in self.otn_switches:
            raise ConfigurationError(f"OTN switch already installed at {node}")
        switch = OtnSwitch(node, client_ports)
        self.otn_switches[node] = switch
        return switch

    def create_otn_line(self, a: str, b: str, level=None) -> OtnLine:
        """Create an OTN line between two nodes with OTN switches.

        The line id is globally unique; the line is attached to both
        endpoint switches.
        """
        for node in (a, b):
            if node not in self.otn_switches:
                raise ConfigurationError(f"no OTN switch at {node}")
        line_id = f"OTNLINE:{min(a, b)}={max(a, b)}:{next(self._otn_line_seq)}"
        line = OtnLine(line_id, a, b, level=level)
        self.otn_lines[line_id] = line
        self.otn_switches[a].attach_line(line)
        self.otn_switches[b].attach_line(line)
        return line

    # -- id allocation ---------------------------------------------------------

    def next_lightpath_id(self) -> str:
        """A fresh lightpath id."""
        return f"lp-{next(self._lightpath_seq)}"

    def next_circuit_id(self) -> str:
        """A fresh ODU circuit id."""
        return f"ckt-{next(self._circuit_seq)}"

    # -- registry --------------------------------------------------------------

    def register_lightpath(self, lightpath: Lightpath) -> None:
        """Record a lightpath in the database."""
        if lightpath.lightpath_id in self.lightpaths:
            raise ConfigurationError(
                f"lightpath {lightpath.lightpath_id} already registered"
            )
        self.lightpaths[lightpath.lightpath_id] = lightpath

    def forget_lightpath(self, lightpath_id: str) -> None:
        """Drop a released lightpath from the database."""
        if lightpath_id not in self.lightpaths:
            raise ResourceError(f"unknown lightpath {lightpath_id!r}")
        del self.lightpaths[lightpath_id]

    def register_circuit(self, circuit: OduCircuit) -> None:
        """Record an ODU circuit in the database."""
        if circuit.circuit_id in self.circuits:
            raise ConfigurationError(
                f"circuit {circuit.circuit_id} already registered"
            )
        self.circuits[circuit.circuit_id] = circuit

    def forget_circuit(self, circuit_id: str) -> None:
        """Drop a released circuit from the database."""
        if circuit_id not in self.circuits:
            raise ResourceError(f"unknown circuit {circuit_id!r}")
        del self.circuits[circuit_id]

    def record_amplifier_gain(self, key: tuple, gain_db: float) -> None:
        """Record the provisioned amplifier gain for a link."""
        self.amplifier_gains[key] = gain_db

    def recorded_amplifier_gain(self, key: tuple) -> Optional[float]:
        """The provisioned gain for a link, or None if never recorded."""
        return self.amplifier_gains.get(key)

    # -- queries ----------------------------------------------------------------

    def pop_of(self, premises: str) -> str:
        """The core PoP a premises homes onto.

        Raises:
            ResourceError: for an unknown premises.
        """
        try:
            return self.premises_pop[premises]
        except KeyError:
            raise ResourceError(f"unknown premises {premises!r}") from None

    def lightpaths_using_link(self, a: str, b: str) -> List[Lightpath]:
        """Live lightpaths whose path crosses the given link."""
        key = (a, b) if a <= b else (b, a)
        hit = []
        for lightpath in self.lightpaths.values():
            for segment in lightpath.segments:
                if key in segment.links:
                    hit.append(lightpath)
                    break
        return hit

    def roadm_utilization(self) -> Dict[str, float]:
        """Per-node fraction of add/drop ports in use."""
        result = {}
        for node, roadm in self.roadms.items():
            total = len(roadm.ports)
            if total:
                used = sum(port.in_use for port in roadm.ports)
                result[node] = used / total
        return result
