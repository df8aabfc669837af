"""Inventory/hardware invariant auditing: the chaos-test oracle.

:func:`audit_inventory` cross-checks the controller's claims (registered
lightpaths, circuits, connections) against the hardware state every
element keeps for itself — wavelength occupancy bitmasks, ROADM port and
express ownership, transponder/regen allocation, FXC cross-connects, NTE
interfaces, OTN line slots — and against the holdings ledger that claim
writes and release walks, and reports every inconsistency as a typed
:class:`AuditViolation`.  A clean report after any scenario (including
saga-rolled-back setups and injected element failures) means no resource
leaked and nothing was double-allocated.

Run it any time: the audit only reads state, never mutates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.connection import Connection, ConnectionState
from repro.core.inventory import (
    HELD_CHANNEL,
    HELD_EXPRESS,
    HELD_OT,
    HELD_PORT,
    InventoryDatabase,
)
from repro.errors import TopologyError


@dataclass(frozen=True)
class AuditViolation:
    """One invariant violation found by the audit.

    Attributes:
        kind: Violation class (e.g. ``channel-leak``, ``double-alloc``).
        resource: The hardware resource involved.
        owner: The owner string recorded on the resource ('' if none).
        detail: Human-readable explanation.
    """

    kind: str
    resource: str
    owner: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.resource} (owner={self.owner!r}): {self.detail}"


@dataclass
class AuditReport:
    """The outcome of one audit pass."""

    violations: List[AuditViolation] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def summary(self) -> str:
        """One line for logs and the ``griphon chaos`` output."""
        status = "clean" if self.ok else f"{len(self.violations)} violation(s)"
        return f"audit: {self.checked} resource(s) checked, {status}"

    def __str__(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


#: Connection states that may legitimately hold carrier resources.
_RESOURCE_HOLDING_STATES = frozenset(
    state
    for state in ConnectionState
    if state not in (ConnectionState.RELEASED, ConnectionState.BLOCKED)
)


def audit_network(controller) -> AuditReport:
    """Audit a controller's inventory against its connection table."""
    return audit_inventory(
        controller.inventory,
        controller.connections,
        amplifier_chains=controller.roadm_ems.amplifier_chains(),
    )


def audit_orphan_lightpaths(
    inventory: InventoryDatabase,
    connections: Mapping[str, Connection],
    report: AuditReport,
) -> None:
    """Flag each registered lightpath no live connection holds — not
    part of :func:`audit_network`, whose in-flight bridges and OTN
    carrier lightpaths no connection holds by design."""
    held = {
        lightpath_id
        for connection in connections.values()
        if connection.state in _RESOURCE_HOLDING_STATES
        for lightpath_id in connection.lightpath_ids
    }
    report.violations.extend(
        AuditViolation("orphan-lightpath", f"lightpath {lightpath_id}",
                       lightpath_id, "registered, but no live connection holds it")
        for lightpath_id in inventory.lightpaths
        if lightpath_id not in held
    )


def audit_inventory(
    inventory: InventoryDatabase,
    connections: Optional[Mapping[str, Connection]] = None,
    amplifier_chains: Optional[Mapping[tuple, object]] = None,
) -> AuditReport:
    """Cross-check inventory claims against hardware state.

    Args:
        inventory: The database to audit.
        connections: The controller's connection table; when given, FXC
            cross-connects, NTE interfaces, and OTN client ports must be
            owned by live (resource-holding) connections.
        amplifier_chains: The EMS's live amplifier chains per link key;
            when given, each chain's gain setting must match the
            inventory-recorded target unless an *active* amp-flap
            degradation on the link explains the deviation.

    Returns:
        An :class:`AuditReport`; ``report.ok`` is the chaos-test oracle.
    """
    report = AuditReport()
    # Lightpath id -> names of what the elements say it holds, filled by
    # the three hardware passes and compared with the ledger at the end.
    owned: Dict[str, Set[str]] = {}
    _audit_dwdm_links(inventory, report, owned)
    _audit_roadms(inventory, report, owned)
    _audit_transponders_and_regens(inventory, report, owned)
    _audit_ledger(inventory, report, owned)
    _audit_otn_lines(inventory, report)
    if connections is not None:
        _audit_connection_resources(inventory, connections, report)
    if amplifier_chains is not None:
        _audit_amplifier_gains(inventory, amplifier_chains, report)
    return report


# -- wavelength layer ---------------------------------------------------------


def _expected_channel_owners(
    inventory: InventoryDatabase, report: AuditReport
) -> Dict[Tuple[Tuple[str, str], int], str]:
    """(link key, channel) -> lightpath id, from the registered records.

    Detects double-allocation — two registered lightpaths claiming the
    same channel on the same link — while building the map.
    """
    expected: Dict[Tuple[Tuple[str, str], int], str] = {}
    for lightpath in inventory.lightpaths.values():
        for segment in lightpath.segments:
            for key in segment.links:
                slot = (key, segment.channel)
                holder = expected.get(slot)
                if holder is not None and holder != lightpath.lightpath_id:
                    report.violations.append(
                        AuditViolation(
                            kind="double-alloc",
                            resource=f"channel {segment.channel} on {key[0]}={key[1]}",
                            owner=holder,
                            detail=(
                                f"also claimed by {lightpath.lightpath_id}"
                            ),
                        )
                    )
                expected[slot] = lightpath.lightpath_id
    return expected


def _audit_dwdm_links(
    inventory: InventoryDatabase, report: AuditReport, owned: Dict[str, Set[str]]
) -> None:
    expected = _expected_channel_owners(inventory, report)
    all_channels = set(inventory.grid.channels())
    for link in inventory.plant.graph.links:
        dwdm = inventory.plant.dwdm_link(*link.key)
        report.checked += 1
        occupied = dwdm.occupied_channels
        free = dwdm.free_channels()
        # The occupancy bitmask and the owner table must partition the grid.
        if occupied & free or (occupied | free) != all_channels:
            report.violations.append(
                AuditViolation(
                    kind="bitmask-inconsistent",
                    resource=f"link {link.key[0]}={link.key[1]}",
                    owner="",
                    detail=(
                        f"occupied/free sets do not partition the grid "
                        f"({len(occupied)} occupied, {len(free)} free, "
                        f"grid {len(all_channels)})"
                    ),
                )
            )
        for channel in sorted(occupied):
            owner = dwdm.owner_of(channel) or ""
            resource = f"channel {channel} on {link.key[0]}={link.key[1]}"
            owned.setdefault(owner, set()).add(resource)
            claimant = expected.get((link.key, channel))
            if claimant is None:
                report.violations.append(
                    AuditViolation(
                        kind="channel-leak",
                        resource=resource,
                        owner=owner,
                        detail="occupied but no registered lightpath claims it",
                    )
                )
            elif claimant != owner:
                report.violations.append(
                    AuditViolation(
                        kind="channel-owner-mismatch",
                        resource=resource,
                        owner=owner,
                        detail=f"registered lightpath {claimant} claims it",
                    )
                )
    # Converse: every registered claim must actually be occupied.
    for slot, claimant in expected.items():
        key, channel = slot
        dwdm = inventory.plant.dwdm_link(*key)
        if dwdm.owner_of(channel) != claimant:
            report.violations.append(
                AuditViolation(
                    kind="channel-missing",
                    resource=f"channel {channel} on {key[0]}={key[1]}",
                    owner=claimant,
                    detail=(
                        "registered lightpath claims the channel but the "
                        "link does not record it"
                    ),
                )
            )


def _audit_roadms(
    inventory: InventoryDatabase, report: AuditReport, owned: Dict[str, Set[str]]
) -> None:
    live_lightpaths = set(inventory.lightpaths)
    for node, roadm in inventory.roadms.items():
        report.checked += 1
        for port in roadm.ports:
            if port.owner is None:
                continue
            resource = f"{node} add/drop port {port.port_id}"
            owned.setdefault(port.owner, set()).add(resource)
            if port.owner not in live_lightpaths:
                report.violations.append(
                    AuditViolation(
                        kind="roadm-port-leak",
                        resource=resource,
                        owner=port.owner,
                        detail="owned by an unregistered lightpath",
                    )
                )
        for degree_in, degree_out, channel, owner in roadm.express_connections():
            resource = f"{node} express {degree_in}->{degree_out} ch{channel}"
            owned.setdefault(owner, set()).add(resource)
            if owner not in live_lightpaths:
                report.violations.append(
                    AuditViolation(
                        kind="roadm-express-leak",
                        resource=resource,
                        owner=owner,
                        detail="owned by an unregistered lightpath",
                    )
                )


def _audit_transponders_and_regens(
    inventory: InventoryDatabase, report: AuditReport, owned: Dict[str, Set[str]]
) -> None:
    lightpaths = inventory.lightpaths
    claimed_ots = {
        ot_id: lp.lightpath_id
        for lp in lightpaths.values()
        for ot_id in lp.ot_ids
    }
    claimed_regens = {
        regen_id: lp.lightpath_id
        for lp in lightpaths.values()
        for regen_id in lp.regen_ids
    }
    for node, pool in inventory.transponders.items():
        report.checked += 1
        for ot in pool.transponders:
            if ot.owner is None:
                if ot.ot_id in claimed_ots:
                    report.violations.append(
                        AuditViolation(
                            kind="ot-missing",
                            resource=ot.ot_id,
                            owner=claimed_ots[ot.ot_id],
                            detail=(
                                "registered lightpath lists the OT but the "
                                "hardware is idle"
                            ),
                        )
                    )
                continue
            owned.setdefault(ot.owner, set()).add(ot.ot_id)
            claimant = claimed_ots.get(ot.ot_id)
            if claimant is None:
                report.violations.append(
                    AuditViolation(
                        kind="ot-leak",
                        resource=ot.ot_id,
                        owner=ot.owner,
                        detail="allocated but no registered lightpath lists it",
                    )
                )
            elif claimant != ot.owner:
                report.violations.append(
                    AuditViolation(
                        kind="ot-owner-mismatch",
                        resource=ot.ot_id,
                        owner=ot.owner,
                        detail=f"registered lightpath {claimant} lists it",
                    )
                )
    for node, pool in inventory.regens.items():
        report.checked += 1
        for regen in pool.regenerators:
            if regen.owner is None:
                continue
            owned.setdefault(regen.owner, set()).add(regen.regen_id)
            claimant = claimed_regens.get(regen.regen_id)
            if claimant is None:
                report.violations.append(
                    AuditViolation(
                        kind="regen-leak",
                        resource=regen.regen_id,
                        owner=regen.owner,
                        detail="allocated but no registered lightpath lists it",
                    )
                )
            elif claimant != regen.owner:
                report.violations.append(
                    AuditViolation(
                        kind="regen-owner-mismatch",
                        resource=regen.regen_id,
                        owner=regen.owner,
                        detail=f"registered lightpath {claimant} lists it",
                    )
                )


# -- holdings ledger ----------------------------------------------------------


def _held_name(entry: tuple) -> str:
    """A ledger entry under the name the hardware passes give the resource."""
    kind, element = entry[0], entry[1]
    if kind == HELD_CHANNEL:
        a, b = element.link.key
        return f"channel {entry[2]} on {a}={b}"
    if kind == HELD_PORT:
        return f"{element.name} add/drop port {entry[2].port_id}"
    if kind == HELD_EXPRESS:
        return f"{element.name} express {entry[2]}->{entry[3]} ch{entry[4]}"
    return element.ot_id if kind == HELD_OT else element.regen_id


def _audit_ledger(
    inventory: InventoryDatabase, report: AuditReport, owned: Dict[str, Set[str]]
) -> None:
    """A registered lightpath's ledger lists exactly what the elements
    say it holds and a released one has no ledger left, so a claim path
    that takes without recording, or a release that forgets, shows here."""
    for lightpath_id in sorted(set(inventory.lightpaths) | set(inventory.holdings)):
        held = {_held_name(e) for e in inventory.holdings.get(lightpath_id, ())}
        actual = owned.get(lightpath_id, set())
        if lightpath_id not in inventory.lightpaths:
            actual = set()  # whatever it still owns is already reported as a leak
        for resource in sorted(held ^ actual):
            report.violations.append(
                AuditViolation(
                    kind="ledger-mismatch",
                    resource=resource,
                    owner=lightpath_id,
                    detail=(
                        "held by the lightpath but not in its ledger"
                        if resource in actual
                        else "in the ledger but not held by a registered lightpath"
                    ),
                )
            )


# -- OTN layer ---------------------------------------------------------------


def _audit_otn_lines(inventory: InventoryDatabase, report: AuditReport) -> None:
    live_circuits = set(inventory.circuits)
    for line_id, line in inventory.otn_lines.items():
        report.checked += 1
        for owner in sorted(line.owners()):
            if owner not in live_circuits:
                report.violations.append(
                    AuditViolation(
                        kind="otn-slot-leak",
                        resource=f"line {line_id}",
                        owner=owner,
                        detail="slots held by an unregistered circuit",
                    )
                )
    # Converse: a registered circuit must hold slots on its working or
    # backup lines (mesh restoration may have moved it to the backup).
    for circuit_id, circuit in inventory.circuits.items():
        lines = [
            inventory.otn_lines[line_id]
            for line_id in list(circuit.line_ids) + list(circuit.backup_line_ids)
            if line_id in inventory.otn_lines
        ]
        if lines and not any(circuit_id in line.owners() for line in lines):
            report.violations.append(
                AuditViolation(
                    kind="otn-slot-missing",
                    resource=f"circuit {circuit_id}",
                    owner=circuit_id,
                    detail="registered circuit holds no slots on its lines",
                )
            )


# -- amplifier gain settings --------------------------------------------------


def _audit_amplifier_gains(
    inventory: InventoryDatabase,
    amplifier_chains: Mapping[tuple, object],
    report: AuditReport,
) -> None:
    """Live EMS gain settings must match the inventory-recorded targets.

    A deviation is legitimate only while an ``amp-flap:*`` degradation
    is actively registered on the same link — that is the injector
    telling the world the amp is flapping.  Any other mismatch means a
    remediation or restore path forgot to reset the gain: exactly the
    bug class that used to pass the audit silently.
    """
    for key in sorted(amplifier_chains):
        chain = amplifier_chains[key]
        report.checked += 1
        recorded = inventory.recorded_amplifier_gain(key)
        if recorded is None:
            # Pre-SLO networks never recorded targets; nothing to check.
            continue
        live = chain.gain_db
        if live == recorded:
            continue
        try:
            causes = inventory.plant.dwdm_link(*key).degradation_causes()
        except TopologyError:
            # A chain keyed by a link the plant's graph lacks: no fiber
            # there to carry an amp-flap degradation.
            causes = []
        if any(cause.startswith("amp-flap") for cause in causes):
            continue
        report.violations.append(
            AuditViolation(
                kind="amp-gain-mismatch",
                resource=f"amplifier chain {key[0]}={key[1]}",
                owner="",
                detail=(
                    f"live gain {live:.2f} dB != recorded "
                    f"{recorded:.2f} dB with no active amp-flap"
                ),
            )
        )


# -- connection-scoped resources ---------------------------------------------


def _audit_connection_resources(
    inventory: InventoryDatabase,
    connections: Mapping[str, Connection],
    report: AuditReport,
) -> None:
    live = {
        conn_id
        for conn_id, conn in connections.items()
        if conn.state in _RESOURCE_HOLDING_STATES
    }
    for site, fxc in inventory.fxcs.items():
        report.checked += 1
        for port_a, port_b, owner in fxc.connections():
            if owner not in live:
                report.violations.append(
                    AuditViolation(
                        kind="fxc-leak",
                        resource=f"FXC {site} ports {port_a}<->{port_b}",
                        owner=owner,
                        detail="cross-connect owned by a non-live connection",
                    )
                )
    for node, switch in inventory.otn_switches.items():
        report.checked += 1
        for port, owner in sorted(switch.client_port_owners().items()):
            if owner not in live:
                report.violations.append(
                    AuditViolation(
                        kind="otn-client-port-leak",
                        resource=f"OTN {node} client port {port}",
                        owner=owner,
                        detail="client port owned by a non-live connection",
                    )
                )
    for premises, nte in inventory.ntes.items():
        report.checked += 1
        for index in range(nte.interface_count):
            owner = nte.owner_of(index)
            if owner is None:
                continue
            # Channelized muxes are owned by the shared carrier pool;
            # their sub-channels carry the per-connection ownership.
            if owner != "shared" and owner not in live:
                report.violations.append(
                    AuditViolation(
                        kind="nte-interface-leak",
                        resource=f"NTE {premises} interface {index}",
                        owner=owner,
                        detail="interface owned by a non-live connection",
                    )
                )
            for sub in range(nte.subchannels_per_interface):
                sub_owner = nte.subchannel_owner(index, sub)
                if sub_owner is not None and sub_owner not in live:
                    report.violations.append(
                        AuditViolation(
                            kind="nte-subchannel-leak",
                            resource=f"NTE {premises} if{index}/sub{sub}",
                            owner=sub_owner,
                            detail="sub-channel owned by a non-live connection",
                        )
                    )
    # Live connections must reference only registered components.
    for conn_id in sorted(live):
        connection = connections[conn_id]
        if connection.state is ConnectionState.REQUESTED:
            continue  # claim not finished yet
        for lightpath_id in connection.lightpath_ids:
            if lightpath_id not in inventory.lightpaths:
                report.violations.append(
                    AuditViolation(
                        kind="dangling-lightpath",
                        resource=f"connection {conn_id}",
                        owner=conn_id,
                        detail=f"references unregistered lightpath {lightpath_id}",
                    )
                )
        for circuit_id in connection.circuit_ids:
            if circuit_id not in inventory.circuits:
                report.violations.append(
                    AuditViolation(
                        kind="dangling-circuit",
                        resource=f"connection {conn_id}",
                        owner=conn_id,
                        detail=f"references unregistered circuit {circuit_id}",
                    )
                )
