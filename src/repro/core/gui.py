"""Text renderings of the customer GUI.

The paper's testbed has a graphical customer interface showing the NTE
interfaces at each premises and the state of each connection (§2.2, §3).
We render the same information as plain-text tables, which the examples
print and the tests assert on.
"""

from __future__ import annotations

from typing import List

from repro.core.service import BodService
from repro.units import format_duration, format_rate


def render_connections(service: BodService) -> str:
    """The connection-management table for one customer."""
    rows: List[List[str]] = [
        ["ID", "A-END", "Z-END", "RATE", "KIND", "STATE", "SETUP"]
    ]
    for conn in service.connections():
        setup = (
            format_duration(conn.setup_duration)
            if conn.setup_duration is not None
            else "-"
        )
        rows.append(
            [
                conn.connection_id,
                conn.premises_a,
                conn.premises_b,
                format_rate(conn.rate_bps),
                conn.kind.value,
                conn.state.value,
                setup,
            ]
        )
    return _table(rows, title=f"Connections for {service.customer}")


def render_interfaces(service: BodService) -> str:
    """The NTE interface panes for every premises the customer can see."""
    inventory = service._controller.inventory  # GUI is a trusted view.
    premises_names = sorted(
        {conn.premises_a for conn in service.connections()}
        | {conn.premises_b for conn in service.connections()}
        | set(service._controller.admission.profile(service.customer).premises)
    )
    panes = []
    for premises in premises_names:
        nte = inventory.ntes.get(premises)
        if nte is None:
            continue
        panes.append(f"-- {premises} --")
        panes.extend(nte.customer_view())
    return "\n".join(panes)


def render_fault_panel(service: BodService) -> str:
    """The fault-management pane: one line per impacted connection.

    Renders from the typed :class:`~repro.core.service.FaultReport`
    records; when tracing is on, each line carries the trace id so an
    operator can pull the matching spans.
    """
    impacted = service.impacted_connections()
    if not impacted:
        return "All connections in service."
    lines = []
    for conn in impacted:
        report = service.fault_report(conn.connection_id)
        line = str(report)
        if report.trace_id is not None:
            line += f" (trace {report.trace_id})"
        lines.append(line)
    return "\n".join(lines)


def render_reservations(book, customer: str = None) -> str:
    """The advance-reservation calendar pane.

    Args:
        book: A :class:`~repro.core.calendar.ReservationBook`.
        customer: Restrict to one customer's bookings; ``None`` shows all
            (the operator's calendar).
    """
    rows: List[List[str]] = [
        ["ID", "CUSTOMER", "A-END", "Z-END", "RATE", "WINDOW", "STATE"]
    ]
    for resv in book.reservations(customer):
        window = (
            f"{format_duration(resv.start)} - {format_duration(resv.end)}"
        )
        rows.append(
            [
                resv.reservation_id,
                resv.customer,
                resv.premises_a,
                resv.premises_b,
                format_rate(resv.rate_bps),
                window,
                resv.state.value,
            ]
        )
    if len(rows) == 1:
        return "No reservations."
    return _table(rows, title="Reservations")


def render_network_view(controller) -> str:
    """The *operator's* network view (not customer-visible).

    One row per fiber link: wavelength occupancy and failure state,
    followed by per-node transponder pool utilization — the data the
    carrier's resource planning (§4) works from.
    """
    rows: List[List[str]] = [["LINK", "KM", "CHANNELS LIT", "STATE"]]
    plant = controller.inventory.plant
    for link in controller.inventory.graph.links:
        dwdm = plant.dwdm_link(link.a, link.b)
        if dwdm.failed:
            state = "FAILED"
        elif dwdm.osnr_penalty_db > 0.0:
            # Gray failure: carrying traffic, but eroded.  Rendered
            # distinctly from a hard failure so operators can tell a
            # degraded span from a cut one at a glance.
            state = f"DEGRADED -{dwdm.osnr_penalty_db:.1f}dB"
        else:
            state = "up"
        rows.append(
            [
                f"{link.key[0]}={link.key[1]}",
                f"{link.length_km:g}",
                f"{len(dwdm.occupied_channels)}/{dwdm.grid.size}",
                state,
            ]
        )
    lines = [_table(rows, title="Fiber plant")]
    pool_rows: List[List[str]] = [["NODE", "OTs IN USE", "REGENS IN USE"]]
    for node in sorted(controller.inventory.transponders):
        pool = controller.inventory.transponders[node]
        regens = controller.inventory.regens.get(node)
        total_ots = pool.installed()
        used_ots = total_ots - pool.free_count()
        total_regens = regens.installed() if regens else 0
        used_regens = total_regens - regens.free_count() if regens else 0
        pool_rows.append(
            [node, f"{used_ots}/{total_ots}", f"{used_regens}/{total_regens}"]
        )
    lines.append("")
    lines.append(_table(pool_rows, title="Resource pools"))
    return "\n".join(lines)


def _table(rows: List[List[str]], title: str = "") -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    if title:
        lines.append(title)
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
