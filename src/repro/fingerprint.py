"""Structural fingerprints: one sha256, four projections of end state.

Every determinism gate in the repository compares a digest of *some*
view of a finished run.  The views differ in what they leave out on
purpose — ids, owners, clocks — and this module is the one place each is
written down:

==========================  ===========================================
:func:`outcome_fingerprint`  a batch of shard orders: state, reason and
                             planned segments; no ids, no timing
                             (sharded ≡ monolithic, pool ≡ in-process)
:func:`plant_fingerprint`    a fiber plant: occupancy masks and failed
                             links; no owners (parent ≡ worker mirror)
:func:`network_fingerprint`  a whole network: clock, kernel sequence,
                             connections and lightpaths *with* ids
                             ("an empty SLO plan changes nothing")
:func:`assignment_fingerprint`  what is lit where: occupancy and the
                             multiset of live routes; no ids, no clock
                             (migration ≡ re-provisioning)
==========================  ===========================================

The two encodings (sorted-key JSON, newline-joined lines) are kept as
they were when the helpers lived in four modules, so every committed
fingerprint value is unchanged.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.core.connection import ConnectionState


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _of_json(payload: Any) -> str:
    return _digest(json.dumps(payload, sort_keys=True))


def _of_lines(parts: Iterable[str]) -> str:
    return _digest("\n".join(parts))


def _route(lightpath) -> str:
    """``A-B-C:A-B@3;B-C@5`` — node path, then channel per segment."""
    segments = ";".join(
        f"{'-'.join(seg.nodes)}@{seg.channel}" for seg in lightpath.segments
    )
    return f"{'-'.join(lightpath.path)}:{segments}"


def outcome_fingerprint(orders) -> str:
    """A structural digest of a batch of shard orders' outcomes.

    Hashes, per order: final state, blocked reason, and per segment the
    owning unit, node path, channel per regen-free hop, and regen sites.
    Deliberately excludes every sequence-assigned identifier (lightpath,
    OT, connection ids) and every timing — those differ between the
    sharded and monolithic deployments even when the outcomes agree.
    """
    return _of_json(
        [
            {
                "order": order.order_id,
                "state": order.state.value,
                "reason": order.blocked_reason,
                "segments": order.plan_record,
            }
            for order in orders
        ]
    )


def plant_fingerprint(plant) -> str:
    """A structural digest of a fiber plant's occupancy + failure state.

    Owner strings are deliberately excluded: the parent lights channels
    under lightpath ids while a mirroring shard worker lights them under
    its mirror owner, yet both represent the same physical state.
    """
    return _of_json(
        {
            "occupancy": sorted(
                (f"{a}={b}", mask)
                for (a, b), mask in plant.occupancy_snapshot().items()
            ),
            "failed": sorted(f"{a}={b}" for a, b in plant.failed_links()),
        }
    )


def network_fingerprint(net) -> str:
    """A structural digest of a network's end state.

    Covers every connection's state and id, every live lightpath's route
    and wavelength assignment, the sim clock, and the kernel's event
    sequence counter — so two runs fingerprint equal only when they
    scheduled the same number of events and converged on the same
    optical state.  This is the oracle behind the "an empty plan changes
    nothing" acceptance check.
    """
    controller = net.controller
    parts = [f"now={net.sim.now:.9f}", f"seq={net.sim._seq}"]
    for conn_id in sorted(controller.connections):
        conn = controller.connections[conn_id]
        parts.append(
            f"conn:{conn_id}:{conn.state.value}:"
            f"{','.join(conn.lightpath_ids)}:{','.join(conn.circuit_ids)}"
        )
    for lp_id in sorted(controller.inventory.lightpaths):
        parts.append(f"lp:{lp_id}:{_route(controller.inventory.lightpaths[lp_id])}")
    return _of_lines(parts)


def assignment_fingerprint(controller) -> str:
    """A digest of *what is assigned where*, replay-comparable.

    Unlike :func:`network_fingerprint`, this excludes the sim clock, the
    kernel event counter, and lightpath/connection ids — a twin network
    that replays the same final assignment from scratch (different id
    counters, different timing) must fingerprint equal.  Covered: every
    link's occupied-channel bitmask and the sorted multiset of live
    (route, channels) assignments.
    """
    occupancy = controller.inventory.plant.occupancy_snapshot()
    parts = [f"link:{a}={b}:{occupancy[a, b]}" for a, b in sorted(occupancy)]
    assignments = []
    for connection in controller.connections.values():
        if connection.state is not ConnectionState.UP:
            continue
        for lightpath_id in connection.lightpath_ids:
            lightpath = controller.inventory.lightpaths.get(lightpath_id)
            if lightpath is not None:
                assignments.append(
                    f"lp:{_route(lightpath)}:{lightpath.rate_bps:.0f}"
                )
    parts.extend(sorted(assignments))
    return _of_lines(parts)
