"""End-to-end wavelength connections (lightpaths).

A lightpath is the DWDM-layer realization of a full-wavelength service:
a route through the ROADM mesh, a wavelength assignment per regen-free
segment, the transponders at its ends, and any regenerators in the
middle.  The object itself is a passive record; allocation and EMS
choreography live in :mod:`repro.core`.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro import fields_eq
from repro.errors import ConnectionStateError


class LightpathState(enum.Enum):
    """Life cycle of a lightpath."""

    PLANNED = "planned"
    SETTING_UP = "setting_up"
    UP = "up"
    FAILED = "failed"
    TEARING_DOWN = "tearing_down"
    RELEASED = "released"


#: Transitions the state machine allows.
_ALLOWED = {
    LightpathState.PLANNED: {LightpathState.SETTING_UP, LightpathState.RELEASED},
    LightpathState.SETTING_UP: {LightpathState.UP, LightpathState.RELEASED},
    LightpathState.UP: {LightpathState.FAILED, LightpathState.TEARING_DOWN},
    LightpathState.FAILED: {LightpathState.TEARING_DOWN, LightpathState.UP},
    LightpathState.TEARING_DOWN: {LightpathState.RELEASED},
    LightpathState.RELEASED: set(),
}


class Segment:
    """One regen-free stretch of a lightpath with a single wavelength.

    Attributes:
        nodes: Node path of the segment (>= 2 nodes).
        channel: The wavelength channel used end-to-end on this segment.
    """

    __slots__ = _fields = ("nodes", "channel")

    def __init__(self, nodes: List[str], channel: int) -> None:
        self.nodes = nodes
        self.channel = channel

    __eq__ = fields_eq

    @property
    def links(self) -> List[Tuple[str, str]]:
        """Canonical link keys along the segment."""
        keys = []
        for u, v in zip(self.nodes, self.nodes[1:]):
            keys.append((u, v) if u <= v else (v, u))
        return keys


class Lightpath:
    """One wavelength connection through the ROADM mesh.

    Attributes:
        lightpath_id: Unique id (the *owner* string used on all resources).
        path: Full node path from source ROADM to destination ROADM.
        rate_bps: Line rate of the wavelength (e.g. 10G or 40G).
        segments: Per-regen-segment wavelength assignments; a path with no
            regens has exactly one segment covering the whole path.
        regen_sites: Nodes hosting a regenerator for this lightpath.
        ot_ids: Transponder ids at the two ends.
        regen_ids: Regenerator ids in path order.
    """

    __slots__ = (
        "lightpath_id", "path", "rate_bps", "segments", "regen_sites",
        "ot_ids", "regen_ids", "state", "setup_started_at", "up_at",
        "released_at", "setup_error",
    )

    def __init__(
        self,
        lightpath_id: str,
        path: List[str],
        rate_bps: float,
        segments: Optional[List[Segment]] = None,
        regen_sites: Optional[List[str]] = None,
        ot_ids: Optional[List[str]] = None,
        regen_ids: Optional[List[str]] = None,
        state: LightpathState = LightpathState.PLANNED,
        setup_started_at: Optional[float] = None,
        up_at: Optional[float] = None,
        released_at: Optional[float] = None,
        setup_error: Optional[Exception] = None,
    ) -> None:
        self.lightpath_id = lightpath_id
        self.path = path
        self.rate_bps = rate_bps
        self.segments = [] if segments is None else segments
        self.regen_sites = [] if regen_sites is None else regen_sites
        self.ot_ids = [] if ot_ids is None else ot_ids
        self.regen_ids = [] if regen_ids is None else regen_ids
        self.state = state
        self.setup_started_at = setup_started_at
        self.up_at = up_at
        self.released_at = released_at
        #: The EquipmentError that aborted setup (None on the happy path);
        #: set by the provisioning saga when it rolls the lightpath back.
        self.setup_error = setup_error

    @property
    def source(self) -> str:
        """First node of the path."""
        return self.path[0]

    @property
    def destination(self) -> str:
        """Last node of the path."""
        return self.path[-1]

    @property
    def hop_count(self) -> int:
        """Number of ROADM-layer hops (links) on the path."""
        return len(self.path) - 1

    @property
    def channels(self) -> List[int]:
        """The wavelength channel of each segment, in order."""
        return [segment.channel for segment in self.segments]

    def transition(self, new_state: LightpathState) -> None:
        """Move the state machine to ``new_state``.

        Raises:
            ConnectionStateError: for a disallowed transition.
        """
        if new_state not in _ALLOWED[self.state]:
            raise ConnectionStateError(
                f"lightpath {self.lightpath_id}: cannot go "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def __str__(self) -> str:
        route = " - ".join(self.path)
        return f"{self.lightpath_id} [{self.state.value}] {route}"
