"""Ethernet virtual circuits: committed-rate packet services."""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.errors import ConnectionStateError


class EvcState(enum.Enum):
    """Life cycle of an EVC."""

    UP = "up"
    REROUTING = "rerouting"
    DOWN = "down"
    RELEASED = "released"


_ALLOWED = {
    EvcState.UP: {EvcState.REROUTING, EvcState.DOWN, EvcState.RELEASED},
    EvcState.REROUTING: {EvcState.UP, EvcState.DOWN, EvcState.RELEASED},
    EvcState.DOWN: {EvcState.REROUTING, EvcState.UP, EvcState.RELEASED},
    EvcState.RELEASED: set(),
}


class Evc:
    """One Ethernet virtual circuit.

    Attributes:
        evc_id: Unique id (the reservation owner on adjacencies).
        a / b: Endpoint router nodes.
        rate_bps: Committed information rate.
        path: Current router path.
        reroute_count: How many times the EVC has been moved.
    """

    __slots__ = ("evc_id", "a", "b", "rate_bps", "path", "state", "reroute_count")

    def __init__(
        self,
        evc_id: str,
        a: str,
        b: str,
        rate_bps: float,
        path: Optional[List[str]] = None,
        state: EvcState = EvcState.UP,
        reroute_count: int = 0,
    ) -> None:
        self.evc_id = evc_id
        self.a = a
        self.b = b
        self.rate_bps = rate_bps
        self.path = [] if path is None else path
        self.state = state
        self.reroute_count = reroute_count

    def transition(self, new_state: EvcState) -> None:
        """Move the state machine.

        Raises:
            ConnectionStateError: for a disallowed transition.
        """
        if new_state not in _ALLOWED[self.state]:
            raise ConnectionStateError(
                f"EVC {self.evc_id}: cannot go "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
