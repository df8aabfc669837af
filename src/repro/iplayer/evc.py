"""Ethernet virtual circuits: committed-rate packet services."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

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


@dataclass
class Evc:
    """One Ethernet virtual circuit.

    Attributes:
        evc_id: Unique id (the reservation owner on adjacencies).
        a / b: Endpoint router nodes.
        rate_bps: Committed information rate.
        path: Current router path.
        reroute_count: How many times the EVC has been moved.
    """

    evc_id: str
    a: str
    b: str
    rate_bps: float
    path: List[str] = field(default_factory=list)
    state: EvcState = EvcState.UP
    reroute_count: int = 0

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
