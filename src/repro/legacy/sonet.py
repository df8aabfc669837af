"""SONET rings with sub-second automatic protection switching.

The SONET layer "provides an automatic protection/restoration mechanism
to switch traffic from working circuits to backup circuits in less than
a second" (paper §2.1).  We model a bidirectional line-switched ring
(BLSR-style): half of each span's STS-1 timeslots carry working traffic,
the other half are reserved for protection.  A span failure loops
affected circuits the long way around the ring within tens of
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    ResourceError,
)

#: SONET APS completes within 50 ms (plus detection); we use 60 ms total.
PROTECTION_SWITCH_TIME_S = 0.060


@dataclass
class SonetCircuit:
    """One STS-n circuit on a ring.

    Attributes:
        circuit_id: Unique id.
        a: Source node.
        b: Destination node.
        sts: STS level (number of STS-1 timeslots consumed per span).
        spans: Indices of ring spans the working path crosses.
        on_protection: True while looped onto protection capacity.
    """

    circuit_id: str
    a: str
    b: str
    sts: int
    spans: List[int] = field(default_factory=list)
    on_protection: bool = False


class SonetRing:
    """A BLSR-style SONET ring.

    Args:
        ring_id: Name of the ring.
        nodes: ADM nodes in ring order; span ``i`` joins ``nodes[i]`` and
            ``nodes[(i+1) % len(nodes)]``.
        line_sts: Total STS-1 capacity of each span (e.g. 192 for OC-192).
            Half is working capacity, half protection.
    """

    def __init__(self, ring_id: str, nodes: List[str], line_sts: int = 192) -> None:
        if len(nodes) < 2:
            raise ConfigurationError(f"a ring needs >= 2 nodes, got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("ring nodes must be unique")
        if line_sts < 2 or line_sts % 2:
            raise ConfigurationError(
                f"line capacity must be a positive even STS count, got {line_sts}"
            )
        self.ring_id = ring_id
        self.nodes = list(nodes)
        self.line_sts = line_sts
        self._working_used: List[int] = [0] * len(nodes)
        self._protection_used: List[int] = [0] * len(nodes)
        self._circuits: Dict[str, SonetCircuit] = {}
        self._failed_spans: Set[int] = set()
        self._counter = 0

    @property
    def span_count(self) -> int:
        """Number of spans (equals the node count)."""
        return len(self.nodes)

    @property
    def working_capacity(self) -> int:
        """Working STS-1 timeslots per span (half the line rate)."""
        return self.line_sts // 2

    def working_free(self, span: int) -> int:
        """Free working timeslots on ``span``."""
        self._validate_span(span)
        return self.working_capacity - self._working_used[span]

    def circuits(self) -> List[SonetCircuit]:
        """All provisioned circuits."""
        return list(self._circuits.values())

    # -- provisioning -----------------------------------------------------------

    def provision(self, a: str, b: str, sts: int = 1) -> SonetCircuit:
        """Provision an STS-``sts`` circuit between two ring nodes.

        The circuit takes the ring direction with more free capacity on
        its bottleneck span (ties broken toward the shorter arc).

        Raises:
            ConfigurationError: for unknown nodes, a == b, or sts < 1.
            CapacityExceededError: if neither direction has room.
        """
        if sts < 1:
            raise ConfigurationError(f"sts must be >= 1, got {sts}")
        if a == b:
            raise ConfigurationError("endpoints must differ")
        for name in (a, b):
            if name not in self.nodes:
                raise ConfigurationError(
                    f"{name!r} is not on ring {self.ring_id}"
                )
        clockwise = self._arc_spans(a, b)
        counter = self._arc_spans(b, a)
        options = []
        for spans in (clockwise, counter):
            if any(s in self._failed_spans for s in spans):
                continue
            free = min(self.working_free(s) for s in spans)
            if free >= sts:
                options.append((free, -len(spans), spans))
        if not options:
            raise CapacityExceededError(
                f"ring {self.ring_id}: no direction has {sts} free STS-1 "
                f"between {a} and {b}"
            )
        options.sort(reverse=True)
        spans = options[0][2]
        circuit_id = f"STS:{self.ring_id}:{self._counter}"
        self._counter += 1
        circuit = SonetCircuit(circuit_id, a, b, sts, spans=list(spans))
        for span in spans:
            self._working_used[span] += sts
        self._circuits[circuit_id] = circuit
        return circuit

    def release(self, circuit_id: str) -> None:
        """Tear down a circuit and free its timeslots.

        Raises:
            ResourceError: for an unknown circuit.
        """
        circuit = self._circuits.pop(circuit_id, None)
        if circuit is None:
            raise ResourceError(f"unknown circuit {circuit_id!r}")
        used = self._protection_used if circuit.on_protection else self._working_used
        spans = (
            self._complement_spans(circuit.spans)
            if circuit.on_protection
            else circuit.spans
        )
        for span in spans:
            used[span] -= circuit.sts

    # -- protection ----------------------------------------------------------------

    def fail_span(self, span: int) -> List[SonetCircuit]:
        """Cut a span; loop affected circuits onto protection capacity.

        Returns the circuits that were protection-switched.  Circuits
        that cannot fit on protection capacity (e.g. double failure)
        stay failed — callers can detect them via ``on_protection``.
        """
        self._validate_span(span)
        if span in self._failed_spans:
            return []
        self._failed_spans.add(span)
        switched = []
        for circuit in self._circuits.values():
            if span not in circuit.spans or circuit.on_protection:
                continue
            other_way = self._complement_spans(circuit.spans)
            if any(s in self._failed_spans for s in other_way):
                continue
            if any(
                self.line_sts // 2 - self._protection_used[s] < circuit.sts
                for s in other_way
            ):
                continue
            for s in circuit.spans:
                self._working_used[s] -= circuit.sts
            for s in other_way:
                self._protection_used[s] += circuit.sts
            circuit.on_protection = True
            switched.append(circuit)
        return switched

    def repair_span(self, span: int) -> List[SonetCircuit]:
        """Repair a span; revert its protection-switched circuits.

        A circuit reverts only when every working span of its own still
        has room: a circuit provisioned during the failure may have taken
        those timeslots, and the switched circuit then stays on
        protection.  Returns the circuits that reverted to their working
        path.
        """
        self._validate_span(span)
        self._failed_spans.discard(span)
        reverted = []
        for circuit in self._circuits.values():
            if not circuit.on_protection or span not in circuit.spans:
                continue
            if any(s in self._failed_spans for s in circuit.spans):
                continue
            if any(self.working_free(s) < circuit.sts for s in circuit.spans):
                continue
            other_way = self._complement_spans(circuit.spans)
            for s in other_way:
                self._protection_used[s] -= circuit.sts
            for s in circuit.spans:
                self._working_used[s] += circuit.sts
            circuit.on_protection = False
            reverted.append(circuit)
        return reverted

    @property
    def failed_spans(self) -> Set[int]:
        """Currently failed span indices."""
        return set(self._failed_spans)

    # -- internals ------------------------------------------------------------

    def _arc_spans(self, a: str, b: str) -> List[int]:
        """Span indices walking from ``a`` forward (in node order) to ``b``."""
        start = self.nodes.index(a)
        end = self.nodes.index(b)
        spans = []
        i = start
        while i != end:
            spans.append(i)
            i = (i + 1) % len(self.nodes)
        return spans

    def _complement_spans(self, spans: List[int]) -> List[int]:
        """The spans of the opposite ring direction."""
        return [s for s in range(self.span_count) if s not in spans]

    def _validate_span(self, span: int) -> None:
        if not 0 <= span < self.span_count:
            raise ConfigurationError(
                f"ring {self.ring_id} has no span {span} "
                f"(spans: 0..{self.span_count - 1})"
            )

    def __repr__(self) -> str:
        return (
            f"SonetRing({self.ring_id}, nodes={len(self.nodes)}, "
            f"OC-{self.line_sts}, circuits={len(self._circuits)})"
        )
