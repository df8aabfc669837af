"""The vendor ROADM EMS: the line system's amplifier chains and timed steps.

:meth:`LightpathProvisioner.claim <repro.core.provisioning.
LightpathProvisioner.claim>` programs the ROADMs; this EMS owns the
per-link amplifier chains and returns the seconds the equalization and
verification steps take, which the calling workflow yields to the
simulator.  The equalization step's duration includes the
amplifier-chain transient settle time of the link, so longer links
genuinely take longer to light.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import EquipmentError, TopologyError
from repro.ems.latency import LatencyModel
from repro.obs.registry import MetricsRegistry
from repro.optical.amplifier import AmplifierChain
from repro.optical.fiber import FiberPlant


class RoadmEms:
    """Manages the optical line system.

    The ROADMs themselves are programmed through the inventory at claim
    time, not through this object.
    """

    def __init__(
        self,
        plant: FiberPlant,
        latency: LatencyModel,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._plant = plant
        self._latency = latency
        self._metrics = metrics
        self._chains: Dict[tuple, AmplifierChain] = {
            link.key: AmplifierChain(link.length_km) for link in plant.graph.links
        }

    def _count(self, op: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(f"ems.roadm.{op}")

    def amplifier_chains(self) -> Dict[tuple, AmplifierChain]:
        """Live amplifier-chain state per link key.

        Exposed so the invariant auditor can cross-check gain settings
        against inventory records and the SLO injector can flap them.
        """
        return dict(self._chains)

    def chain(self, a: str, b: str) -> AmplifierChain:
        """The amplifier chain on the link joining ``a`` and ``b``.

        Links added after construction get a chain lazily, matching
        :meth:`FiberPlant.dwdm_link`.

        Raises:
            EquipmentError: if no such link exists.
        """
        try:
            dwdm = self._plant.dwdm_link(a, b)
        except TopologyError as exc:
            raise EquipmentError(
                f"EMS manages no line between {a!r} and {b!r}",
                site=a,
                element=f"line@{a}={b}",
                command="lookup",
            ) from exc
        key = dwdm.link.key
        if key not in self._chains:
            self._chains[key] = AmplifierChain(dwdm.link.length_km)
        return self._chains[key]

    def equalize_link(self, a: str, b: str) -> float:
        """Power-balance and equalize one link after an add/drop change.

        The duration is the EMS equalization step plus the link's
        amplifier-chain transient settle time, so longer links take
        proportionally longer — part of why setup time in Table 2 grows
        with path length.
        """
        dwdm = self._plant.dwdm_link(a, b)
        chain = self._chains[dwdm.link.key]
        self._count("equalize")
        return self._latency.sample(
            "line.equalize", extra=chain.transient_settle_time()
        )

    def verify_lightpath(self) -> float:
        """End-to-end verification before customer handover."""
        self._count("verify")
        return self._latency.sample("verify.end_to_end")
