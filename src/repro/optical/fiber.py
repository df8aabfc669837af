"""Per-link DWDM wavelength occupancy and fiber failure state.

A :class:`DwdmLink` wraps one topology link with a wavelength grid: it
tracks which channels are lit, who owns them, and whether the fiber is
cut.  :class:`FiberPlant` is the collection of all DWDM links in the
network plus SRLG-aware failure injection (a conduit cut fails every
link sharing the SRLG).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ResourceError, TopologyError, WavelengthBlockedError
from repro.optical.wavelength import WavelengthGrid
from repro.topo.graph import Link, NetworkGraph


def _mask_to_set(mask: int) -> Set[int]:
    """Expand a free-channel bitmask into the public ``Set[int]`` form."""
    result: Set[int] = set()
    while mask:
        low = mask & -mask
        result.add(low.bit_length() - 1)
        mask ^= low
    return result


class _CutTally:
    """How many of one plant's links are cut, shared with those links."""

    __slots__ = ("cut",)

    def __init__(self) -> None:
        self.cut = 0


class DwdmLink:
    """Wavelength occupancy on one bidirectional fiber pair.

    Channels are occupied by string *owners* (lightpath ids), enabling
    diagnostics ("which connection holds channel 7 on NYC=CHI?") and
    failure localization.
    """

    def __init__(self, link: Link, grid: WavelengthGrid) -> None:
        self._link = link
        self._grid = grid
        self._owners: Dict[int, str] = {}
        # Bit i set <=> channel i free.  Kept in lockstep with _owners so
        # path-wide intersection is a chain of integer ANDs.
        self._free_mask = (1 << grid.size) - 1
        self._failed = False
        #: The owning plant's cut count, which fail() / repair() keep;
        #: None for a link built outside a plant.
        self._tally: Optional[_CutTally] = None
        #: The owning plant's record of links whose occupancy changed
        #: (FiberPlant.touched_links); None while nobody reads one.
        self._touched: Optional[Set[Tuple[str, str]]] = None
        # Gray-failure state: OSNR penalties keyed by cause string (one
        # entry per active degradation, e.g. "osnr-drift:2").  Unlike a
        # cut, a degraded fiber still carries traffic — just with less
        # margin — so this never touches occupancy or the failed flag.
        self._degradations: Dict[str, float] = {}

    @property
    def link(self) -> Link:
        """The underlying topology link."""
        return self._link

    @property
    def grid(self) -> WavelengthGrid:
        """The channel grid this link carries."""
        return self._grid

    @property
    def failed(self) -> bool:
        """True while the fiber is cut."""
        return self._failed

    @property
    def occupied_channels(self) -> Set[int]:
        """Channels currently lit on this link."""
        return set(self._owners)

    def free_channels(self) -> Set[int]:
        """Channels available for a new lightpath."""
        return _mask_to_set(self._free_mask)

    def free_mask(self) -> int:
        """Occupancy as an integer bitmask: bit ``i`` set iff channel ``i`` is free."""
        return self._free_mask

    def owner_of(self, channel: int) -> Optional[str]:
        """The owner of ``channel``, or ``None`` if it is dark."""
        self._grid.validate(channel)
        return self._owners.get(channel)

    def occupy(self, channel: int, owner: str) -> None:
        """Light ``channel`` for ``owner``.

        Raises:
            WavelengthBlockedError: if the channel is already lit.
            ResourceError: if the fiber is currently cut.
        """
        self._grid.validate(channel)
        if self._failed:
            raise ResourceError(f"link {self._link} is failed")
        current = self._owners.get(channel)
        if current is not None:
            raise WavelengthBlockedError(
                f"channel {channel} on {self._link} is held by {current!r}"
            )
        self._owners[channel] = owner
        self._free_mask &= ~(1 << channel)
        if self._touched is not None:
            self._touched.add(self._link.key)

    def release(self, channel: int, owner: str) -> None:
        """Darken ``channel``, verifying the caller owns it.

        Raises:
            ResourceError: if the channel is dark or held by someone else.
        """
        self._grid.validate(channel)
        current = self._owners.get(channel)
        if current is None:
            raise ResourceError(f"channel {channel} on {self._link} is not lit")
        if current != owner:
            raise ResourceError(
                f"channel {channel} on {self._link} is held by {current!r}, "
                f"not {owner!r}"
            )
        del self._owners[channel]
        self._free_mask |= 1 << channel
        if self._touched is not None:
            self._touched.add(self._link.key)

    def fail(self) -> Set[str]:
        """Cut the fiber; returns the owners whose channels were affected.

        Occupancy is preserved so restoration logic can see what was
        riding the link when it failed.
        """
        if not self._failed:
            self._failed = True
            if self._tally is not None:
                self._tally.cut += 1
        return set(self._owners.values())

    def repair(self) -> None:
        """Repair the fiber."""
        if self._failed:
            self._failed = False
            if self._tally is not None:
                self._tally.cut -= 1

    def utilization(self) -> float:
        """Fraction of channels lit, in [0, 1]."""
        return len(self._owners) / self._grid.size

    # -- gray-failure state ------------------------------------------------------

    def set_degradation(self, cause: str, penalty_db: float) -> None:
        """Record an OSNR penalty on this link attributed to ``cause``.

        Raises:
            ResourceError: if the penalty is negative.
        """
        if penalty_db < 0:
            raise ResourceError(
                f"degradation penalty must be >= 0, got {penalty_db}"
            )
        self._degradations[cause] = penalty_db

    def clear_degradation(self, cause: str) -> None:
        """Remove the penalty attributed to ``cause`` (idempotent)."""
        self._degradations.pop(cause, None)

    @property
    def osnr_penalty_db(self) -> float:
        """Total OSNR penalty from all active degradations, in dB."""
        return sum(self._degradations.values())

    def degradation_causes(self) -> List[str]:
        """Active degradation causes, in insertion order."""
        return list(self._degradations)


class FiberPlant:
    """All DWDM links of a network, with SRLG-aware failure injection."""

    def __init__(self, graph: NetworkGraph, grid: Optional[WavelengthGrid] = None) -> None:
        self._graph = graph
        self._grid = grid or WavelengthGrid()
        #: Cut links, counted by their own fail() / repair(): at zero,
        #: liveness queries need not look at any link.
        self._tally = _CutTally()
        #: Keys of links whose occupancy changed, kept only once
        #: touched_links() has been asked for.
        self._touched: Optional[Set[Tuple[str, str]]] = None
        self._links: Dict[Tuple[str, str], DwdmLink] = {
            link.key: self._adopt(link) for link in graph.links
        }
        #: Callbacks invoked with (link_key, affected_owners) on each cut.
        self.on_failure: List[Callable[[Tuple[str, str], Set[str]], None]] = []

    @property
    def graph(self) -> NetworkGraph:
        """The underlying topology."""
        return self._graph

    @property
    def grid(self) -> WavelengthGrid:
        """The shared wavelength grid."""
        return self._grid

    def dwdm_link(self, a: str, b: str) -> DwdmLink:
        """The DWDM state for the link joining ``a`` and ``b``.

        Links added to the topology after the plant was built are picked
        up lazily, with all channels dark.

        Raises:
            TopologyError: if no such link exists.
        """
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            link = self._graph.link_between(a, b)  # raises TopologyError
            dwdm = self._adopt(link)
            self._links[key] = dwdm
            return dwdm

    def _adopt(self, link: Link) -> DwdmLink:
        """A dark DWDM link whose cuts and repairs this plant counts."""
        dwdm = DwdmLink(link, self._grid)
        dwdm._tally = self._tally
        dwdm._touched = self._touched
        return dwdm

    def touched_links(self) -> Set[Tuple[str, str]]:
        """The record of links whose occupancy changed, started on first call.

        From then on every :meth:`DwdmLink.occupy` / ``release`` adds its
        link's key to the returned set, so it never holds more keys than
        the plant has links; its reader empties it as it consumes it.
        There is one record per plant, hence one reader: a shard
        worker's plant mirror.  Until someone asks, nothing is recorded.
        """
        if self._touched is None:
            self._touched = set()
            for dwdm in self._links.values():
                dwdm._touched = self._touched
        return self._touched

    def links_on_path(self, path: List[str]) -> List[DwdmLink]:
        """DWDM link states along a node path."""
        return [self.dwdm_link(u, v) for u, v in zip(path, path[1:])]

    def path_is_up(self, path: List[str]) -> bool:
        """True if no link along the path is failed (at once when none is)."""
        if not self._tally.cut:
            return True
        return all(not link.failed for link in self.links_on_path(path))

    def common_free_mask(self, path: List[str]) -> int:
        """Bitmask of channels free on *every* link of the path."""
        mask = (1 << self._grid.size) - 1
        for link in self.links_on_path(path):
            mask &= link.free_mask()
            if not mask:
                break
        return mask

    def common_free_channels(self, path: List[str]) -> Set[int]:
        """Channels free on *every* link of the path.

        This is the wavelength-continuity constraint: without OEO
        conversion a lightpath must use one channel end to end.  The
        intersection is computed as a chain of integer ANDs over the
        per-link free masks, with one mask-to-set conversion at the end.
        """
        return _mask_to_set(self.common_free_mask(path))

    # -- failure injection ------------------------------------------------------

    def cut_link(self, a: str, b: str) -> Set[str]:
        """Cut a single fiber link; returns affected owners and notifies."""
        dwdm = self.dwdm_link(a, b)
        affected = dwdm.fail()
        for callback in self.on_failure:
            callback(dwdm.link.key, affected)
        return affected

    def cut_srlg(self, srlg: str) -> Set[str]:
        """Cut every link in a shared-risk group (a conduit cut).

        Returns the union of affected owners across all failed links.
        """
        links = self._graph.links_in_srlg(srlg)
        if not links:
            raise TopologyError(f"unknown SRLG {srlg!r}")
        affected: Set[str] = set()
        for link in links:
            affected |= self.cut_link(link.a, link.b)
        return affected

    def repair_link(self, a: str, b: str) -> None:
        """Repair a single fiber link."""
        self.dwdm_link(a, b).repair()

    def repair_srlg(self, srlg: str) -> None:
        """Repair every link in a shared-risk group."""
        links = self._graph.links_in_srlg(srlg)
        if not links:
            raise TopologyError(f"unknown SRLG {srlg!r}")
        for link in links:
            self.repair_link(link.a, link.b)

    def failed_links(self) -> List[Tuple[str, str]]:
        """Keys of all currently failed links."""
        if not self._tally.cut:
            return []
        return [key for key, dwdm in self._links.items() if dwdm.failed]

    def path_penalty_db(self, path: List[str]) -> float:
        """Total gray-failure OSNR penalty along a node path, in dB."""
        return sum(link.osnr_penalty_db for link in self.links_on_path(path))

    def degraded_links(self) -> List[Tuple[str, str]]:
        """Keys of all links carrying a nonzero OSNR penalty."""
        return [
            key
            for key, dwdm in self._links.items()
            if dwdm.osnr_penalty_db > 0.0
        ]

    def occupancy_snapshot(self) -> Dict[Tuple[str, str], int]:
        """Occupied-channel bitmask per link, omitting fully dark links.

        Bit ``i`` set means channel ``i`` is lit.  This is the compact
        state a shard worker's plant mirror needs to plan identically:
        delta-sync ships only the links whose mask changed since the
        last round.
        """
        full = (1 << self._grid.size) - 1
        result: Dict[Tuple[str, str], int] = {}
        for key, dwdm in self._links.items():
            occupied = full & ~dwdm.free_mask()
            if occupied:
                result[key] = occupied
        return result
