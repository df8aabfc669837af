"""GRIPhoN: bandwidth on demand for inter-data center communication.

A full reproduction (in simulation) of the HotNets 2011 paper by
Mahimkar et al. (AT&T Labs Research).  The package provides:

* ``repro.sim`` — deterministic discrete-event simulation kernel;
* ``repro.topo`` — network graphs, the Fig. 4 testbed, a synthetic backbone;
* ``repro.optical`` — the DWDM layer: ROADMs, transponders, FXCs, reach;
* ``repro.otn`` — the OTN sub-wavelength layer (ODU switching, mesh
  restoration);
* ``repro.legacy`` — today's SONET / W-DCS layers for baselines;
* ``repro.ems`` — element-management latency models (the source of the
  paper's 60–70 s connection setup times);
* ``repro.core`` — the GRIPhoN controller and the customer-facing
  bandwidth-on-demand service API (the paper's contribution);
* ``repro.workload`` / ``repro.baselines`` / ``repro.metrics`` — traffic
  generators, comparison systems, and measurement utilities.

The packages re-export nothing: import a name from the module that
defines it, so a run loads only the modules it uses.

Quickstart::

    from repro.facade import build_griphon_testbed

    net = build_griphon_testbed(seed=1)
    service = net.service_for("csp-alpha")
    conn = service.request_connection("PREMISES-A", "PREMISES-C", rate_gbps=10)
    net.sim.run()
    print(conn.state, conn.setup_duration)
"""

from __future__ import annotations

from typing import Tuple

from repro._version import __version__


# -- the records' contract ----------------------------------------------------
# The per-order records are NamedTuples or slotted classes, not dataclasses:
# ``dataclasses`` loads ``inspect`` (and ``ast``, ``dis``, ``tokenize``),
# about 1 MB a process that no run needs (DESIGN.md §7).


def record_eq(self, other: object) -> bool:
    """``==`` of a NamedTuple record: true only for another record of the
    same type with equal fields, never for a plain tuple."""
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def record_ne(self, other: object) -> bool:
    """``!=`` of a NamedTuple record: the negation of :func:`record_eq`."""
    return other.__class__ is not self.__class__ or tuple.__ne__(self, other)


def fields_eq(self, other: object) -> bool:
    """``==`` of a slotted record: same type, equal ``_fields``."""
    return other.__class__ is self.__class__ and _values(self) == _values(other)


def _values(record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


class FrozenRecord:
    """A frozen record that a NamedTuple cannot be: it has a base class,
    validates its arguments or derives an attribute at construction.

    A subclass declares its ``__slots__`` and ``_fields``, the
    constructor's arguments in order; its ``__init__`` checks them and
    passes them on to this one, which sets each field once.  Assigning
    afterwards raises AttributeError.  Equality (only with the same
    type), hashing, repr and pickling read ``_fields``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    __eq__ = fields_eq

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, _values(self)
