"""Exception hierarchy for the GRIPhoN reproduction.

Every error raised by the library derives from :class:`GriphonError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing resource exhaustion from programming mistakes.
"""

from __future__ import annotations


class GriphonError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(GriphonError):
    """The network graph is malformed or a referenced node/link is unknown."""


class ResourceError(GriphonError):
    """A required network resource could not be allocated."""


class NoPathError(ResourceError):
    """No route satisfying the request's constraints exists."""


class WavelengthBlockedError(ResourceError):
    """A route exists but no common wavelength is free along it."""


class TransponderUnavailableError(ResourceError):
    """No free optical transponder (or regenerator) at a required node."""


class MigrationLockedError(ResourceError):
    """The connection is already mid-migration under another holder.

    Raised by :meth:`repro.core.migration.Migrations.move` when the
    per-connection migration lock is already held: every migration
    driver (maintenance, re-grooming, SLO remediation, the global
    re-optimization executor) moves under its own holder tag, and a
    connection makes one move at a time.
    """


class CapacityExceededError(ResourceError):
    """A link, port, or multiplexing structure has no remaining capacity."""


class AdmissionError(GriphonError):
    """The request violates an admission-control or isolation policy."""


class ConnectionStateError(GriphonError):
    """An operation is invalid for the connection's current state."""


class EquipmentError(GriphonError):
    """A network element rejected a configuration command.

    Carries optional structured fields identifying the failing element so
    fault localization and :class:`~repro.core.service.FaultReport` can
    render it without string parsing.  ``str()`` is unchanged: only the
    message appears.

    Attributes:
        site: The node/premises hosting the element ('' if unknown).
        element: The specific element addressed ('' if unknown).
        command: The EMS command that failed ('' if unknown).
    """

    def __init__(
        self,
        message: str = "",
        *,
        site: str = "",
        element: str = "",
        command: str = "",
    ) -> None:
        super().__init__(message)
        self.site = site
        self.element = element
        self.command = command


class CommandTimeoutError(EquipmentError):
    """An EMS command did not complete within its sim-time timeout."""


class CommandFailedError(EquipmentError):
    """An EMS command failed permanently (retries exhausted or hard fault).

    Attributes:
        attempts: Command attempts made before giving up.
        retryable: False for hard element failures where retrying is
            pointless (the resilient executor fails fast on these).
    """

    def __init__(
        self,
        message: str = "",
        *,
        site: str = "",
        element: str = "",
        command: str = "",
        attempts: int = 0,
        retryable: bool = True,
    ) -> None:
        super().__init__(message, site=site, element=element, command=command)
        self.attempts = attempts
        self.retryable = retryable


class CircuitBreakerOpenError(EquipmentError):
    """A command was rejected fast because the EMS circuit breaker is open."""


class SignalError(GriphonError):
    """An optical signal violates reach, tuning, or framing constraints."""


class SimulationError(GriphonError):
    """The discrete-event simulation kernel was misused."""


class ConfigurationError(GriphonError):
    """Invalid user-supplied configuration values."""


class SweepTimeoutError(GriphonError):
    """A parallel sweep did not finish within its deadline.

    Raised by the sweep engine's watchdog so a deadlocked worker pool
    fails the run (e.g. a CI job) instead of hanging it forever.
    """


class WorkerCrashed(GriphonError):
    """A shard worker process died mid-RPC (or never came up).

    Raised by :class:`repro.shard.workers.ShardWorkerPool` when a
    worker's pipe breaks or a reply never arrives.  Distinct from the
    planning errors a *healthy* worker reports back — those are rebuilt
    as their original types — so callers can treat a crash as an
    infrastructure event rather than a plan outcome.  A crash is final:
    the process stays condemned, and its pool's owner closes the pool.
    """
