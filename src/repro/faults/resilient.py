"""Resilient EMS command execution: timeouts, retries, circuit breakers.

Every timed EMS step in a provisioning workflow runs through
:meth:`ResilientExecutor.execute`, a generator the workflow delegates to
with ``yield from``.  On the happy path (empty fault plan) it yields the
step's duration once and returns — no random draws, no metrics, no
spans — so the resilience layer is invisible in Table 2 and the
benchmark JSONs.  When the bound :class:`~repro.faults.plan.FaultPlan`
injects a fault, the executor:

* charges the fault's sim-time cost (``error_after_s`` for transient
  errors, the policy timeout for timeouts/stuck elements);
* retries up to ``max_attempts`` with exponential backoff and
  deterministic jitter (drawn from a named substream, so two runs with
  one seed back off identically);
* trips a per-EMS circuit breaker (closed -> open -> half-open) after
  consecutive failures, failing subsequent commands fast during the
  cooldown;
* records ``ems.retry`` / ``ems.breaker.*`` counters and ``ems.retry``
  child spans under the step's trace span.

Exhausted retries raise :class:`~repro.errors.CommandFailedError` —
the saga in :mod:`repro.core.provisioning` catches it and compensates.
Teardown paths pass ``best_effort=True``: failures are swallowed (and
counted) so resource release always completes.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro import FrozenRecord
from repro.errors import (
    CircuitBreakerOpenError,
    CommandFailedError,
    CommandTimeoutError,
    ConfigurationError,
    EquipmentError,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Span
from repro.sim.randomness import RandomStreams


class RetryPolicy(FrozenRecord):
    """Per-command resilience parameters.

    Attributes:
        timeout_s: Sim-time budget per attempt; timeout/stuck faults
            consume exactly this long before failing.
        max_attempts: Total attempts (first try + retries).
        backoff_base_s: Backoff before the first retry.
        backoff_factor: Multiplier per subsequent retry.
        backoff_max_s: Backoff ceiling.
        jitter: Fractional jitter added to each backoff (0.1 = up to
            +10%, drawn deterministically from a named substream).
        breaker_threshold: Consecutive failures that open an EMS's
            circuit breaker.
        breaker_cooldown_s: Open time before a half-open probe is let
            through.
    """

    __slots__ = _fields = (
        "timeout_s", "max_attempts", "backoff_base_s", "backoff_factor",
        "backoff_max_s", "jitter", "breaker_threshold", "breaker_cooldown_s",
    )

    def __init__(
        self,
        timeout_s: float = 30.0,
        max_attempts: int = 3,
        backoff_base_s: float = 1.0,
        backoff_factor: float = 2.0,
        backoff_max_s: float = 30.0,
        jitter: float = 0.1,
        breaker_threshold: int = 4,
        breaker_cooldown_s: float = 120.0,
    ) -> None:
        # Written so that NaN fails each check.
        if not timeout_s > 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
        if not max_attempts >= 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if not (backoff_base_s >= 0 and backoff_max_s >= 0):
            raise ConfigurationError("backoff durations must be >= 0")
        if not backoff_factor >= 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {jitter}")
        if not breaker_threshold >= 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        if not breaker_cooldown_s > 0:
            raise ConfigurationError(
                f"breaker_cooldown_s must be > 0, got {breaker_cooldown_s}"
            )
        super().__init__(
            timeout_s, max_attempts, backoff_base_s, backoff_factor, backoff_max_s,
            jitter, breaker_threshold, breaker_cooldown_s,
        )

    def backoff_delay(self, retry_index: int, jitter_roll: float = 0.0) -> float:
        """The backoff before retry ``retry_index`` (1-based).

        Pure math, unit-testable: ``base * factor**(i-1)`` capped at
        ``backoff_max_s``, then stretched by ``1 + jitter * roll`` with
        ``roll`` in ``[0, 1)``.
        """
        raw = self.backoff_base_s * self.backoff_factor ** (retry_index - 1)
        return min(raw, self.backoff_max_s) * (1.0 + self.jitter * jitter_roll)


class CircuitBreaker:
    """A closed/open/half-open breaker guarding one EMS.

    Closed: commands flow, consecutive failures are counted.  At
    ``threshold`` failures the breaker opens; commands are rejected fast
    until ``cooldown_s`` has passed, then one half-open probe is let
    through.  A successful probe closes the breaker; a failed one
    re-opens it for another cooldown.
    """

    def __init__(self, threshold: int = 4, cooldown_s: float = 120.0) -> None:
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s <= 0:
            raise ConfigurationError(f"cooldown_s must be > 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None

    def allow(self, now: float) -> bool:
        """May a command proceed at sim time ``now``?

        An open breaker past its cooldown moves to half-open and lets
        the probe through.
        """
        if self.state == "open":
            if self.opened_at is not None and now >= self.opened_at + self.cooldown_s:
                self.state = "half_open"
                return True
            return False
        return True

    def record_success(self) -> None:
        """A command completed; close the breaker and reset the count."""
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> bool:
        """A command failed; returns True when this opens the breaker."""
        self.consecutive_failures += 1
        if self.state == "half_open" or self.consecutive_failures >= self.threshold:
            was_open = self.state == "open"
            self.state = "open"
            self.opened_at = now
            return not was_open
        return False

    def retry_after(self, now: float) -> float:
        """Sim-seconds until an open breaker will probe (0 if not open)."""
        if self.state != "open" or self.opened_at is None:
            return 0.0
        return max(0.0, self.opened_at + self.cooldown_s - now)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, "
            f"failures={self.consecutive_failures}/{self.threshold})"
        )


class ResilientExecutor:
    """Runs EMS commands under a retry policy against a fault plan."""

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        policy: Optional[RetryPolicy] = None,
        streams: Optional[RandomStreams] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.policy = policy if policy is not None else RetryPolicy()
        self._streams = streams
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._metrics = metrics
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, ems: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding ``ems``."""
        breaker = self._breakers.get(ems)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy.breaker_threshold, self.policy.breaker_cooldown_s
            )
            self._breakers[ems] = breaker
        return breaker

    def quiet(self) -> bool:
        """True when the plan can inject no fault now or later: the
        executor then runs each command as issued."""
        return self.plan.closed(self._clock())

    def breaker_state(self, ems: str) -> str:
        """``closed`` / ``open`` / ``half_open`` without creating one."""
        breaker = self._breakers.get(ems)
        return breaker.state if breaker is not None else "closed"

    def _inc(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name)

    def _jitter_roll(self, ems: str) -> float:
        if self._streams is None or self.policy.jitter == 0.0:
            return 0.0
        return self._streams.uniform(f"jitter:{ems}", 0.0, 1.0)

    def execute(
        self,
        ems: str,
        element: str,
        command: str,
        duration: float,
        parent_span: Span = NULL_SPAN,
        best_effort: bool = False,
    ) -> Generator[float, None, float]:
        """Run one EMS command; yields sim-time costs, returns the total.

        Args:
            ems: The EMS executing the command (breaker + fault scope).
            element: The element label the command addresses.
            command: The command stage name (``tune``, ``roadm``, ...).
            duration: The command's nominal sim-time duration.
            parent_span: Trace span the retry children nest under.
            best_effort: Swallow final failure (teardown paths) — the
                command is forced through after exhausting retries so
                resource release always completes.

        Raises:
            CommandFailedError: retries exhausted or hard element fault
                (never when ``best_effort``).
        """
        if self.quiet():
            yield duration
            return duration

        elapsed = 0.0
        last_error: Optional[EquipmentError] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            now = self._clock()
            breaker = self.breaker(ems)
            if not breaker.allow(now):
                last_error = CircuitBreakerOpenError(
                    f"{ems} circuit breaker open "
                    f"({breaker.retry_after(now):.0f}s until probe); "
                    f"rejected {command} at {element}",
                    site=element,
                    element=element,
                    command=command,
                )
                self._inc("ems.breaker.rejected")
                self._inc(f"ems.breaker.rejected.{ems}")
            else:
                if breaker.state == "half_open":
                    self._inc("ems.breaker.half_open")
                fault = self.plan.decide(ems, element, command, now)
                if fault is None:
                    yield duration
                    elapsed += duration
                    breaker.record_success()
                    return elapsed
                last_error = self._apply_fault(fault, ems, element, command)
                cost = (
                    self.policy.timeout_s
                    if fault.mode in ("timeout", "stuck")
                    else fault.error_after_s
                )
                if cost > 0:
                    yield cost
                    elapsed += cost
                if breaker.record_failure(self._clock()):
                    self._inc("ems.breaker.open")
                    self._inc(f"ems.breaker.open.{ems}")
                if isinstance(last_error, CommandFailedError) and not last_error.retryable:
                    break
            if attempt < self.policy.max_attempts:
                self._inc("ems.retry")
                self._inc(f"ems.retry.{ems}")
                backoff = self.policy.backoff_delay(attempt, self._jitter_roll(ems))
                with parent_span.child(
                    "ems.retry",
                    attempt=attempt,
                    error=type(last_error).__name__,
                ):
                    if backoff > 0:
                        yield backoff
                        elapsed += backoff

        self._inc("ems.command.failed")
        self._inc(f"ems.command.failed.{ems}")
        if best_effort:
            self._inc("ems.command.forced")
            return elapsed
        if isinstance(last_error, CommandFailedError):
            raise last_error
        raise CommandFailedError(
            f"{command} at {element} failed after "
            f"{self.policy.max_attempts} attempt(s): {last_error}",
            site=element,
            element=element,
            command=command,
            attempts=self.policy.max_attempts,
        ) from last_error

    def _apply_fault(
        self, fault: FaultSpec, ems: str, element: str, command: str
    ) -> EquipmentError:
        """The error a decided fault manifests as."""
        self._inc("faults.injected")
        self._inc(f"faults.injected.{fault.mode}")
        if fault.mode in ("timeout", "stuck"):
            return CommandTimeoutError(
                f"{command} at {element} timed out after "
                f"{self.policy.timeout_s:.0f}s ({ems} {fault.mode})",
                site=element,
                element=element,
                command=command,
            )
        if fault.mode == "fail":
            return CommandFailedError(
                f"{command} at {element} failed hard ({ems} element failure)",
                site=element,
                element=element,
                command=command,
                attempts=1,
                retryable=False,
            )
        return EquipmentError(
            f"{command} at {element} rejected (transient {ems} error)",
            site=element,
            element=element,
            command=command,
        )
