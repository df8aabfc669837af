"""Declarative, seeded fault plans for EMS command injection.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules matched
against every EMS command the resilient executor runs.  Matching uses
``fnmatch`` wildcards over the EMS name a step is issued under
(``roadm_ems``, ``otn_ems``, ``fxc_ctl``, ``controller`` — plan keys,
not objects), the element label, and the command stage, so
one spec can express "every ROADM command", "the FXC at ROADM-II is
stuck between t=100 and t=400", or "the third equalize fails once".

Determinism: the plan draws its probability gates from a substream
spawned off the network's :class:`~repro.sim.randomness.RandomStreams`
(``streams.spawn("faults")``), the same domain-separation mechanism the
sweep engine uses for trials — two runs with the same master seed see
byte-identical fault sequences, and an empty plan draws nothing at all.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Sequence

from repro import FrozenRecord
from repro.errors import ConfigurationError
from repro.sim.randomness import RandomStreams

#: The injectable failure modes, from most to least benign.
FAULT_MODES = ("transient", "timeout", "stuck", "fail")


def _reject_unknown_keys(kind: str, data: Dict[str, Any], known) -> None:
    """Raise on keys of ``kind``'s plain-dict form it does not have, so
    a misspelled key fails loudly instead of meaning its default."""
    extra = set(data) - set(known)
    if extra:
        raise ConfigurationError(
            f"unknown {kind} keys: {', '.join(sorted(extra))}"
        )


class FaultSpec(FrozenRecord):
    """One fault-injection rule.

    Attributes:
        ems: EMS name pattern (``roadm_ems``, ``otn_ems``, ``fxc_ctl``,
            ``controller``, or ``*``); no step is issued under any
            other name, so e.g. ``nte_ctl`` matches nothing.
        element: Element label pattern (e.g. ``ROADM-II``, ``OT:*``).
        command: Command stage pattern (``tune``, ``roadm``, ``fxc``,
            ``equalize``, ``verify``, ``otn``, ``nte``, or ``*``).
        mode: ``transient`` (quick error, retry usually wins),
            ``timeout``/``stuck`` (the command burns its full sim-time
            timeout before failing), or ``fail`` (hard element failure;
            retrying is pointless and the executor fails fast).
        probability: Chance a matching command is hit (1.0 = always).
        count: Total injections this spec may perform (None = unlimited).
        after_s: Rule active only at sim times >= this: a fault "from
            time t" is ``after_s=t``, planned up front.
        until_s: Rule inactive at sim times >= this (None = forever).
        error_after_s: Sim-seconds a transient/fail fault consumes
            before the error surfaces.
    """

    __slots__ = _fields = (
        "ems", "element", "command", "mode", "probability", "count",
        "after_s", "until_s", "error_after_s",
    )

    def __init__(
        self,
        ems: str = "*",
        element: str = "*",
        command: str = "*",
        mode: str = "transient",
        probability: float = 1.0,
        count: Optional[int] = None,
        after_s: float = 0.0,
        until_s: Optional[float] = None,
        error_after_s: float = 0.5,
    ) -> None:
        # Each check is written so that NaN fails it: a plan file's JSON
        # may carry NaN, and every ordered comparison with NaN is false.
        if mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {mode!r} (known: {', '.join(FAULT_MODES)})"
            )
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {probability}"
            )
        if count is not None and not (isinstance(count, int) and count >= 1):
            raise ConfigurationError(
                f"count must be an integer >= 1, got {count}"
            )
        if not after_s >= 0:
            raise ConfigurationError(f"after_s must be >= 0, got {after_s}")
        if until_s is not None and not until_s > after_s:
            raise ConfigurationError(
                f"until_s ({until_s}) must be after after_s ({after_s})"
            )
        if not error_after_s >= 0:
            raise ConfigurationError(
                f"error_after_s must be >= 0, got {error_after_s}"
            )
        super().__init__(
            ems, element, command, mode, probability, count, after_s, until_s,
            error_after_s,
        )

    def matches(self, ems: str, element: str, command: str, now: float) -> bool:
        """True when this rule applies to the command at sim time ``now``."""
        if now < self.after_s:
            return False
        if self.until_s is not None and now >= self.until_s:
            return False
        return (
            fnmatchcase(ems, self.ems)
            and fnmatchcase(element, self.element)
            and fnmatchcase(command, self.command)
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        """Build a spec from its plain-dict form; unknown keys raise."""
        _reject_unknown_keys("FaultSpec", data, (
            "ems", "element", "command", "mode", "probability",
            "count", "after_s", "until_s", "error_after_s",
        ))
        return cls(**data)


class FaultPlan:
    """An ordered set of fault rules plus their deterministic dice.

    The first matching rule with injections remaining decides a
    command's fate; rules never compose.  An empty plan is the default
    everywhere and guarantees a zero-overhead happy path: the executor
    checks :meth:`closed` and falls through without drawing randomness,
    counting metrics, or opening spans.

    A plan's rules are fixed when it is built: there is no way to add
    one mid-run, so a plan only ever goes from non-empty to empty (as
    counted rules run out), and from open to :meth:`closed` (as sim time
    passes the last live rule's ``until_s``).  A fault that starts at
    sim time ``t`` is a rule with ``after_s=t``.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self._specs: List[FaultSpec] = list(specs)
        self._remaining: List[Optional[int]] = [s.count for s in self._specs]
        self._injected: List[int] = [0 for _ in self._specs]
        # Rules that can still fire (a spec's count is None or >= 1).
        self._live = len(self._specs)
        self._closes_at = self._last_until()
        self._streams: Optional[RandomStreams] = None

    @property
    def specs(self) -> List[FaultSpec]:
        """The plan's rules, in match order."""
        return list(self._specs)

    @property
    def empty(self) -> bool:
        """True when no rule can ever fire again."""
        return self._live == 0

    def closed(self, now: float) -> bool:
        """True when no rule can fire at sim time ``now`` or later: every
        live rule's window has closed (sim time never moves back)."""
        return now >= self._closes_at

    def _last_until(self) -> float:
        """When the last live rule's window closes: inf if one never
        does, -inf when no rule is live."""
        last = float("-inf")
        for spec, remaining in zip(self._specs, self._remaining):
            if remaining is None or remaining > 0:
                if spec.until_s is None:
                    return float("inf")
                last = max(last, spec.until_s)
        return last

    @property
    def injected_counts(self) -> List[int]:
        """Per-rule count of faults actually injected so far."""
        return list(self._injected)

    def bind(self, streams: RandomStreams) -> "FaultPlan":
        """Attach the seeded dice; the controller calls this at build."""
        self._streams = streams.spawn("faults")
        return self

    def decide(
        self, ems: str, element: str, command: str, now: float
    ) -> Optional[FaultSpec]:
        """The fault (if any) to inject into this command attempt.

        Consumes one injection from the first matching rule that passes
        its probability gate.  Probability draws come from a per-rule
        named substream, so one rule's draws never perturb another
        rule's dice sequence.
        """
        for index, spec in enumerate(self._specs):
            remaining = self._remaining[index]
            if remaining is not None and remaining <= 0:
                continue
            if not spec.matches(ems, element, command, now):
                continue
            if spec.probability < 1.0:
                if self._streams is None:
                    raise ConfigurationError(
                        "FaultPlan with probabilistic rules must be bound to "
                        "RandomStreams (plan.bind(streams)) before use"
                    )
                roll = self._streams.uniform(f"fault:{index}", 0.0, 1.0)
                if roll >= spec.probability:
                    continue
            if remaining is not None:
                self._remaining[index] = remaining - 1
                if remaining == 1:
                    self._live -= 1
                    self._closes_at = self._last_until()
            self._injected[index] += 1
            return spec
        return None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from its plain-dict form; unknown keys raise."""
        _reject_unknown_keys("FaultPlan", data, ("specs",))
        specs = [FaultSpec.from_dict(item) for item in data.get("specs", [])]
        return cls(specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self._specs)} spec(s))"


#: Gray-failure modes: signal degradation rather than outright failure.
DEGRADATION_MODES = ("osnr-drift", "amp-flap", "attenuation-creep")


class DegradationSpec(FrozenRecord):
    """One gray-failure rule against a fiber link.

    Unlike a :class:`FaultSpec`, which trips EMS commands, a degradation
    erodes the optical signal itself: the link stays up and keeps
    carrying traffic while its OSNR margin shrinks.

    Attributes:
        link: ``"A=B"`` link name (node order is normalized).
        mode: ``osnr-drift`` (linear ramp to ``magnitude_db``, then
            hold), ``amp-flap`` (square-wave amplifier gain error of
            ``magnitude_db`` with period ``period_s``), or
            ``attenuation-creep`` (monotonic ``rate_db_per_hour`` climb
            capped at ``magnitude_db``).
        start_s: Sim time the degradation begins.
        duration_s: How long it lasts; state is restored at the end.
        magnitude_db: Peak OSNR penalty in dB.
        period_s: Flap period for ``amp-flap`` (ignored otherwise).
        rate_db_per_hour: Climb rate for ``attenuation-creep``.
        jitter_db: Peak-to-peak deterministic noise added per tick, drawn
            from the plan's seeded substream.
    """

    __slots__ = _fields = (
        "link", "mode", "start_s", "duration_s", "magnitude_db", "period_s",
        "rate_db_per_hour", "jitter_db",
    )

    def __init__(
        self,
        link: str,
        mode: str = "osnr-drift",
        start_s: float = 0.0,
        duration_s: float = 3600.0,
        magnitude_db: float = 6.0,
        period_s: float = 120.0,
        rate_db_per_hour: float = 2.0,
        jitter_db: float = 0.0,
    ) -> None:
        # Written so that NaN fails each check, as in FaultSpec.
        if mode not in DEGRADATION_MODES:
            raise ConfigurationError(
                f"unknown degradation mode {mode!r} "
                f"(known: {', '.join(DEGRADATION_MODES)})"
            )
        if "=" not in link:
            raise ConfigurationError(f"link must be 'A=B', got {link!r}")
        if not start_s >= 0:
            raise ConfigurationError(f"start_s must be >= 0, got {start_s}")
        for name, value in (
            ("duration_s", duration_s), ("magnitude_db", magnitude_db),
            ("period_s", period_s), ("rate_db_per_hour", rate_db_per_hour),
        ):
            if not value > 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if not jitter_db >= 0:
            raise ConfigurationError(f"jitter_db must be >= 0, got {jitter_db}")
        super().__init__(
            link, mode, start_s, duration_s, magnitude_db, period_s, rate_db_per_hour,
            jitter_db,
        )

    @property
    def endpoints(self) -> "tuple[str, str]":
        """The link's node pair in canonical (sorted) order."""
        a, b = self.link.split("=", 1)
        return (a, b) if a <= b else (b, a)

    @property
    def end_s(self) -> float:
        """Sim time the degradation clears."""
        return self.start_s + self.duration_s

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DegradationSpec":
        """Build a spec from its plain-dict form; unknown keys raise."""
        _reject_unknown_keys("DegradationSpec", data, (
            "link", "mode", "start_s", "duration_s", "magnitude_db",
            "period_s", "rate_db_per_hour", "jitter_db",
        ))
        return cls(**data)


class DegradationPlan:
    """An ordered set of gray-failure rules plus their seeded dice.

    Bound to a ``streams.spawn("degradations")`` substream so per-tick
    jitter is byte-identical across runs with the same master seed.  An
    empty plan schedules nothing: attaching it to a network leaves the
    event stream untouched.
    """

    def __init__(self, specs: Sequence[DegradationSpec] = ()) -> None:
        self._specs: List[DegradationSpec] = list(specs)
        self._streams: Optional[RandomStreams] = None

    @property
    def specs(self) -> List[DegradationSpec]:
        """The plan's rules, in declaration order."""
        return list(self._specs)

    @property
    def empty(self) -> bool:
        """True when the plan has no rules at all."""
        return not self._specs

    @property
    def horizon_s(self) -> float:
        """Sim time by which every degradation has cleared (0 if empty)."""
        return max((spec.end_s for spec in self._specs), default=0.0)

    def add(self, spec: DegradationSpec) -> "DegradationPlan":
        """Append a rule (chaos scripting); returns self."""
        self._specs.append(spec)
        return self

    def bind(self, streams: RandomStreams) -> "DegradationPlan":
        """Attach the seeded dice; the injector calls this at start."""
        self._streams = streams.spawn("degradations")
        return self

    def jitter(self, index: int, tick: int) -> float:
        """Deterministic jitter for spec ``index`` at tick ``tick``.

        Each (spec, tick) pair draws exactly once from the spec's named
        substream, so replaying the plan reproduces the same noise and
        adding a rule never perturbs another rule's sequence.
        """
        spec = self._specs[index]
        if spec.jitter_db == 0.0:
            return 0.0
        if self._streams is None:
            raise ConfigurationError(
                "DegradationPlan with jitter must be bound to RandomStreams "
                "(plan.bind(streams)) before use"
            )
        half = spec.jitter_db / 2.0
        return self._streams.uniform(f"degradation:{index}", -half, half)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DegradationPlan":
        """Build a plan from its plain-dict form; unknown keys raise."""
        _reject_unknown_keys("DegradationPlan", data, ("degradations",))
        specs = [
            DegradationSpec.from_dict(item)
            for item in data.get("degradations", [])
        ]
        return cls(specs)

    def __len__(self) -> int:
        return len(self._specs)
