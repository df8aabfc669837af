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

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.process import StepRun
from repro.sim.randomness import RandomStreams

#: The injectable failure modes, from most to least benign.
FAULT_MODES = ("transient", "timeout", "stuck", "fail")


@dataclass(frozen=True)
class FaultSpec:
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
        after_s: Rule active only at sim times >= this.
        until_s: Rule inactive at sim times >= this (None = forever).
        error_after_s: Sim-seconds a transient/fail fault consumes
            before the error surfaces.
    """

    ems: str = "*"
    element: str = "*"
    command: str = "*"
    mode: str = "transient"
    probability: float = 1.0
    count: Optional[int] = None
    after_s: float = 0.0
    until_s: Optional[float] = None
    error_after_s: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r} (known: {', '.join(FAULT_MODES)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.count is not None and self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.error_after_s < 0:
            raise ConfigurationError(
                f"error_after_s must be >= 0, got {self.error_after_s}"
            )
        if self.until_s is not None and self.until_s <= self.after_s:
            raise ConfigurationError(
                f"until_s ({self.until_s}) must be after after_s ({self.after_s})"
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

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON plans (``griphon chaos --plan``)."""
        return {
            "ems": self.ems,
            "element": self.element,
            "command": self.command,
            "mode": self.mode,
            "probability": self.probability,
            "count": self.count,
            "after_s": self.after_s,
            "until_s": self.until_s,
            "error_after_s": self.error_after_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        """Build a spec from its plain-dict form; unknown keys raise."""
        known = {
            "ems", "element", "command", "mode", "probability",
            "count", "after_s", "until_s", "error_after_s",
        }
        extra = set(data) - known
        if extra:
            raise ConfigurationError(
                f"unknown FaultSpec keys: {', '.join(sorted(extra))}"
            )
        return cls(**data)


class FaultPlan:
    """An ordered set of fault rules plus their deterministic dice.

    The first matching rule with injections remaining decides a
    command's fate; rules never compose.  An empty plan is the default
    everywhere and guarantees a zero-overhead happy path: the executor
    checks :attr:`empty` and falls through without drawing randomness,
    counting metrics, or opening spans.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self._specs: List[FaultSpec] = list(specs)
        self._remaining: List[Optional[int]] = [s.count for s in self._specs]
        self._injected: List[int] = [0 for _ in self._specs]
        # Rules that can still fire (a spec's count is None or >= 1).
        self._live = len(self._specs)
        self._streams: Optional[RandomStreams] = None
        # In-flight step runs, in start order (a dict as an ordered set).
        self._runs: Dict[StepRun, None] = {}

    @property
    def specs(self) -> List[FaultSpec]:
        """The plan's rules, in match order."""
        return list(self._specs)

    @property
    def empty(self) -> bool:
        """True when no rule can ever fire again."""
        return self._live == 0

    @property
    def injected_counts(self) -> List[int]:
        """Per-rule count of faults actually injected so far."""
        return list(self._injected)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Append a rule mid-run (chaos scripting); returns self.

        Splits each step run under :meth:`watch` at its next step
        boundary, so the rule can match from the step starting there.
        """
        self._specs.append(spec)
        self._remaining.append(spec.count)
        self._injected.append(0)
        self._live += 1
        runs, self._runs = self._runs, {}
        for run in runs:
            run.split()
        return self

    def watch(self, run: StepRun) -> None:
        """Split ``run`` if a rule is added before it resumes."""
        self._runs[run] = None

    def unwatch(self, run: StepRun) -> None:
        """``run`` has resumed (or its workflow was closed)."""
        self._runs.pop(run, None)

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
        named substream, so adding a rule never perturbs another rule's
        dice sequence.
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
            self._injected[index] += 1
            return spec
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON plans."""
        return {"specs": [spec.to_dict() for spec in self._specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from its plain-dict form."""
        specs = [FaultSpec.from_dict(item) for item in data.get("specs", [])]
        return cls(specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self._specs)} spec(s))"


#: Gray-failure modes: signal degradation rather than outright failure.
DEGRADATION_MODES = ("osnr-drift", "amp-flap", "attenuation-creep")


@dataclass(frozen=True)
class DegradationSpec:
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

    link: str
    mode: str = "osnr-drift"
    start_s: float = 0.0
    duration_s: float = 3600.0
    magnitude_db: float = 6.0
    period_s: float = 120.0
    rate_db_per_hour: float = 2.0
    jitter_db: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in DEGRADATION_MODES:
            raise ConfigurationError(
                f"unknown degradation mode {self.mode!r} "
                f"(known: {', '.join(DEGRADATION_MODES)})"
            )
        if "=" not in self.link:
            raise ConfigurationError(
                f"link must be 'A=B', got {self.link!r}"
            )
        if self.start_s < 0:
            raise ConfigurationError(
                f"start_s must be >= 0, got {self.start_s}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.magnitude_db <= 0:
            raise ConfigurationError(
                f"magnitude_db must be positive, got {self.magnitude_db}"
            )
        if self.period_s <= 0:
            raise ConfigurationError(
                f"period_s must be positive, got {self.period_s}"
            )
        if self.rate_db_per_hour <= 0:
            raise ConfigurationError(
                f"rate_db_per_hour must be positive, got {self.rate_db_per_hour}"
            )
        if self.jitter_db < 0:
            raise ConfigurationError(
                f"jitter_db must be >= 0, got {self.jitter_db}"
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

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON plans (``griphon slo --plan``)."""
        return {
            "link": self.link,
            "mode": self.mode,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "magnitude_db": self.magnitude_db,
            "period_s": self.period_s,
            "rate_db_per_hour": self.rate_db_per_hour,
            "jitter_db": self.jitter_db,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DegradationSpec":
        """Build a spec from its plain-dict form; unknown keys raise."""
        known = {
            "link", "mode", "start_s", "duration_s", "magnitude_db",
            "period_s", "rate_db_per_hour", "jitter_db",
        }
        extra = set(data) - known
        if extra:
            raise ConfigurationError(
                f"unknown DegradationSpec keys: {', '.join(sorted(extra))}"
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON plans."""
        return {"degradations": [spec.to_dict() for spec in self._specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DegradationPlan":
        """Build a plan from its plain-dict form."""
        specs = [
            DegradationSpec.from_dict(item)
            for item in data.get("degradations", [])
        ]
        return cls(specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return f"DegradationPlan({len(self._specs)} spec(s))"

