"""The step-duration catalog behind every EMS operation.

The default means are calibrated so that, on the Fig. 4 testbed, a
wavelength connection establishes in 60–70 s (growing a few seconds per
added ROADM hop, as in Table 2) and tears down in about 10 s.  The paper
stresses these times reflect *today's lack of speed requirements*, not
physical limits — so every mean is a parameter, and the T2 ablation
benchmark shows what parallelizing or shrinking the steps would buy.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.sim.randomness import RandomStreams

#: Mean duration, in seconds, of each management/optical step.
DEFAULT_STEP_MEANS: Dict[str, float] = {
    # GRIPhoN controller internals.
    "controller.order": 2.0,
    "controller.release": 1.0,
    # Fiber cross-connect controller.
    "fxc.connect": 1.5,
    "fxc.disconnect": 1.5,
    # Customer-premises NTE controller.
    "nte.configure": 2.0,
    "nte.release": 1.0,
    # Optical transponders: allocation plus laser tuning dominates.
    "ot.tune": 14.0,
    "ot.release": 1.0,
    # ROADM EMS configuration.
    "roadm.add_drop": 9.5,
    "roadm.add_drop.remove": 2.0,
    "roadm.express": 2.0,
    "roadm.express.remove": 0.5,
    # Optical line tasks per link: power balancing & equalization; the
    # amplifier-chain transient settle time is added on top.
    "line.equalize": 2.0,
    # End-to-end light-up verification before handing over to the customer.
    "verify.end_to_end": 8.0,
    # OTN switch EMS: electrical, so much faster than photonic steps.
    "otn.crossconnect": 1.2,
    "otn.crossconnect.remove": 0.6,
    # IP layer: EVC provisioning is router configuration, near-instant.
    "ip.evc": 1.0,
    "ip.evc.remove": 0.5,
}

#: Default coefficient of variation: small run-to-run jitter, matching a
#: repeated lab measurement (Table 2 averages ten iterations).
DEFAULT_CV = 0.03


class LatencyModel:
    """Samples per-step durations from lognormal distributions.

    Args:
        streams: The experiment's random substreams (one per step name).
        means: Step-name to mean-seconds overrides; unknown names are
            allowed so experiments can define extra steps.
        cv: Coefficient of variation applied to every step.  Zero makes
            the model fully deterministic.
        speedup: Divides every mean — the knob for "what if vendors
            optimized for speed" ablations (paper §4).
    """

    def __init__(
        self,
        streams: RandomStreams,
        means: Optional[Dict[str, float]] = None,
        cv: float = DEFAULT_CV,
        speedup: float = 1.0,
    ) -> None:
        if cv < 0:
            raise ConfigurationError(f"cv must be >= 0, got {cv}")
        if speedup <= 0:
            raise ConfigurationError(f"speedup must be positive, got {speedup}")
        self._streams = streams
        self._means = dict(DEFAULT_STEP_MEANS)
        if means:
            self._means.update(means)
        self._cv = cv
        self._speedup = speedup
        self._metrics: Optional[MetricsRegistry] = None
        # Per step: (zero-argument draw, histogram name), built on first use.
        self._samplers: Dict[str, Tuple[Callable[[], float], str]] = {}

    def bind_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        """Record every sampled step duration into ``metrics``.

        Each draw lands in histogram ``step.<name>``, giving the
        per-step duration distributions the Table 2 analysis needs
        without instrumenting every call site.  Pass ``None`` to stop
        recording.
        """
        self._metrics = metrics

    def mean(self, step: str) -> float:
        """The configured mean for ``step`` (after speedup).

        Raises:
            ConfigurationError: for an unknown step name.
        """
        try:
            return self._means[step] / self._speedup
        except KeyError:
            raise ConfigurationError(f"unknown latency step {step!r}") from None

    def sample(self, step: str, extra: float = 0.0) -> float:
        """Draw one duration for ``step``.

        Args:
            extra: Deterministic seconds added after sampling (used for
                amplifier-settle components that scale with span count).
        """
        if extra < 0:
            raise ConfigurationError(f"extra must be >= 0, got {extra}")
        sampler = self._samplers.get(step)
        if sampler is None:
            sampler = self._samplers[step] = (
                self._streams.lognormal_sampler(
                    f"latency:{step}", self.mean(step), self._cv
                ),
                f"step.{step}",
            )
        duration = sampler[0]() + extra
        if self._metrics is not None:
            self._metrics.observe(sampler[1], duration)
        return duration

    def known_steps(self) -> Dict[str, float]:
        """A copy of the step-mean table (after speedup)."""
        return {step: mean / self._speedup for step, mean in self._means.items()}
