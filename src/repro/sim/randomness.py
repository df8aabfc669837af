"""Seeded, named random substreams for reproducible experiments.

Every stochastic component in the reproduction (EMS step latencies,
workload arrivals, failure injection) draws from its own named substream,
so adding randomness to one component never perturbs another — a property
the calibration experiments rely on.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Dict, Sequence, TypeVar

T = TypeVar("T")


class RandomStreams:
    """A family of independent :class:`random.Random` streams.

    Each stream is identified by a string name and seeded from the master
    seed combined with a stable hash of the name, so the mapping from
    ``(master_seed, name)`` to a stream is deterministic across runs and
    Python processes (``hash()`` randomization does not affect it).
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        """The seed from which every substream is derived."""
        return self._master_seed

    def spawn(self, key: str) -> "RandomStreams":
        """Derive an independent child family of streams.

        The child's master seed is a stable hash of ``(master_seed,
        key)`` — deterministic across processes, like the substream
        derivation — so a sweep can hand every trial its own
        ``RandomStreams`` universe: trials with distinct keys never
        share a stream with each other or with the parent.

        Note the domain separation (``"spawn:"`` prefix): a spawned
        child's master seed can never collide with a sibling substream
        seed for the same key.
        """
        digest = hashlib.sha256(
            f"spawn:{self._master_seed}:{key}".encode("utf-8")
        ).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the substream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(
            f"{self._master_seed}:{name}".encode("utf-8")
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        created = random.Random(seed)
        self._streams[name] = created
        return created

    # -- distribution helpers ------------------------------------------------

    def lognormal(self, name: str, mean: float, cv: float) -> float:
        """Draw a lognormal sample with the given *arithmetic* mean.

        Args:
            name: Substream name.
            mean: Desired arithmetic mean of the distribution (must be > 0).
            cv: Coefficient of variation (stddev / mean, must be >= 0).

        A ``cv`` of 0 returns ``mean`` exactly, which lets latency models be
        made deterministic for calibration tests.
        """
        return self.lognormal_sampler(name, mean, cv)()

    def lognormal_sampler(
        self, name: str, mean: float, cv: float
    ) -> Callable[[], float]:
        """A zero-argument draw: each call is one :meth:`lognormal` sample.

        Validation and the ``(mu, sigma)`` arithmetic happen once, here;
        the returned callable only draws from the ``name`` substream, so
        a caller sampling one distribution many times pays for the
        draw alone.

        The draw is :meth:`random.Random.lognormvariate` written out —
        the same Kinderman–Monahan loop, the same ``random()`` calls and
        the same float operations in the same order, so every sample is
        bit-identical — without its two method calls per sample.
        """
        if mean <= 0:
            raise ValueError(f"lognormal mean must be positive, got {mean}")
        if cv < 0:
            raise ValueError(f"coefficient of variation must be >= 0, got {cv}")
        if cv == 0:
            return lambda: mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        sigma = math.sqrt(sigma2)
        uniform = self.stream(name).random
        magic, log, exp = random.NV_MAGICCONST, math.log, math.exp

        def draw() -> float:
            while True:
                u1 = uniform()
                u2 = 1.0 - uniform()
                z = magic * (u1 - 0.5) / u2
                zz = z * z / 4.0
                if zz <= -log(u2):
                    return exp(mu + z * sigma)

        return draw

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential sample with the given mean (> 0)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw uniformly from ``[low, high]``."""
        if high < low:
            raise ValueError(f"uniform bounds out of order: [{low}, {high}]")
        return self.stream(name).uniform(low, high)

    def pareto(self, name: str, shape: float, scale: float) -> float:
        """Draw from a Pareto distribution (heavy-tailed transfer sizes).

        Returns ``scale * X`` where ``X`` is standard Pareto with the given
        shape.  Shape and scale must be positive.
        """
        if shape <= 0 or scale <= 0:
            raise ValueError(
                f"pareto shape and scale must be positive, got {shape}, {scale}"
            )
        return scale * self.stream(name).paretovariate(shape)

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Pick one element of ``options`` uniformly at random."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return self.stream(name).choice(list(options))
