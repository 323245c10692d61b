"""Statistical model of the measured probing threshold (Table II / Fig. 4).

The paper measures, per probing period, "the largest difference calculated
by the Time Comparer" over that period — an extreme-value statistic of the
per-observation probing noise.  Rare cross-core coherence stalls give the
noise a polynomially decaying right tail, so the window maximum grows with
the probing period like ``(r * T)^(1/alpha)``; fitting the ratio between
the paper's 8 s and 300 s averages gives ``alpha ≈ 3.9``, and the absolute
level fixes ``xm`` and the effective independent-draw rate ``r`` (see
``ProberConfig.threshold_tail`` / ``effective_reads_per_second``).

Sampling the maximum of ``n = r*T`` draws directly through the quantile
function (``F^-1(u^(1/n))``) replaces millions of simulated buffer reads
per window with one draw — the order-statistics fast path promised in
DESIGN.md.  The dense simulation cross-checks it at short windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.orderstats import sample_max_of_n
from repro.config import ProberConfig
from repro.errors import AttackError
from repro.sim.distributions import Distribution


@dataclass(frozen=True)
class ThresholdStats:
    """avg/max/min of the window-max threshold over measurement rounds."""

    period: float
    average: float
    maximum: float
    minimum: float
    samples: tuple

    @classmethod
    def from_samples(cls, period: float, samples: Sequence[float]) -> "ThresholdStats":
        if not samples:
            raise AttackError("no threshold samples")
        return cls(
            period=period,
            average=sum(samples) / len(samples),
            maximum=max(samples),
            minimum=min(samples),
            samples=tuple(samples),
        )


class ThresholdWindowModel:
    """Samples the per-window maximum probing threshold."""

    def __init__(
        self,
        config: Optional[ProberConfig] = None,
        single_core: bool = False,
    ) -> None:
        self.config = config if config is not None else ProberConfig()
        self.single_core = single_core

    # ------------------------------------------------------------------
    def _scale(self) -> float:
        return self.config.single_core_factor if self.single_core else 1.0

    def draws_in(self, period: float) -> int:
        """Effective independent extreme-value draws in a window."""
        return max(int(period * self.config.effective_reads_per_second), 1)

    def sample_window_max(self, period: float, rng: random.Random) -> float:
        """One 'probing threshold' measurement for a window of ``period``."""
        value = sample_max_of_n(self.config.threshold_tail, self.draws_in(period), rng)
        return value * self._scale()

    def measure(
        self, period: float, rounds: int, rng: random.Random
    ) -> ThresholdStats:
        """Repeat the paper's measurement: ``rounds`` windows of ``period``."""
        samples = [self.sample_window_max(period, rng) for _ in range(rounds)]
        return ThresholdStats.from_samples(period, samples)

    # ------------------------------------------------------------------
    def per_read_distribution(self) -> Distribution:
        """The underlying per-observation tail (for validation tests)."""
        return self.config.threshold_tail
