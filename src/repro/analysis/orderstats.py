"""Order-statistics fast path: sampling the maximum of n i.i.d. draws.

If ``U ~ Uniform(0,1)`` then ``F^-1(U^(1/n))`` is distributed as the
maximum of ``n`` i.i.d. draws from a distribution with CDF ``F`` — one
quantile evaluation replaces ``n`` simulated samples.  The probing
threshold experiments (Table II, Figure 4) use this to avoid simulating
tens of millions of buffer reads; a dense short-window simulation
cross-checks the equivalence in the tests.
"""

from __future__ import annotations

import random
from typing import List

from repro.errors import ReproError
from repro.sim.distributions import BoundedPareto, Distribution, inverse_cdf


def _quantile(dist: Distribution, u: float) -> float:
    """``F^-1(u)``: closed form for a bounded Pareto, numeric otherwise."""
    if isinstance(dist, BoundedPareto):
        return dist.inv_cdf(u)
    return inverse_cdf(dist, u)


def sample_max_of_n(dist: Distribution, n: int, rng: random.Random) -> float:
    """One draw of ``max(X_1, ..., X_n)`` for i.i.d. ``X_i ~ dist``."""
    if n <= 0:
        raise ReproError("n must be positive")
    return _quantile(dist, rng.random() ** (1.0 / n))


def sample_maxima(
    dist: Distribution, n: int, rounds: int, rng: random.Random
) -> List[float]:
    """``rounds`` independent window maxima of ``n`` draws each."""
    return [sample_max_of_n(dist, n, rng) for _ in range(rounds)]


def expected_max_quantile(dist: Distribution, n: int, q: float = 0.5) -> float:
    """The q-quantile of the max of n draws (analytic cross-check).

    ``P(max <= x) = F(x)^n``; the q-quantile solves ``F(x) = q^(1/n)``.
    """
    if not 0.0 < q < 1.0:
        raise ReproError("q must be in (0, 1)")
    return _quantile(dist, q ** (1.0 / n))
