"""Timing-noise distributions used throughout the simulation.

The paper's measurements are noisy in characteristic ways:

* per-byte hash/snapshot costs vary a few percent around a mean (Table I);
* the world-switch cost sits in a bounded range (Section IV-B1);
* cross-core buffer reads are usually fast but occasionally suffer large
  delays up to ~1.3e-3 s (Section IV-B2) — a heavy right tail that makes the
  *maximum* observed probing threshold grow with the probing period.

Each distribution exposes ``sample`` and, where possible, ``cdf`` so the
order-statistics fast path (:mod:`repro.analysis.orderstats`) can sample the
maximum of *n* draws without materialising them.

Hot draw sites bind ``dist.sampler(rng)`` once and call the zero-argument
result per draw.  The distributions drawn hundreds of thousands of times
per trial build it as a closure over their parameters and ``rng.random``
(``_bind``), so a draw is one Python frame with no attribute lookups;
``sample`` draws through the same closure, so there is one copy of each
sampling rule and the two paths are draw-for-draw identical.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Callable, Optional

from repro.errors import ConfigurationError

#: CPython's ``random.NV_MAGICCONST``, duplicated so the inlined
#: normalvariate rejection loop below is draw-for-draw identical to
#: ``Random.lognormvariate`` while skipping two call frames per sample.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)
_log = math.log
_exp = math.exp


class Distribution:
    """Protocol-ish base class; subclasses implement :meth:`sample`.

    A subclass may also define ``_bind(rng)``, returning the zero-argument
    closure its ``sample`` draws through; :meth:`sampler` then hands that
    closure out directly, unless ``sample`` has since been overridden or
    wrapped (say, by a profiler), which is then honoured instead.
    """

    #: The ``sample`` that the class's ``_bind`` closure reproduces.
    _bound_sample: Optional[Callable[..., float]] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_bind" in vars(cls):
            cls._bound_sample = cls.sample

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A zero-argument callable; each call returns ``self.sample(rng)``."""
        cls = type(self)
        if cls.sample is cls._bound_sample:
            return self._bind(rng)
        return partial(self.sample, rng)

    def cdf(self, x: float) -> float:
        """P(X <= x).  Optional; required by the order-statistics fast path."""
        raise NotImplementedError(f"{type(self).__name__} has no analytic CDF")

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def support(self) -> "tuple[float, float]":
        """A finite (lo, hi) bracket containing all probability mass."""
        raise NotImplementedError


class Constant(Distribution):
    """Degenerate distribution at ``value``."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample(self, rng: random.Random) -> float:
        return self.value

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    @property
    def mean(self) -> float:
        return self.value

    def support(self) -> "tuple[float, float]":
        return (self.value, self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Constant({self.value!r})"


class Uniform(Distribution):
    """Uniform on ``[lo, hi]``."""

    def __init__(self, lo: float, hi: float) -> None:
        if hi < lo:
            raise ConfigurationError(f"Uniform: hi < lo ({hi} < {lo})")
        self.lo = float(lo)
        self.hi = float(hi)

    def sample(self, rng: random.Random) -> float:
        return self._bind(rng)()

    def _bind(self, rng: random.Random) -> Callable[[], float]:
        # Same arithmetic as rng.uniform(lo, hi), one call frame fewer.
        lo, width, uniform = self.lo, self.hi - self.lo, rng.random

        def draw() -> float:
            return lo + width * uniform()

        return draw

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        if self.hi == self.lo:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def support(self) -> "tuple[float, float]":
        return (self.lo, self.hi)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Uniform({self.lo!r}, {self.hi!r})"


class LogNormalJitter(Distribution):
    """A lognormal centred so its mean equals ``mean``.

    ``sigma`` is the shape parameter of the underlying normal.  Models the
    mild multiplicative noise of per-byte costs and scheduler latencies.
    Samples may be clipped to ``[lo_clip, hi_clip]`` when given, mirroring a
    measurement that cannot physically leave a band.
    """

    def __init__(
        self,
        mean: float,
        sigma: float,
        lo_clip: Optional[float] = None,
        hi_clip: Optional[float] = None,
    ) -> None:
        if mean <= 0:
            raise ConfigurationError(f"LogNormalJitter: mean must be > 0, got {mean}")
        if sigma < 0:
            raise ConfigurationError(f"LogNormalJitter: sigma must be >= 0, got {sigma}")
        self._mean = float(mean)
        self.sigma = float(sigma)
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  mu below.
        self.mu = math.log(mean) - 0.5 * sigma * sigma
        self.lo_clip = lo_clip
        self.hi_clip = hi_clip

    def sample(self, rng: random.Random) -> float:
        return self._bind(rng)()

    def _bind(self, rng: random.Random) -> Callable[[], float]:
        mean, sigma, mu = self._mean, self.sigma, self.mu
        lo_clip, hi_clip, uniform = self.lo_clip, self.hi_clip, rng.random

        def draw() -> float:
            if sigma == 0.0:
                value = mean
            else:
                # Inlined rng.lognormvariate(mu, sigma): the per-byte cost
                # path draws this hundreds of thousands of times per trial,
                # and the extra call frames dominate the actual math.  The
                # rejection loop below consumes the same uniforms and
                # performs the same arithmetic, so values are bit-identical.
                while True:
                    u1 = uniform()
                    u2 = 1.0 - uniform()
                    z = _NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -_log(u2):
                        break
                value = _exp(mu + z * sigma)
            if lo_clip is not None and value < lo_clip:
                value = lo_clip
            if hi_clip is not None and value > hi_clip:
                value = hi_clip
            return value

        return draw

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if self.hi_clip is not None and x >= self.hi_clip:
            return 1.0
        if self.lo_clip is not None and x < self.lo_clip:
            return 0.0
        if self.sigma == 0.0:
            return 1.0 if x >= self._mean else 0.0
        z = (math.log(x) - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    @property
    def mean(self) -> float:
        return self._mean

    def support(self) -> "tuple[float, float]":
        lo = self.lo_clip if self.lo_clip is not None else 0.0
        if self.hi_clip is not None:
            hi = self.hi_clip
        else:
            # 8 sigma covers everything we will ever sample.
            hi = math.exp(self.mu + 8.0 * max(self.sigma, 1e-9))
        return (lo, hi)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LogNormalJitter(mean={self._mean!r}, sigma={self.sigma!r})"


class BoundedPareto(Distribution):
    """Pareto on ``[xm, cap]`` with shape ``alpha`` (truncated & renormalised).

    Models the rare large cross-core reading delays the paper observed (up
    to ~1.3e-3 s): most mass near ``xm``, polynomially decaying tail.
    """

    def __init__(self, xm: float, alpha: float, cap: float) -> None:
        if xm <= 0 or cap <= xm:
            raise ConfigurationError(f"BoundedPareto: need 0 < xm < cap, got {xm}, {cap}")
        if alpha <= 0:
            raise ConfigurationError(f"BoundedPareto: alpha must be > 0, got {alpha}")
        self.xm = float(xm)
        self.alpha = float(alpha)
        self.cap = float(cap)
        self._tail_at_cap = (self.xm / self.cap) ** self.alpha

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        return self.inv_cdf(u)

    def cdf(self, x: float) -> float:
        if x <= self.xm:
            return 0.0
        if x >= self.cap:
            return 1.0
        raw = 1.0 - (self.xm / x) ** self.alpha
        return raw / (1.0 - self._tail_at_cap)

    def inv_cdf(self, u: float) -> float:
        u = min(max(u, 0.0), 1.0)
        raw = u * (1.0 - self._tail_at_cap)
        return self.xm / ((1.0 - raw) ** (1.0 / self.alpha))

    @property
    def mean(self) -> float:
        a, xm, cap = self.alpha, self.xm, self.cap
        norm = 1.0 - self._tail_at_cap
        if a == 1.0:
            raw = xm * math.log(cap / xm)
        else:
            raw = (a * xm / (a - 1.0)) * (1.0 - (xm / cap) ** (a - 1.0))
        return raw / norm

    def support(self) -> "tuple[float, float]":
        return (self.xm, self.cap)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BoundedPareto(xm={self.xm!r}, alpha={self.alpha!r}, cap={self.cap!r})"


class SpikeMixture(Distribution):
    """``base`` most of the time; with probability ``spike_prob``, ``spike``.

    The canonical model for a cross-core buffer read: usually a small
    near-uniform latency, occasionally a cache/coherence stall drawn from a
    bounded Pareto tail.
    """

    def __init__(self, base: Distribution, spike: Distribution, spike_prob: float) -> None:
        if not 0.0 <= spike_prob <= 1.0:
            raise ConfigurationError(f"spike_prob must be in [0,1], got {spike_prob}")
        self.base = base
        self.spike = spike
        self.spike_prob = float(spike_prob)

    def sample(self, rng: random.Random) -> float:
        return self._bind(rng)()

    def _bind(self, rng: random.Random) -> Callable[[], float]:
        spike_prob, uniform = self.spike_prob, rng.random
        base, spike = self.base.sampler(rng), self.spike.sampler(rng)

        def draw() -> float:
            if uniform() < spike_prob:
                return spike()
            return base()

        return draw

    def cdf(self, x: float) -> float:
        p = self.spike_prob
        return (1.0 - p) * self.base.cdf(x) + p * self.spike.cdf(x)

    @property
    def mean(self) -> float:
        p = self.spike_prob
        return (1.0 - p) * self.base.mean + p * self.spike.mean

    def support(self) -> "tuple[float, float]":
        blo, bhi = self.base.support()
        slo, shi = self.spike.support()
        return (min(blo, slo), max(bhi, shi))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SpikeMixture(base={self.base!r}, spike={self.spike!r}, "
            f"spike_prob={self.spike_prob!r})"
        )


class Shifted(Distribution):
    """``inner`` shifted right by a constant ``offset``."""

    def __init__(self, inner: Distribution, offset: float) -> None:
        self.inner = inner
        self.offset = float(offset)

    def sample(self, rng: random.Random) -> float:
        return self.inner.sample(rng) + self.offset

    def cdf(self, x: float) -> float:
        return self.inner.cdf(x - self.offset)

    @property
    def mean(self) -> float:
        return self.inner.mean + self.offset

    def support(self) -> "tuple[float, float]":
        lo, hi = self.inner.support()
        return (lo + self.offset, hi + self.offset)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Shifted({self.inner!r}, offset={self.offset!r})"


def inverse_cdf(dist: Distribution, u: float, tol: float = 1e-15) -> float:
    """Numerically invert ``dist.cdf`` by bisection on its support.

    Works for any distribution with a monotone CDF and finite support
    bracket; used by the order-statistics fast path for mixtures that have
    no closed-form quantile function.
    """
    u = min(max(u, 0.0), 1.0)
    lo, hi = dist.support()
    if hi <= lo:
        return lo
    # Expand the bracket defensively in case support() is approximate.
    while dist.cdf(hi) < u and hi - lo < 1e12:
        hi = lo + (hi - lo) * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
        if dist.cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
