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

A stream with a single consumer can go further:
:meth:`repro.sim.rng.RngRegistry.sampler` serves it from numpy blocks when
its distribution has a ``block_fill`` (``LogNormalJitter``, and
``SpikeMixture`` over a lognormal base with a ``BoundedPareto`` spike).  A
fill reads the stream's own uniforms (the same MT19937 words
``random.random`` would return) and yields the very values the scalar
closure would draw from them, in order:

* the rejection-pair test ``z*z/4 <= -log(u2)`` of the normalvariate loop is
  evaluated for every index at once; ``np.log`` may differ from
  ``math.log`` in the last bit (0.36% of inputs on x86-64), so every pair
  within 64 ulps of the boundary is decided again with ``math.log``;
* draw starts are found with a per-parity next-accepted table and one walk
  over it (a mixture's selector uniform flips the pair alignment at every
  draw); a draw that straddles a block is carried into the next;
* final values come from ``math.exp``, never ``np.exp``, which differs from
  it on 4.7% of inputs;
* the rare spikes keep the scalar ``inv_cdf`` on their one uniform.

A fill exists only while ``sample`` is the class's own: a wrapped or
overridden ``sample`` (a tracer, a profiler, a subclass) gets the scalar
closure, so what it observes stays what runs.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Callable, Iterator, List, Optional

from repro.errors import ConfigurationError

#: CPython's ``random.NV_MAGICCONST``, duplicated so the inlined
#: normalvariate rejection loop below is draw-for-draw identical to
#: ``Random.lognormvariate`` while skipping two call frames per sample.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)
_log = math.log
_exp = math.exp

#: Uniforms in a stream's first block; each later block doubles, up to
#: :data:`_BLOCK_CAP` (32 KiB of float64).  Larger blocks save no time
#: (their temporaries leave the L2 cache) and raise peak memory.  Both are
#: even, so a plain lognormal block always ends on a pair boundary.
_BLOCK_FIRST = 512
_BLOCK_CAP = 4096
#: Pairs whose ``np.log`` boundary test lands within this relative distance
#: of ``-log(u2)`` are decided again with ``math.log`` (numpy's log is
#: within a few ulps; 64 ulps leaves a wide margin and rechecks ~1e-14 of
#: all pairs).
_LOG_SLACK = 64 * 2.0 ** -52

#: A block fill: given ``uniforms(n)`` (the stream's next ``n`` uniforms as
#: a float64 array) and the first and largest block sizes, yield the
#: distribution's draws block by block.
BlockFill = Callable[..., Iterator[List[float]]]


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

    def block_fill(self) -> Optional[BlockFill]:
        """The exact block fill of this distribution's stream, if it has one.

        ``None`` (the default) means draws go through :meth:`sampler`.
        """
        return None

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

    def block_fill(self) -> Optional[BlockFill]:
        # sigma 0 draws no uniforms at all: nothing to fill.
        if self.sigma == 0.0 or not _own_sample(self, LogNormalJitter):
            return None
        return partial(_lognormal_blocks, self.mu, self.sigma, self.lo_clip, self.hi_clip)

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

    def block_fill(self) -> Optional[BlockFill]:
        base, spike = self.base, self.spike
        if not (
            _own_sample(self, SpikeMixture)
            and _own_sample(spike, BoundedPareto)
            and _own_sample(base, LogNormalJitter)
            and base.sigma != 0.0
        ):
            return None
        return partial(
            _mixture_blocks, self.spike_prob, spike.inv_cdf,
            base.mu, base.sigma, base.lo_clip, base.hi_clip,
        )

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


#: The ``sample`` each block-filled class defines; a block fill applies only
#: while it is still in place (not wrapped by a tracer or profiler).
_DEFINED_SAMPLE = {cls: cls.sample for cls in (LogNormalJitter, BoundedPareto, SpikeMixture)}


def _own_sample(dist: Distribution, cls: type) -> bool:
    """``dist`` is a plain ``cls`` drawing through the class's own ``sample``."""
    return type(dist) is cls and cls.sample is _DEFINED_SAMPLE[cls]


def parameters(dist: Distribution) -> tuple:
    """``dist``'s type and parameters, recursively.

    Two distributions with equal parameters draw the same values from the
    same uniforms, however many objects carry them.
    """
    return (type(dist), tuple(sorted(
        (name, parameters(value) if isinstance(value, Distribution) else value)
        for name, value in vars(dist).items()
    )))


def _pair_test(u1, u2):
    """``z`` and the normalvariate acceptance of every pair, as arrays.

    ``u1[i]`` and ``u2[i]`` are one trip of the rejection loop (``u2`` is
    already ``1 - uniform()``); both results equal the scalar loop's.
    """
    import numpy as np

    # In place where the scalar arithmetic allows: a block's temporaries
    # set the fill's share of peak memory.
    z = u1 - 0.5
    z *= _NV_MAGICCONST
    z /= u2
    lhs = z * z
    lhs /= 4.0
    rhs = np.log(u2)
    np.negative(rhs, out=rhs)
    accepted = lhs <= rhs
    gap = lhs - rhs
    np.abs(gap, out=gap)
    rhs *= _LOG_SLACK
    rhs += 1e-300
    for i in np.flatnonzero(gap <= rhs).tolist():
        accepted[i] = lhs[i] <= -_log(u2[i])
    return z, accepted


def _clip(values: List[float], lo_clip, hi_clip) -> List[float]:
    if lo_clip is not None:
        values = [lo_clip if value < lo_clip else value for value in values]
    if hi_clip is not None:
        values = [hi_clip if value > hi_clip else value for value in values]
    return values


def _lognormal_blocks(
    mu, sigma, lo_clip, hi_clip, uniforms, first=_BLOCK_FIRST, cap=_BLOCK_CAP
) -> Iterator[List[float]]:
    """``LogNormalJitter`` draws: every pair of the stream is one loop trip.

    The stream is nothing but rejection-loop pairs, so the draws are the
    accepted pairs in order; even block sizes keep the pairs aligned.
    """
    size = first
    while True:
        yield _lognormal_block(uniforms(size), mu, sigma, lo_clip, hi_clip)
        size = min(2 * size, cap)


def _lognormal_block(u, mu, sigma, lo_clip, hi_clip) -> List[float]:
    z, accepted = _pair_test(u[0::2], 1.0 - u[1::2])
    return _clip(list(map(_exp, (mu + z[accepted] * sigma).tolist())), lo_clip, hi_clip)


def _mixture_blocks(
    spike_prob, spike_value, mu, sigma, lo_clip, hi_clip, uniforms,
    first=_BLOCK_FIRST, cap=_BLOCK_CAP,
) -> Iterator[List[float]]:
    """``SpikeMixture`` draws over a lognormal base and a one-uniform spike.

    The uniforms of a draw left unfinished at a block's end are carried
    into the next block.  Each block is filled by a call, so a suspended
    stream holds only its carry and the draws it has not served yet.
    """
    import numpy as np

    carry = np.empty(0)
    size = first
    while True:
        u = np.concatenate((carry, uniforms(size)))
        values, used = _mixture_block(u, spike_prob, spike_value, mu, sigma, lo_clip, hi_clip)
        carry = u[used:].copy()
        del u
        yield values
        size = min(2 * size, cap)


def _mixture_block(u, spike_prob, spike_value, mu, sigma, lo_clip, hi_clip):
    """The draws that finish within ``u``, and how many uniforms they used.

    A draw starting at ``s`` reads its selector ``u[s]``; a spike then reads
    ``u[s+1]``, a base draw the pairs at ``s+1, s+3, ...`` up to the first
    accepted one.  The pair alignment thus flips with every base draw, so
    the draw starts are found by a walk over a table of next starts.
    """
    import numpy as np

    n = u.size
    z, accepted = _pair_test(u[:-1], 1.0 - u[1:])
    # nxt[j]: the first accepted pair among j, j+2, j+4, ... (n + 1: none)
    nxt = np.where(accepted, np.arange(n - 1), n + 1)
    for parity in (0, 1):
        lane = nxt[parity::2]
        lane[::-1] = np.minimum.accumulate(lane[::-1])
    # succ[s]: where the next draw starts when one starts at s; n + 1 when
    # that draw does not finish in this block.
    succ = np.full(n + 1, n + 1, np.int64)
    np.minimum(nxt[1:] + 2, n + 1, out=succ[: n - 2])
    spikes = np.flatnonzero(u[: n - 1] < spike_prob)
    succ[spikes] = spikes + 2
    # The walk runs in C: ``map`` reads the list it extends, so each start
    # looks up the next, until a start past the table raises IndexError.
    # Starts only grow (succ[s] > s), so the walk ends.
    chain = [0]
    try:
        chain.extend(map(memoryview(succ).__getitem__, chain))
    except IndexError:
        pass
    # chain: 0, the start of every later draw, n + 1.  A base draw ending
    # at e took the pair at e-2; a spike's e-2 is its own start, whose
    # value is replaced below.
    starts = np.fromiter(chain, np.int64, len(chain))[:-1]
    at = starts[1:]
    if not at.size:
        return [], 0
    values = mu + z[at - 2] * sigma
    hits = np.flatnonzero(u[starts[:-1]] < spike_prob).tolist()
    values[hits] = 0.0  # a spike's pair may hold any z: keep exp finite
    out = _clip(list(map(_exp, values.tolist())), lo_clip, hi_clip)
    for k in hits:
        out[k] = spike_value(float(u[chain[k] + 1]))
    return out, chain[-2]


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
