"""Vectorized batch-trial kernels and bit-exact RNG stream replay.

The campaign batch runner (:mod:`repro.campaign.batch_runner`) executes N
seeds of one configuration with shared, numpy-precomputed randomness.  The
contract that makes ``--batch`` safe is *bit-exactness*: every value a
batched trial consumes must be the very float (or digest) the scalar
engine would have produced, so manifests, detection verdicts and
``(time, seq)`` engine checksums are byte-identical either way.  Three
pieces deliver that:

``uniform_block`` / ``uniform_matrix``
    CPython's Mersenne Twister state is transplanted into a
    ``numpy.random.RandomState`` (both are MT19937 with the same
    double-from-53-bits output path), so one vectorized call reproduces a
    ``random.Random(seed)`` stream exactly — including *pre-advancement*:
    generating a block, consuming part of it, and extending later
    continues the same sequence N independent scalar streams would yield.

``ReplayRandom``
    A ``random.Random`` subclass that serves its uniforms from such
    pre-generated blocks.  ``random()`` (and everything built on it:
    ``uniform``, ``gauss``, every ``Distribution.sample``) is replayed
    bit-exactly; draws with a closed-form or rejection-replayable
    transform get a compiled fast path via :meth:`ReplayRandom.make_draw`.
    Consumers that need raw MT words (``getrandbits`` → ``shuffle``,
    ``randrange``…) cannot be replayed from the float stream — they raise
    :class:`BatchDivergence`, the per-seed divergence detector that ejects
    the trial back to the scalar engine.

``batch_djb2`` / ``batch_linear_hash``
    djb2/sdbm folds over a ``(seeds x bytes)`` uint8 matrix in one uint64
    matmul per 64 KiB chunk — integer arithmetic mod 2^64 is exact, so
    row *i* equals :func:`repro.secure.hashes.djb2` of row *i*'s bytes.

A note on transcendentals: numpy's vectorized ``log``/``exp``/``pow`` are
SIMD polynomial kernels that differ from libm by ~1 ulp, so replay never
uses them for *values* — final transforms run through ``math.exp``/float
``**`` exactly as the scalar samplers do.  The one vectorized use is the
lognormal rejection-acceptance scan, where any near-tie (the only place a
1-ulp drift could flip a decision) is re-checked with ``math.log``.
"""

from __future__ import annotations

import math
import random
import threading
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.distributions import (
    _NV_MAGICCONST,
    BoundedPareto,
    Constant,
    Distribution,
    LogNormalJitter,
    Shifted,
    SpikeMixture,
    Uniform,
)
from repro.sim.rng import derive_seed

_log = math.log
_exp = math.exp

#: Streams that consume raw MT words (``shuffle``/``randrange``) and
#: therefore cannot be replayed from a float block: SATIN's wake-up slot
#: shuffle and random-walk area picks, plus every fault-injector stream.
#: They always get a plain ``random.Random`` — identical to scalar runs.
REPLAY_BLACKLIST = frozenset({"satin.area_set", "satin.wakeup"})
REPLAY_BLACKLIST_PREFIXES = ("faults.",)

#: Uniforms generated per window extension of one replayed stream.
DEFAULT_WINDOW = 1 << 15

#: Defensive per-stream generation cap — a stream that asks for more than
#: this many uniforms is diverging from any plausible trial profile.
MAX_STREAM_UNIFORMS = 1 << 26


class BatchDivergence(RuntimeError):
    """A batched seed departed lockstep and must rerun on the scalar engine.

    Raised when a replayed stream is asked for entropy the float-block
    replay cannot serve bit-exactly (``getrandbits``-family calls), when a
    stream exceeds its generation budget, or when a forced trip point
    (``trip_after``) is reached in the differential tests.
    """


# ---------------------------------------------------------------------------
# Pre-advanced uniform blocks (MT19937 state transplant)
# ---------------------------------------------------------------------------


def numpy_stream(seed: int) -> "np.random.RandomState":
    """A ``RandomState`` producing exactly ``random.Random(seed)``'s floats.

    Direct numpy seeding is *not* equivalent (numpy routes 1-word seeds
    through ``init_genrand`` while CPython always uses ``init_by_array``),
    so the 624-word state is transplanted verbatim.
    """
    _, state, _ = random.Random(seed).getstate()
    rs = np.random.RandomState()
    rs.set_state(("MT19937", np.array(state[:624], dtype=np.uint32), state[624]))
    return rs


def uniform_block(seed: int, n: int, skip: int = 0) -> np.ndarray:
    """``n`` uniforms of stream ``seed`` starting after ``skip`` draws."""
    rs = numpy_stream(seed)
    if skip:
        rs.random_sample(skip)
    return rs.random_sample(n)


def uniform_matrix(seeds: Sequence[int], n: int, skip: int = 0) -> np.ndarray:
    """A ``(len(seeds), n)`` matrix; row *i* is ``uniform_block(seeds[i], n)``.

    The rows are the *pre-advanced per-seed streams* a batch plan hands to
    its member trials: row *i* is bit-identical to ``n`` consecutive
    ``random.Random(seeds[i]).random()`` calls (after ``skip`` discards).
    """
    out = np.empty((len(seeds), n), dtype=np.float64)
    for i, seed in enumerate(seeds):
        out[i] = uniform_block(int(seed), n, skip=skip)
    return out


# ---------------------------------------------------------------------------
# Batched linear hashing over a (seeds x bytes) matrix
# ---------------------------------------------------------------------------


_MASK64 = (1 << 64) - 1

#: Chunk length of the ``"matmul"`` strategy's power tables.
_TABLE_LEN = 1 << 16

_pow_tables: Dict[int, np.ndarray] = {}


def _pow_table(mult: int) -> np.ndarray:
    """Descending powers [mult^(L-1), ..., mult^1, mult^0] mod 2^64."""
    table = _pow_tables.get(mult)
    if table is None:
        table = np.empty(_TABLE_LEN, dtype=np.uint64)
        value = 1
        for i in range(_TABLE_LEN - 1, -1, -1):
            table[i] = value
            value = (value * mult) & _MASK64
        _pow_tables[mult] = table
    return table


#: Per-row byte count above which the one-matmul-per-chunk path loses to
#: per-row scalar hashing.  The matmul widens every uint8 chunk to a
#: uint64 copy (an 8x materialization) and multiplies it in numpy's own
#: integer loop (BLAS has no integer kernels), so once a row stops
#: fitting in cache the scalar row loop wins by 3-5x; below it the
#: shared-table matmul amortizes across rows and wins by up to an order
#: of magnitude (measured against the earlier uint64 scalar fold: matmul
#: 1.1-19x faster at <= 4 KiB/row, 0.19-0.28x at >= 16 KiB/row).
BATCH_HASH_MATMUL_MAX_BYTES = 8192


def batch_hash_strategy(rows: int, length: int) -> str:
    """Break-even heuristic: ``"matmul"`` or ``"scalar"`` for this shape."""
    if rows < 2 or length > BATCH_HASH_MATMUL_MAX_BYTES:
        return "scalar"
    return "matmul"


def batch_linear_hash(
    matrix: Any, mult: int, init: int, strategy: str = "auto"
) -> np.ndarray:
    """Row-wise multiplier hash of a ``(rows, bytes)`` uint8 matrix.

    ``strategy`` selects the kernel: ``"matmul"`` runs one uint64 matmul
    against the precomputed descending power table per 64 KiB chunk;
    ``"scalar"`` folds each row through :class:`repro.secure.hashes.
    LinearHasher` (the thread-safe per-row path); ``"auto"`` picks by the
    measured break-even (:func:`batch_hash_strategy`).  Wrap-around
    multiply-add mod 2^64 is exact either way, so
    ``batch_linear_hash(M, 33, 5381)[i] == djb2(M[i].tobytes())``
    regardless of strategy.
    """
    from repro.secure.hashes import LinearHasher

    data = np.ascontiguousarray(matrix, dtype=np.uint8)
    if data.ndim != 2:
        raise ValueError(f"batch_linear_hash needs a 2-D matrix, got ndim={data.ndim}")
    rows, length = data.shape
    if strategy == "auto":
        strategy = batch_hash_strategy(rows, length)
    if strategy not in ("matmul", "scalar"):
        raise ValueError(f"unknown batch hash strategy {strategy!r}")

    if strategy == "scalar":
        out = np.empty(rows, dtype=np.uint64)
        for i in range(rows):
            hasher = LinearHasher(mult, init)
            hasher.update(data[i].tobytes())
            out[i] = hasher.digest()
        return out

    h = np.full(rows, init, dtype=np.uint64)
    for start in range(0, length, _TABLE_LEN):
        chunk = data[:, start : start + _TABLE_LEN].astype(np.uint64)
        n = chunk.shape[1]
        powers = _pow_table(mult)[_TABLE_LEN - n :]
        with np.errstate(over="ignore"):
            h = h * np.uint64(pow(mult, n, 1 << 64)) + chunk @ powers
    return h


def batch_djb2(matrix: Any, strategy: str = "auto") -> np.ndarray:
    """Row-wise djb2 digests of a ``(rows, bytes)`` uint8 matrix."""
    from repro.secure.hashes import DJB2_INIT, DJB2_MULT

    return batch_linear_hash(matrix, DJB2_MULT, DJB2_INIT, strategy=strategy)


# ---------------------------------------------------------------------------
# Lognormal rejection replay (shared per-window tables)
# ---------------------------------------------------------------------------


def _lognorm_accept_map(u: np.ndarray) -> bytes:
    """Acceptance bitmap of CPython's normalvariate rejection loop over ``u``.

    Byte ``i`` is 1 iff the candidate pair starting at uniform ``i``
    accepts: ``z*z/4 <= -log(u2)`` for ``u1 = u[i]``, ``u2 = 1 - u[i+1]``.
    Acceptance is parameter-free, so one map serves every
    ``LogNormalJitter`` on the stream; a draw starting at cursor ``c``
    walks ``c, c+2, c+4, …`` to its first set byte and recomputes the
    accepted ``z`` from the uniforms with exact scalar arithmetic.
    """
    n = u.size
    if n < 2:
        return b""
    u2 = 1.0 - u[1:]
    z = _NV_MAGICCONST * (u[:-1] - 0.5) / u2
    with np.errstate(over="ignore", invalid="ignore"):
        zz4 = z * z / 4.0
        neglog = -np.log(u2)
        accept = zz4 <= neglog
        # numpy's SIMD log drifts from libm by ~1 ulp; only a near-tie can
        # flip the decision, so re-check those few exactly.
        near = np.flatnonzero(
            np.abs(zz4 - neglog) <= 1e-9 * np.maximum(1.0, np.abs(neglog))
        )
    for idx in near:
        accept[idx] = zz4[idx] <= -_log(u2[idx])
    return accept.tobytes()


# ---------------------------------------------------------------------------
# ReplayRandom: a random.Random served from pre-generated blocks
# ---------------------------------------------------------------------------


class ReplayRandom(random.Random):
    """A ``random.Random`` whose float stream is replayed from numpy blocks.

    Everything funnelled through ``random()`` — ``uniform``, ``gauss``,
    every ``Distribution.sample`` — is bit-identical to a plain
    ``random.Random(seed)``.  ``getrandbits`` (and so ``shuffle``,
    ``randrange``, ``choice``…) consumes raw MT words the float replay
    cannot reproduce and raises :class:`BatchDivergence` instead.

    The window is a sliding block: unconsumed tail uniforms are carried
    across extensions so draws straddling a boundary replay correctly.
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "ReplayRandom":
        # _random.Random.__new__ rejects keyword arguments; bypass it.
        return super().__new__(cls, args[0] if args else None)

    def __init__(
        self,
        seed: int,
        name: str = "",
        initial: Optional[np.ndarray] = None,
        trip_after: Optional[int] = None,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        super().__init__(seed)
        self.name = name
        #: shared cursor cell; a one-element list so compiled draw closures
        #: can read/advance it without attribute lookups on ``self``.
        self._cur = [0]
        self._rs = numpy_stream(seed)
        self._window = int(window)
        self._trip = trip_after
        self._served = 0  # uniforms consumed in windows already slid past
        self._generated = 0
        self._lognorm = False
        # The window list and acceptance map are stable objects mutated in
        # place on every slide, so draw closures capture them once and
        # never go stale.
        self._ul: List[float] = []
        self._acc = bytearray()
        if initial is not None and len(initial):
            block = np.asarray(initial, dtype=np.float64)
            if self._trip is not None:
                block = block[: self._trip]
            # position the private generator after the pre-advanced block
            self._rs.random_sample(block.size)
            self._generated = block.size
            self._uarr = block
            self._ul[:] = block.tolist()
        else:
            self._uarr = np.empty(0, dtype=np.float64)

    # -- window management ------------------------------------------------

    def _slide(self) -> None:
        """Carry the unconsumed tail and append a fresh window of uniforms."""
        if self._trip is not None and self._generated >= self._trip:
            raise BatchDivergence(
                f"stream {self.name!r}: tripped after {self._generated} uniforms"
            )
        consumed = self._cur[0]
        tail = self._uarr[consumed:]
        # If nothing was consumed since the last slide, one draw needs more
        # than a whole window — double the fresh allotment.
        fresh_n = self._window if consumed or not self._generated else self._uarr.size
        if self._trip is not None:
            fresh_n = min(fresh_n, max(1, self._trip - self._generated))
        if self._generated + fresh_n > MAX_STREAM_UNIFORMS:
            raise BatchDivergence(
                f"stream {self.name!r}: exceeded {MAX_STREAM_UNIFORMS} uniforms"
            )
        fresh = self._rs.random_sample(fresh_n)
        self._generated += fresh_n
        self._served += consumed
        self._cur[0] = 0
        self._uarr = np.concatenate((tail, fresh)) if tail.size else fresh
        self._ul[:] = self._uarr.tolist()
        if self._lognorm:
            self._acc[:] = _lognorm_accept_map(self._uarr)

    @property
    def uniforms_served(self) -> int:
        """Total uniforms consumed from this stream so far."""
        return self._served + self._cur[0]

    # -- the random.Random surface ---------------------------------------

    def random(self) -> float:
        cur = self._cur
        i = cur[0]
        try:
            u = self._ul[i]
        except IndexError:
            self._slide()
            i = 0
            u = self._ul[0]
        cur[0] = i + 1
        return u

    def getrandbits(self, k: int) -> int:
        raise BatchDivergence(
            f"stream {self.name!r}: getrandbits({k}) needs raw MT words the "
            "float replay cannot serve bit-exactly"
        )

    def seed(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover
        # called by random.Random.__init__ before our state exists; once a
        # replay stream is live, reseeding would silently desync the block.
        if hasattr(self, "_rs"):
            raise BatchDivergence(f"stream {self.name!r}: reseeded mid-replay")
        super().seed(*args, **kwargs)

    # -- compiled fast draws ----------------------------------------------

    def _enable_lognorm(self) -> None:
        if not self._lognorm:
            self._lognorm = True
            self._acc[:] = _lognorm_accept_map(self._uarr)

    def _lognorm_const(self, dist: LogNormalJitter) -> float:
        """The (clipped) value of a sigma==0 lognormal: zero uniforms."""
        value = dist._mean
        if dist.lo_clip is not None and value < dist.lo_clip:
            value = dist.lo_clip
        if dist.hi_clip is not None and value > dist.hi_clip:
            value = dist.hi_clip
        return value

    def _step(self, dist: Distribution) -> Optional[Callable[[int], Tuple[float, int]]]:
        """A replay step ``fn(i) -> (value, next_cursor)`` for ``dist``.

        The composition protocol behind :meth:`make_draw`: raises
        ``IndexError`` when the window is too short to complete the draw
        starting at ``i``; returns ``None`` for unknown distribution types.
        The captured window lists are mutated in place by ``_slide``, so
        the closures never go stale.
        """
        if isinstance(dist, Constant):
            value = dist.value

            def step(i: int, _v: float = value) -> Tuple[float, int]:
                return _v, i

            return step
        if isinstance(dist, Uniform):
            lo, span, ul = dist.lo, dist.hi - dist.lo, self._ul

            def step(i: int) -> Tuple[float, int]:
                return lo + span * ul[i], i + 1

            return step
        if isinstance(dist, BoundedPareto):
            norm, inva, xm = 1.0 - dist._tail_at_cap, 1.0 / dist.alpha, dist.xm
            ul = self._ul

            def step(i: int) -> Tuple[float, int]:
                raw = ul[i] * norm
                return xm / ((1.0 - raw) ** inva), i + 1

            return step
        if isinstance(dist, LogNormalJitter):
            if dist.sigma == 0.0:
                value = self._lognorm_const(dist)

                def step(i: int, _v: float = value) -> Tuple[float, int]:
                    return _v, i

                return step
            self._enable_lognorm()
            mu, sigma = dist.mu, dist.sigma
            lo_clip, hi_clip = dist.lo_clip, dist.hi_clip
            acc, ul = self._acc, self._ul

            def step(i: int) -> Tuple[float, int]:
                while not acc[i]:  # IndexError past map end -> refill
                    i += 2
                u2 = 1.0 - ul[i + 1]
                z = _NV_MAGICCONST * (ul[i] - 0.5) / u2
                value = _exp(mu + z * sigma)
                if lo_clip is not None and value < lo_clip:
                    value = lo_clip
                if hi_clip is not None and value > hi_clip:
                    value = hi_clip
                return value, i + 2

            return step
        if isinstance(dist, SpikeMixture):
            base_step = self._step(dist.base)
            spike_step = self._step(dist.spike)
            if base_step is None or spike_step is None:
                return None
            p, ul = dist.spike_prob, self._ul

            def step(i: int) -> Tuple[float, int]:
                if ul[i] < p:
                    return spike_step(i + 1)
                return base_step(i + 1)

            return step
        if isinstance(dist, Shifted):
            inner_step = self._step(dist.inner)
            if inner_step is None:
                return None
            offset = dist.offset

            def step(i: int) -> Tuple[float, int]:
                value, j = inner_step(i)
                return value + offset, j

            return step
        return None

    def make_draw(self, dist: Distribution) -> Callable[[], float]:
        """A zero-argument sampler bit-identical to ``dist.sample(self)``.

        The two hottest shapes (lognormal jitter and uniform) get merged
        single-frame closures over the shared cursor cell; everything else
        composes through :meth:`_step`, and unknown distribution types fall
        back to ``dist.sample(self)`` — still bit-exact through the
        overridden ``random()``.
        """
        cur, slide = self._cur, self._slide
        if isinstance(dist, LogNormalJitter) and dist.sigma != 0.0:
            self._enable_lognorm()
            mu, sigma = dist.mu, dist.sigma
            lo_clip, hi_clip = dist.lo_clip, dist.hi_clip
            acc, ul = self._acc, self._ul

            def draw() -> float:
                i = cur[0]
                while True:
                    try:
                        while not acc[i]:
                            i += 2
                        break
                    except IndexError:
                        slide()
                        i = 0
                cur[0] = i + 2
                u2 = 1.0 - ul[i + 1]
                z = _NV_MAGICCONST * (ul[i] - 0.5) / u2
                value = _exp(mu + z * sigma)
                if lo_clip is not None and value < lo_clip:
                    value = lo_clip
                if hi_clip is not None and value > hi_clip:
                    value = hi_clip
                return value

            return draw
        if isinstance(dist, Uniform):
            lo, span, ul = dist.lo, dist.hi - dist.lo, self._ul

            def draw() -> float:
                i = cur[0]
                try:
                    u = ul[i]
                except IndexError:
                    slide()
                    i = 0
                    u = ul[0]
                cur[0] = i + 1
                return lo + span * u

            return draw
        if isinstance(dist, SpikeMixture):
            if (
                isinstance(dist.base, LogNormalJitter)
                and dist.base.sigma != 0.0
                and isinstance(dist.spike, BoundedPareto)
            ):
                # The calibrated visibility-delay shape — the single
                # hottest replay stream — gets a fully inlined draw.
                self._enable_lognorm()
                p, ul, acc = dist.spike_prob, self._ul, self._acc
                base = dist.base
                mu, sigma = base.mu, base.sigma
                lo_clip, hi_clip = base.lo_clip, base.hi_clip
                spike = dist.spike
                norm = 1.0 - spike._tail_at_cap
                inva, xm = 1.0 / spike.alpha, spike.xm

                def draw() -> float:
                    i = cur[0]
                    while True:
                        try:
                            if ul[i] < p:
                                raw = ul[i + 1] * norm
                                cur[0] = i + 2
                                return xm / ((1.0 - raw) ** inva)
                            j = i + 1
                            while not acc[j]:
                                j += 2
                            break
                        except IndexError:
                            slide()
                            i = 0
                    cur[0] = j + 2
                    u2 = 1.0 - ul[j + 1]
                    z = _NV_MAGICCONST * (ul[j] - 0.5) / u2
                    value = _exp(mu + z * sigma)
                    if lo_clip is not None and value < lo_clip:
                        value = lo_clip
                    if hi_clip is not None and value > hi_clip:
                        value = hi_clip
                    return value

                return draw
            base_step = self._step(dist.base)
            spike_step = self._step(dist.spike)
            if base_step is not None and spike_step is not None:
                p, ul = dist.spike_prob, self._ul

                def draw() -> float:
                    i = cur[0]
                    while True:
                        try:
                            if ul[i] < p:
                                value, j = spike_step(i + 1)
                            else:
                                value, j = base_step(i + 1)
                            break
                        except IndexError:
                            slide()
                            i = 0
                    cur[0] = j
                    return value

                return draw
        step = self._step(dist)
        if step is None:
            return partial(dist.sample, self)

        def draw() -> float:
            while True:
                try:
                    value, j = step(cur[0])
                    break
                except IndexError:
                    slide()
            cur[0] = j
            return value

        return draw


def bind_sampler(dist: Distribution, rng: random.Random) -> Callable[[], float]:
    """A zero-argument sampler for ``dist`` on ``rng``.

    Hot draw sites bind this once at setup: on a plain ``random.Random``
    it is ``partial(dist.sample, rng)`` (the scalar path, one frame fewer
    per draw); on a :class:`ReplayRandom` it is the compiled replay draw.
    Either way the produced values are bit-identical.
    """
    if isinstance(rng, ReplayRandom):
        return rng.make_draw(dist)
    return partial(dist.sample, rng)


# ---------------------------------------------------------------------------
# Replay plans: scoped stream-factory installation
# ---------------------------------------------------------------------------


def replayable(name: str) -> bool:
    """Whether stream ``name`` may be replayed from a float block."""
    if name in REPLAY_BLACKLIST:
        return False
    return not any(name.startswith(p) for p in REPLAY_BLACKLIST_PREFIXES)


class ReplayPlan:
    """Per-seed replay wiring for one batched trial.

    ``blocks`` maps ``(master_seed, stream_name)`` to a pre-generated
    uniform block (a row of :func:`uniform_matrix`); streams without a
    block generate lazily from their transplanted generator.  Installing
    the plan (:func:`use_replay`) makes every
    :class:`~repro.sim.rng.RngRegistry` built inside the scope serve
    :class:`ReplayRandom` streams for replayable names and plain
    ``random.Random`` for blacklisted ones.
    """

    def __init__(
        self,
        blocks: Optional[Dict[Tuple[int, str], np.ndarray]] = None,
        trip_after: Optional[int] = None,
    ) -> None:
        self.blocks = blocks if blocks is not None else {}
        self.trip_after = trip_after
        #: streams ejected with BatchDivergence are recorded here by the
        #: batch runner for the manifest's ejection log.
        self.created: List[str] = []

    def make_stream(self, master_seed: int, name: str, derived_seed: int) -> random.Random:
        if not replayable(name):
            return random.Random(derived_seed)
        # blocks are single-use: a second registry for the same (seed,
        # stream) — e.g. a trial building two machines — regenerates from
        # scratch, which yields the identical sequence anyway.
        initial = self.blocks.pop((master_seed, name), None)
        self.created.append(name)
        return ReplayRandom(
            derived_seed, name=name, initial=initial, trip_after=self.trip_after
        )


_active = threading.local()


def active_replay() -> Optional[ReplayPlan]:
    """The replay plan installed for the current thread, if any."""
    return getattr(_active, "plan", None)


@contextmanager
def use_replay(plan: ReplayPlan):
    """Install ``plan`` as the thread's active replay plan."""
    from repro.sim import rng as rng_module

    previous = getattr(_active, "plan", None)
    _active.plan = plan
    rng_module.push_stream_factory(plan.make_stream)
    try:
        yield plan
    finally:
        _active.plan = previous
        rng_module.pop_stream_factory()


def plan_blocks(
    seeds: Sequence[int],
    stream_names: Iterable[str],
    block_size: int = 4096,
) -> Dict[Tuple[int, str], np.ndarray]:
    """Pre-advance the hot streams of every seed in one pass per stream.

    For each stream name, one :func:`uniform_matrix` call produces the
    ``(seeds x block_size)`` matrix whose rows become the member trials'
    initial windows — the batched draw precompute of the batch runner.
    """
    out: Dict[Tuple[int, str], np.ndarray] = {}
    for name in stream_names:
        if not replayable(name):
            continue
        derived = [derive_seed(int(seed), name) for seed in seeds]
        matrix = uniform_matrix(derived, block_size)
        for row, seed in enumerate(seeds):
            out[(int(seed), name)] = matrix[row]
    return out
