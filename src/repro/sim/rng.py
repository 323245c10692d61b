"""Deterministic named random streams.

Every stochastic component of the simulation (scheduler jitter, per-byte
hash cost noise, wake-up time deviations, cross-core read spikes, ...) draws
from its own named stream derived from one master seed.  This makes whole
experiments reproducible bit-for-bit while keeping the streams statistically
independent of one another: adding a new consumer never perturbs existing
ones.  Every stream is a plain :class:`random.Random` seeded by
:func:`derive_seed`.

A stream with one consumer distribution can be bound with
:meth:`RngRegistry.sampler` instead: the registry then owns the stream and
may serve its draws from exact numpy blocks (see
:mod:`repro.sim.distributions`), continuing the stream's MT19937 state in
numpy so every value is the one ``random.Random`` would have produced.
"""

from __future__ import annotations

import hashlib
import random
from itertools import chain
from typing import Callable, Dict, Tuple

from repro.errors import ConfigurationError
from repro.sim.distributions import Constant, Distribution, parameters


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _numpy_uniforms(rng: random.Random) -> Callable[[int], "numpy.ndarray"]:
    """``uniforms(n)``: the next ``n`` values ``rng.random()`` would return.

    numpy's ``MT19937`` continues ``rng``'s state word for word, and
    ``Generator.random`` builds each double as ``random.random`` does,
    ``(a >> 5, b >> 6)`` over 53 bits.
    """
    import numpy as np

    _, internal, _ = rng.getstate()
    bits = np.random.MT19937(0)
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    return np.random.Generator(bits).random


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    __slots__ = ("master_seed", "_streams", "_owners")

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}
        #: stream name -> (parameters of its one distribution, its sampler,
        #: whether the sampler serves numpy blocks)
        self._owners: Dict[str, Tuple[tuple, Callable[[], float], bool]] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name in self._owners:
            raise ConfigurationError(
                f"stream {name!r} is owned by a sampler; bind its draws "
                "through RngRegistry.sampler"
            )
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = random.Random(
                derive_seed(self.master_seed, name)
            )
        return rng

    def sampler(self, name: str, dist: Distribution) -> Callable[[], float]:
        """A zero-argument draw of ``dist`` on stream ``name``.

        The registry owns the stream from then on: :meth:`stream` refuses
        it, so no other consumer can replay uniforms a block already used.
        Asking again with equal parameters returns the same sampler (two
        consumers then interleave on the stream, as two closures over one
        ``random.Random`` would); asking with other parameters raises.  A
        :class:`Constant` draws no uniforms and claims nothing.
        """
        if isinstance(dist, Constant):
            return dist.sampler(None)
        key = parameters(dist)
        owner = self._owners.get(name)
        if owner is not None:
            if owner[0] != key:
                raise ConfigurationError(
                    f"stream {name!r} already serves {owner[0][0].__name__} "
                    f"with other parameters than this {type(dist).__name__}"
                )
            return owner[1]
        rng = self.stream(name)
        fill = dist.block_fill()
        if fill is None:
            draw = dist.sampler(rng)
        else:
            draw = chain.from_iterable(fill(_numpy_uniforms(rng))).__next__
        self._owners[name] = (key, draw, fill is not None)
        return draw

    def block_served(self, name: str) -> bool:
        """Whether stream ``name``'s draws come from numpy blocks."""
        owner = self._owners.get(name)
        return owner is not None and owner[2]

    def reseed(self, master_seed: int) -> None:
        """Reset the registry with a new master seed, dropping all streams."""
        self.master_seed = master_seed
        self._streams.clear()
        self._owners.clear()

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one's."""
        return RngRegistry(derive_seed(self.master_seed, f"fork:{name}"))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RngRegistry seed={self.master_seed} streams={len(self._streams)}>"
