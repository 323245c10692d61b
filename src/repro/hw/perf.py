"""Per-core performance model: calibrated cost sampling.

Each core owns a :class:`CorePerf` that turns the cluster's
:class:`~repro.config.ClusterTiming` distributions into concrete samples
drawn from core-specific deterministic RNG streams.

The samplers are bound once at construction as ``dist.sampler(rng)``
(:meth:`~repro.sim.distributions.Distribution.sampler`): a zero-argument
draw with the distribution's parameters and the stream already bound.
"""

from __future__ import annotations

from repro.config import ClusterTiming
from repro.sim.rng import RngRegistry


class CorePerf:
    """Samples timing costs for one core."""

    __slots__ = (
        "timing",
        "_rng",
        "hash_byte",
        "snapshot_byte",
        "world_switch",
        "recover_trace_8b",
        "syscall",
        "dispatch",
        "tick",
        "preemption_penalty",
    )

    def __init__(self, timing: ClusterTiming, rng: RngRegistry, core_index: int) -> None:
        self.timing = timing
        self._rng = rng.stream(f"core{core_index}.perf")
        #: Secure-world cost to directly hash one byte (Table I).
        self.hash_byte = timing.hash_byte.sampler(self._rng)
        #: Secure-world cost to snapshot-then-hash one byte (Table I).
        self.snapshot_byte = timing.snapshot_byte.sampler(self._rng)
        #: One-direction EL3 world switch (Section IV-B1).
        self.world_switch = timing.world_switch.sampler(self._rng)
        #: Rootkit restoring one 8-byte attack trace (Section IV-B2).
        self.recover_trace_8b = timing.recover_trace_8b.sampler(self._rng)
        #: Rich-OS system call round trip.
        self.syscall = timing.syscall.sampler(self._rng)
        #: Rich-OS scheduler dispatch latency.
        self.dispatch = timing.dispatch.sampler(self._rng)
        #: Timer-tick handler cost.
        self.tick = timing.tick.sampler(self._rng)
        #: Cache-refill penalty paid by a task resumed after preemption.
        self.preemption_penalty = timing.preemption_penalty.sampler(self._rng)

    @property
    def cluster_name(self) -> str:
        return self.timing.name
