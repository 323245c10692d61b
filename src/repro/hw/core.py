"""CPU core model.

A :class:`Core` carries its TrustZone world state, its per-core system
registers and secure timer, and its calibrated performance model.  The
*observable* property everything in the paper revolves around: while a core
is in the secure world (or transitioning), the normal world cannot run
anything on it — the kernel scheduler is notified through the
``on_enter_secure`` / ``on_exit_secure`` hook lists, and the attacker can
only *infer* the state through that unavailability.
"""

from __future__ import annotations

from typing import Callable, List

from repro.hw.perf import CorePerf
from repro.hw.registers import RegisterFile
from repro.hw.timer import SecureTimer, SystemCounter
from repro.hw.world import World
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator


class Core:
    """One CPU core of the simulated board."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        cluster_name: str,
        perf: CorePerf,
        counter: SystemCounter,
        rng: RngRegistry,
    ) -> None:
        self.sim = sim
        self.index = index
        self.cluster_name = cluster_name
        self.perf = perf
        self.registers = RegisterFile()
        self.secure_timer = SecureTimer(sim, counter, self.registers, index)
        self.world: World = World.NORMAL
        #: True while EL3 is saving/restoring context (the core is lost to
        #: the normal world but the secure payload has not started yet).
        self.transitioning: bool = False
        #: hooks fired the instant the normal world loses / regains the core.
        self.on_enter_secure: List[Callable[["Core"], None]] = []
        self.on_exit_secure: List[Callable[["Core"], None]] = []
        #: Fault-model state: while ``sim.now < stalled_until`` the core is
        #: stalled/offline — interrupt delivery to it is deferred by the
        #: fault injector.  0.0 (the default) means never stalled.
        self.stalled_until: float = 0.0
        # --- statistics -------------------------------------------------
        self.secure_entries = 0
        self.secure_time_total = 0.0
        self._secure_entered_at = 0.0

    # ------------------------------------------------------------------
    @property
    def available_to_normal_world(self) -> bool:
        """Can the rich OS dispatch a task here right now?"""
        # Inlined copies: RichScheduler.wake and RichScheduler._dispatch.
        return self.world is World.NORMAL and not self.transitioning

    @property
    def stalled(self) -> bool:
        """True while a fault-injected stall/offline window is active."""
        return self.sim.now < self.stalled_until

    def stall_for(self, duration: float) -> float:
        """Open (or extend) a stall window; returns its end time."""
        self.stalled_until = max(self.stalled_until, self.sim.now + duration)
        return self.stalled_until

    def notify_enter_secure(self) -> None:
        """Called by the monitor at the instant the world switch begins."""
        self.secure_entries += 1
        self._secure_entered_at = self.sim.now
        for hook in self.on_enter_secure:
            hook(self)

    def notify_exit_secure(self) -> None:
        """Called by the monitor once the normal world owns the core again."""
        self.secure_time_total += self.sim.now - self._secure_entered_at
        for hook in self.on_exit_secure:
            hook(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Core {self.index} ({self.cluster_name}) world={self.world} "
            f"transitioning={self.transitioning}>"
        )
