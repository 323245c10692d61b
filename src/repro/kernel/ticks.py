"""Scheduling-clock ticks (CONFIG_HZ, NO_HZ_IDLE).

Each core raises a non-secure timer interrupt ``HZ`` times per second while
it has runnable work; idle cores stop ticking (``CONFIG_NO_HZ_IDLE``), which
is why KProber-I must keep a spinner thread on every core it wants to probe
from.  Tick interrupts route through the GIC, so a core held by the secure
world has its ticks *pended and coalesced* until the normal world resumes —
one observable consequence of an introspection round.

Tick hooks model code injected into the timer interrupt handler (KProber-I's
Time Reporter/Comparer): each hook runs during the handler and returns the
extra CPU time it consumed, which is stolen from the interrupted task.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.hw.core import Core
from repro.hw.platform import Machine
from repro.hw.timer import NS_TIMER_INTID
from repro.kernel.sched.scheduler import RichScheduler
from repro.sim.events import Event

#: A tick hook: runs in the handler, returns its CPU cost in seconds.
TickHook = Callable[[Core], float]


class TickManager:
    """Per-core periodic tick driver with NO_HZ_IDLE semantics."""

    def __init__(self, machine: Machine, scheduler: RichScheduler) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.scheduler = scheduler
        self.hz = machine.config.kernel.hz
        self.period = 1.0 / self.hz
        #: pending tick event per core index (a list: polled on every
        #: busy transition of every probe iteration).
        self._armed: List[Optional[Event]] = [None] * len(machine.cores)
        #: per-core phase stagger so all cores do not tick simultaneously.
        self._phase = {
            core.index: (core.index * self.period) / len(machine.cores)
            for core in machine.cores
        }
        self._hooks: List[TickHook] = []
        self.tick_count = 0
        machine.gic.register_ns_handler(NS_TIMER_INTID, self._tick_irq)
        scheduler.add_busy_listener(self._busy_changed)

    # ------------------------------------------------------------------
    def add_tick_hook(self, hook: TickHook) -> Callable[[], None]:
        """Inject code into the tick handler; returns an uninstaller.

        This is the integration point KProber-I abuses after patching the
        IRQ exception vector.
        """
        self._hooks.append(hook)

        def uninstall() -> None:
            if hook in self._hooks:
                self._hooks.remove(hook)

        return uninstall

    # ------------------------------------------------------------------
    def _busy_changed(self, core_index: int, busy: bool) -> None:
        if busy and self._armed[core_index] is None:
            self._arm(core_index)
        # On !busy we simply let any armed event fire once more; the
        # handler will not re-arm for an idle core.

    def _arm(self, core_index: int) -> None:
        phase = self._phase[core_index]
        periods_elapsed = int((self.sim.now - phase) / self.period) + 1
        fire_at = phase + periods_elapsed * self.period
        if fire_at <= self.sim.now:
            fire_at += self.period
        self._armed[core_index] = self.sim.schedule_at(
            fire_at, self._raise, core_index
        )

    def _raise(self, core_index: int) -> None:
        self._armed[core_index] = None
        core = self.machine.cores[core_index]
        # Route through the GIC: pended (and coalesced) if the core is in
        # the secure world, delivered to the handler otherwise.
        self.machine.gic.trigger(core, NS_TIMER_INTID)

    def _tick_irq(self, core: Core, _intid: int) -> None:
        self.tick_count += 1
        cost = core.perf.tick()
        for hook in self._hooks:
            cost += hook(core)
        self.scheduler.steal_time(core.index, cost)
        self.scheduler.tick(core.index)
        if self.scheduler.busy(core.index) and self._armed[core.index] is None:
            self._arm(core.index)
