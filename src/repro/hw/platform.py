"""The assembled board: :class:`Machine`.

``Machine`` wires the simulator, memory map, shared counter, cores with
their secure timers, the GIC, and the EL3 monitor into one handle that the
rich OS, the secure world software, and the attack components all plug
into.  ``build_machine(juno_r1_config())`` reproduces the paper's platform.

A finished machine is a reference cycle (cores, timers and callbacks all
point back at it), so its memory would wait for the cyclic collector.
:func:`trial_scope` closes every machine built on the calling thread
inside it when the block exits, which frees that memory at once.  A
machine built outside any scope is left to the collector, which may not
reach it for many trials once it sits in the oldest generation; the next
scope opened on that thread therefore runs one full collection first.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.config import MachineConfig, juno_r1_config
from repro.errors import ConfigurationError
from repro.hw.cluster import Cluster
from repro.hw.core import Core
from repro.hw.gic import Gic
from repro.hw.memory import PhysicalMemory
from repro.hw.monitor import SecureMonitor
from repro.hw.perf import CorePerf
from repro.hw.timer import SystemCounter
from repro.obs.metrics import MetricsRegistry, active_registry
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceRecorder

#: Physical base of the normal-world DRAM (Juno's DRAM window).
DRAM_BASE = 0x8000_0000

#: Physical base of the secure SRAM holding the trusted OS state.
SECURE_SRAM_BASE = 0x0400_0000


class _Scopes(threading.local):
    """Each thread's open trial scopes, innermost last."""

    def __init__(self) -> None:
        self.stack: List[List["Machine"]] = []
        #: a machine was built outside any scope since the last collection
        self.unscoped = False


_SCOPES = _Scopes()


@contextmanager
def trial_scope() -> Iterator[List["Machine"]]:
    """Close every :class:`Machine` this thread builds inside the block.

    The machines are closed on exit, also when the block raises, so
    nothing built in the block may be used afterwards.  Machines built
    outside any scope, or on another thread, are left alone; but when
    one was built on this thread since the last scope opened, the scope
    first runs a full collection, so an unreachable one (each maps the
    whole kernel image, which trusted boot has read) is freed before the
    trial's own machines are built.
    """
    if _SCOPES.unscoped:
        _SCOPES.unscoped = False
        gc.collect()
    machines: List[Machine] = []
    _SCOPES.stack.append(machines)
    try:
        yield machines
    finally:
        _SCOPES.stack.pop()
        for machine in machines:
            machine.close()


class Machine:
    """The simulated multi-core TrustZone board."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        # Adopt the harness-scoped registry when one is installed (the
        # campaign trial runner meters whole trials this way); otherwise
        # every machine gets its own.
        self.metrics = active_registry() or MetricsRegistry()
        self.sim.metrics = self.metrics
        self.trace = TraceRecorder(enabled=config.trace_enabled, metrics=self.metrics)

        # --- memory map ---------------------------------------------------
        self.memory = PhysicalMemory()
        self.dram = self.memory.add_region("dram", DRAM_BASE, config.dram_size, secure=False)
        self.secure_sram = self.memory.add_region(
            "secure_sram", SECURE_SRAM_BASE, config.secure_memory_size, secure=True
        )
        if _SCOPES.stack:
            _SCOPES.stack[-1].append(self)
        else:
            _SCOPES.unscoped = True

        # --- timers, interrupts, cores -------------------------------------
        self.counter = SystemCounter(self.sim, config.counter_frequency_hz)
        self.gic = Gic(self.sim, self.trace)
        self.monitor = SecureMonitor(self.sim, self.gic, self.trace, metrics=self.metrics)

        self.cores: List[Core] = []
        self.clusters: List[Cluster] = []
        index = 0
        for cluster_cfg in config.clusters:
            cluster_cores = []
            for _ in range(cluster_cfg.core_count):
                perf = CorePerf(cluster_cfg.timing, self.rng, index)
                core = Core(self.sim, index, cluster_cfg.name, perf, self.counter, self.rng)
                core.secure_timer.interrupt_sink = self._secure_timer_fired
                self.cores.append(core)
                cluster_cores.append(core)
                index += 1
            self.clusters.append(Cluster(cluster_cfg.name, cluster_cores))

        #: Probes registered by components that may mutate or observe kernel
        #: memory concurrently with a scan (rootkits, evaders, probers).
        #: While any probe reports True, secure-world scans must keep their
        #: one-event-per-chunk timeline so races resolve chunk by chunk.
        self._interference_probes: List[Callable[[], bool]] = []
        #: The installed :class:`repro.faults.injector.FaultInjector`, if
        #: any.  Baseline runs never set this; the checker consults it to
        #: meter fused-scan fallbacks attributable to injected faults.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _secure_timer_fired(self, core_index: int) -> None:
        from repro.hw.timer import SECURE_TIMER_INTID

        self.gic.trigger(self.cores[core_index], SECURE_TIMER_INTID)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def core(self, index: int) -> Core:
        return self.cores[index]

    def cluster(self, name: str) -> Cluster:
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise ConfigurationError(f"no cluster named {name!r}")

    def cores_in_cluster(self, name: str) -> List[Core]:
        return self.cluster(name).cores

    def little_core(self) -> Core:
        """First core of the first (LITTLE) cluster."""
        return self.clusters[0].cores[0]

    def big_core(self) -> Core:
        """First core of the last (big) cluster."""
        return self.clusters[-1].cores[0]

    # ------------------------------------------------------------------
    # Harness-side visibility (NOT available to normal-world components)
    # ------------------------------------------------------------------
    def secure_world_active(self) -> bool:
        """True if any core is in (or moving to/from) the secure world."""
        # Polled by every accelerated probe iteration: the monitor's open
        # entries answer in O(1) instead of a scan over the cores.
        return self.monitor.any_core_lost()

    def next_secure_timer_fire(self) -> Optional[float]:
        """Earliest armed secure-timer fire time across all cores.

        This is simulator-internal ground truth used only by the
        acceleration oracle and by tests; attack components never see it.
        """
        earliest: Optional[float] = None
        for core in self.cores:
            fire = core.secure_timer.next_fire_time()
            if fire is not None and (earliest is None or fire < earliest):
                earliest = fire
        return earliest

    def register_interference(self, probe: Callable[[], bool]) -> None:
        """Register a predicate that is True while scans may be raced.

        Attack and probe components call this at install time; the
        introspection engine consults :meth:`scan_interference` before
        fusing a scan's chunk events into one span.
        """
        self._interference_probes.append(probe)

    def attach_fault_injector(self, injector) -> None:
        """Register an installed fault injector with the platform.

        Besides exposing it via :attr:`fault_injector`, the injector's
        memory-corrupting classes register as an interference probe so
        fused-span scans automatically fall back to per-chunk scanning
        while such faults may strike (write-during-span would otherwise
        falsify the span's no-interleaving claim).
        """
        self.fault_injector = injector
        self.register_interference(injector.interferes_with_scans)

    def scan_interference(self) -> bool:
        """True while any registered component could interleave with a scan."""
        for probe in self._interference_probes:
            if probe():
                return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Advance the simulation (delegates to the simulator)."""
        self.sim.run(until=until, max_events=max_events)

    def run_for(self, duration: float) -> None:
        self.sim.run_for(duration)

    def close(self) -> None:
        """Release the machine's memory now; a second call is a no-op.

        Any later memory access raises
        :class:`~repro.errors.MemoryAccessError`.
        """
        self.memory.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine cores={len(self.cores)} t={self.sim.now:.6f}>"


def build_machine(config: Optional[MachineConfig] = None) -> Machine:
    """Build a :class:`Machine`; defaults to the paper's Juno r1 setup."""
    return Machine(config if config is not None else juno_r1_config())
