"""KProber-I: the timer-interrupt-hijack prober (Section III-C1).

The attacker locates the IRQ entry of the AArch64 exception vector table
through ``VBAR_EL1`` and redirects it to injected code, so the Time
Reporter and Time Comparer execute inside *every* timer interrupt — a
probing frequency of at least ``HZ`` on any non-idle core, independent of
scheduler load.

Two consequences the paper highlights, both modelled here:

* because of ``CONFIG_NO_HZ_IDLE``, an idle core takes no ticks, so
  KProber-I keeps a user-level spinner thread on each probed core;
* the vector-table patch is 8 bytes of *kernel static memory* — an extra
  attack trace introspection can find, which is why a KProber-I-based
  evader must clean twice as many bytes as a KProber-II-based one.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence

from repro.attacks.prober import ProbeController
from repro.config import ProberConfig
from repro.errors import AttackError
from repro.hw.core import Core
from repro.hw.platform import Machine
from repro.hw.world import World
from repro.kernel.os import RichOS
from repro.kernel.threads import Task, pin_to
from repro.kernel.vectors import IRQ_VECTOR_INDEX
from repro.sim.process import cpu

#: Synthetic address of KProber-I's injected handler code.
EVIL_IRQ_HANDLER = 0xFFFF_0000_0BAD_1000


def kprober1_threshold(hz: int, margin: float = 2.5) -> float:
    """Staleness threshold for tick-granularity probing.

    Reports land once per tick, staggered across cores, so benign
    staleness reaches ~2/HZ; the default margin puts the threshold safely
    above that.
    """
    return margin / hz


class KProberI:
    """Timer-interrupt-handler prober."""

    def __init__(
        self,
        machine: Machine,
        rich_os: RichOS,
        config: Optional[ProberConfig] = None,
        observer_cores: Optional[Sequence[int]] = None,
        target_cores: Optional[Sequence[int]] = None,
        threshold: Optional[float] = None,
        record_staleness: bool = False,
        keep_cores_busy: bool = True,
    ) -> None:
        self.machine = machine
        self.rich_os = rich_os
        self.config = config if config is not None else machine.config.prober
        hz = machine.config.kernel.hz
        self.controller = ProbeController(
            machine,
            self.config,
            observer_cores=observer_cores,
            target_cores=target_cores,
            threshold=threshold if threshold is not None else kprober1_threshold(hz),
            record_staleness=record_staleness,
            expected_interval=1.0 / hz,
        )
        self.keep_cores_busy = keep_cores_busy
        self.installed = False
        # Armed probe hooks observe scan timing chunk by chunk.
        machine.register_interference(lambda: self.installed)
        self._stop_spinners = False
        self.spinners: List[Task] = []
        self._uninstall_hook: Optional[Callable[[], None]] = None
        self.hook_invocations = 0

    # ------------------------------------------------------------------
    def install(self) -> "KProberI":
        """Patch the IRQ vector and start the spinner threads."""
        if self.installed:
            raise AttackError("KProber-I is already installed")
        vectors = self.rich_os.vector_table
        # The attack trace: redirect the IRQ exception vector (8 bytes of
        # kernel static memory, written with normal-world privilege).
        vectors.write_entry(IRQ_VECTOR_INDEX, EVIL_IRQ_HANDLER, World.NORMAL)
        self._uninstall_hook = self.rich_os.ticks.add_tick_hook(self._on_tick)
        if self.keep_cores_busy:
            probe_cores = sorted(
                set(self.controller.observer_cores)
                | set(self.controller.target_cores)
            )
            for core_index in probe_cores:
                self.spinners.append(
                    self.rich_os.spawn(
                        f"kprober1-spin-{core_index}",
                        self._spinner_body,
                        affinity=pin_to(core_index),
                    )
                )
        self.installed = True
        return self

    def uninstall(self) -> None:
        """Remove the hook and restore the vector entry (cover tracks)."""
        if not self.installed:
            return
        if self._uninstall_hook is not None:
            self._uninstall_hook()
            self._uninstall_hook = None
        self._stop_spinners = True
        vectors = self.rich_os.vector_table
        vectors.write_entry(
            IRQ_VECTOR_INDEX,
            vectors.original_entry(IRQ_VECTOR_INDEX),
            World.NORMAL,
        )
        self.installed = False

    # ------------------------------------------------------------------
    @property
    def trace_offset(self) -> int:
        """Image-relative offset of the vector-table attack trace."""
        return self.rich_os.vector_table.entry_offset(IRQ_VECTOR_INDEX)

    # ------------------------------------------------------------------
    def _on_tick(self, core: Core) -> float:
        """Reporter + comparer injected into the tick handler."""
        self.hook_invocations += 1
        cost = 0.0
        index = core.index
        if index in self.controller.target_cores or index in self.controller.observer_cores:
            self.controller.report(index)
            cost += self.config.report_cost
        if index in self.controller.observer_cores:
            self.controller.compare(index)
            cost += self.config.compare_cost
        return cost

    def _spinner_body(self, task: Task) -> Generator[Any, Any, None]:
        """CPU hog keeping its core out of NO_HZ idle."""
        while not self._stop_spinners:
            yield cpu(5e-4)
