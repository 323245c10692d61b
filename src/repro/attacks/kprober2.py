"""KProber-II: the SCHED_FIFO kernel-level prober (Section III-C2).

After obtaining root, the attacker schedules its Time Reporter / Time
Comparer threads with ``SCHED_FIFO`` at
``sched_get_priority_max(SCHED_FIFO)``: they preempt every CFS thread and
any lower-priority RT thread the instant they wake, so each probe iteration
runs within microseconds of its timer expiry regardless of system load.
One thread is pinned to every probed core; the loop sleeps
``Tsleep = 2e-4 s`` between iterations (Section IV-A1).

Unlike KProber-I, this option modifies *no* kernel static memory — there is
no preparation trace for introspection to find.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from repro.attacks.oracle import ProberAccelerationOracle
from repro.attacks.prober import ProbeController, iter_probe_cores
from repro.config import ProberConfig
from repro.errors import AttackError
from repro.hw.platform import Machine
from repro.kernel.os import RichOS
from repro.kernel.threads import FIFO_PRIORITY_MAX, Task, pin_to
from repro.sim.process import cpu, sleep


class KProberII:
    """Real-time-scheduler-based prober."""

    def __init__(
        self,
        machine: Machine,
        rich_os: RichOS,
        config: Optional[ProberConfig] = None,
        observer_cores: Optional[Sequence[int]] = None,
        target_cores: Optional[Sequence[int]] = None,
        threshold: Optional[float] = None,
        oracle: Optional[ProberAccelerationOracle] = None,
        priority: int = FIFO_PRIORITY_MAX,
        record_staleness: bool = False,
    ) -> None:
        self.machine = machine
        self.rich_os = rich_os
        self.config = config if config is not None else machine.config.prober
        self.controller = ProbeController(
            machine,
            self.config,
            observer_cores=iter_probe_cores(machine, observer_cores),
            target_cores=iter_probe_cores(machine, target_cores),
            threshold=threshold,
            record_staleness=record_staleness,
        )
        self.oracle = oracle
        self.priority = priority
        self.running = False
        # Armed probe threads observe scan timing chunk by chunk.
        machine.register_interference(lambda: self.running)
        self.threads: List[Task] = []
        self.iterations = 0

    # ------------------------------------------------------------------
    def install(self) -> "KProberII":
        """Spawn one pinned FIFO thread per probed core."""
        if self.running:
            raise AttackError("KProber-II is already installed")
        self.running = True
        cores = sorted(
            set(self.controller.observer_cores) | set(self.controller.target_cores)
        )
        for core_index in cores:
            compares = core_index in self.controller.observer_cores
            self.threads.append(
                self.rich_os.spawn_realtime(
                    f"kprober2-{core_index}",
                    self._make_body(core_index, compares),
                    priority=self.priority,
                    affinity=pin_to(core_index),
                )
            )
        return self

    def uninstall(self) -> None:
        """Signal all threads to exit at their next iteration."""
        self.running = False

    # ------------------------------------------------------------------
    def _make_body(self, core_index: int, compares: bool):
        draw_jitter = self.machine.rng.sampler(
            f"kprober2.jitter.{core_index}", self.config.wake_jitter
        )

        def body(task: Task) -> Generator[Any, Any, None]:
            cfg = self.config
            controller = self.controller
            # The scheduler only reads a CpuRequest, so the two fixed-cost
            # requests can be allocated once per thread, not per iteration.
            report_req = cpu(cfg.report_cost)
            compare_req = cpu(cfg.compare_cost)
            tsleep = cfg.tsleep
            while self.running:
                yield report_req
                controller.report(core_index)
                if compares:
                    yield compare_req
                    controller.compare(core_index)
                self.iterations += 1
                interval = tsleep + draw_jitter()
                if self.oracle is not None:
                    interval = self.oracle.adjust(interval)
                yield sleep(interval)

        return body
