"""The user-level multi-thread prober (Section III-B1, Figure 2).

A plain (CFS-scheduled) process with one thread pinned to each core; no
kernel privilege required, hence fully stealthy — but its probing accuracy
suffers whenever competing threads of equal or higher priority share a
core, so its staleness threshold must be set much higher than
KProber-II's.  The paper measured ``Tns_delay < 5.97e-3 s`` at user level
against an ``8.04e-2 s`` whole-kernel integrity check — slow, but still
fast enough to defeat whole-kernel introspection (experiment E8).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from repro.attacks.oracle import ProberAccelerationOracle
from repro.attacks.prober import ProbeController, iter_probe_cores
from repro.config import ProberConfig
from repro.errors import AttackError
from repro.hw.platform import Machine
from repro.kernel.os import RichOS
from repro.kernel.threads import Task, pin_to
from repro.sim.process import cpu, sleep

#: Default user-level probe interval: coarser than KProber-II's Tsleep to
#: stay inconspicuous among ordinary CFS threads.
DEFAULT_USER_INTERVAL = 1e-3

#: Default user-level staleness threshold: must absorb CFS scheduling
#: latency on a loaded core, not just buffer-visibility noise.
DEFAULT_USER_THRESHOLD = 4e-3


class UserLevelProber:
    """Unprivileged multi-thread liveness prober."""

    def __init__(
        self,
        machine: Machine,
        rich_os: RichOS,
        config: Optional[ProberConfig] = None,
        observer_cores: Optional[Sequence[int]] = None,
        target_cores: Optional[Sequence[int]] = None,
        interval: float = DEFAULT_USER_INTERVAL,
        threshold: float = DEFAULT_USER_THRESHOLD,
        oracle: Optional[ProberAccelerationOracle] = None,
        record_staleness: bool = False,
    ) -> None:
        self.machine = machine
        self.rich_os = rich_os
        self.config = config if config is not None else machine.config.prober
        self.interval = interval
        self.controller = ProbeController(
            machine,
            self.config,
            observer_cores=iter_probe_cores(machine, observer_cores),
            target_cores=iter_probe_cores(machine, target_cores),
            threshold=threshold,
            record_staleness=record_staleness,
            expected_interval=interval,
        )
        self.oracle = oracle
        self.running = False
        # Armed probe loops observe scan timing chunk by chunk.
        machine.register_interference(lambda: self.running)
        self.threads: List[Task] = []
        self.iterations = 0

    # ------------------------------------------------------------------
    def install(self) -> "UserLevelProber":
        """Start the probe process: one CFS child thread per probed core."""
        if self.running:
            raise AttackError("user-level prober is already running")
        self.running = True
        cores = sorted(
            set(self.controller.observer_cores) | set(self.controller.target_cores)
        )
        for core_index in cores:
            compares = core_index in self.controller.observer_cores
            self.threads.append(
                self.rich_os.spawn(
                    f"uprober-{core_index}",
                    self._make_body(core_index, compares),
                    affinity=pin_to(core_index),
                )
            )
        return self

    def uninstall(self) -> None:
        self.running = False

    # ------------------------------------------------------------------
    def _make_body(self, core_index: int, compares: bool):
        draw_jitter = self.machine.rng.sampler(
            f"uprober.jitter.{core_index}", self.config.wake_jitter
        )

        def body(task: Task) -> Generator[Any, Any, None]:
            cfg = self.config
            controller = self.controller
            while self.running:
                yield cpu(cfg.report_cost)
                controller.report(core_index)
                if compares:
                    yield cpu(cfg.compare_cost)
                    controller.compare(core_index)
                self.iterations += 1
                pause = self.interval + draw_jitter()
                if self.oracle is not None:
                    pause = self.oracle.adjust(pause)
                yield sleep(pause)

        return body
