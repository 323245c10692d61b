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

from typing import Optional, Sequence

from repro.attacks.oracle import ProberAccelerationOracle
from repro.attacks.prober import ProbeThreads
from repro.config import ProberConfig
from repro.hw.platform import Machine
from repro.kernel.os import RichOS
from repro.kernel.threads import FIFO_PRIORITY_MAX, SchedPolicy


class KProberII(ProbeThreads):
    """Real-time-scheduler-based prober."""

    prefix = "kprober2"
    policy = SchedPolicy.FIFO

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
        super().__init__(
            machine, rich_os, config, observer_cores, target_cores,
            interval=None, threshold=threshold, oracle=oracle,
            priority=priority, record_staleness=record_staleness,
        )
