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

from typing import Optional, Sequence

from repro.attacks.oracle import ProberAccelerationOracle
from repro.attacks.prober import ProbeThreads
from repro.config import ProberConfig
from repro.hw.platform import Machine
from repro.kernel.os import RichOS

#: Default user-level probe interval: coarser than KProber-II's Tsleep to
#: stay inconspicuous among ordinary CFS threads.
DEFAULT_USER_INTERVAL = 1e-3

#: Default user-level staleness threshold: must absorb CFS scheduling
#: latency on a loaded core, not just buffer-visibility noise.
DEFAULT_USER_THRESHOLD = 4e-3


class UserLevelProber(ProbeThreads):
    """Unprivileged multi-thread liveness prober."""

    prefix = "uprober"

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
        super().__init__(
            machine, rich_os, config, observer_cores, target_cores,
            interval=interval, threshold=threshold, oracle=oracle,
            priority=0, record_staleness=record_staleness,
        )
