"""Task control blocks for the rich OS scheduler.

A task's behaviour is a generator (see :mod:`repro.sim.process`): it yields
``cpu(seconds)`` to compute, ``sleep(seconds)`` to block on a timer, and
``wait(signal)`` to block on an event.  The scheduler interprets these
requests; CPU time is contended, preemptible and charged against the task.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, FrozenSet, Generator, Optional

from repro.sim.process import Signal

#: A task body: receives its Task and yields scheduling requests.
TaskBody = Callable[["Task"], Generator[Any, Any, Any]]

_tid_counter = itertools.count(1)


class TaskState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    EXITED = "exited"


class SchedPolicy(enum.Enum):
    """Scheduling class: CFS (default) or SCHED_FIFO real-time."""

    CFS = "cfs"
    FIFO = "fifo"


#: Highest SCHED_FIFO priority (sched_get_priority_max(SCHED_FIFO)).
FIFO_PRIORITY_MAX = 99

#: Default CFS nice-0 weight (Linux's NICE_0_LOAD scale, simplified).
CFS_DEFAULT_WEIGHT = 1024


class Task:
    """One schedulable thread of the rich OS."""

    __slots__ = (
        "tid", "name", "body", "policy", "priority", "weight", "affinity",
        "pinned_core", "is_fifo",
        "state", "core_index", "gen",
        "vruntime", "cpu_remaining", "has_cpu_request", "pending_send",
        "penalty_pending",
        "total_cpu", "dispatch_count", "preempt_count", "secure_preempt_count",
        "sleep_count", "exit_value", "exited_signal", "wake_event",
    )

    def __init__(
        self,
        name: str,
        body: TaskBody,
        policy: SchedPolicy = SchedPolicy.CFS,
        priority: int = 0,
        weight: int = CFS_DEFAULT_WEIGHT,
        affinity: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.tid = next(_tid_counter)
        self.name = name
        self.body = body
        self.policy = policy
        #: scheduling class never changes after construction; a plain bool
        #: keeps the dispatcher's hottest branch off the property protocol.
        self.is_fifo = policy is SchedPolicy.FIFO
        self.priority = priority
        self.weight = weight
        #: allowed cores; None means any core (sched_setaffinity semantics).
        self.affinity = affinity
        #: the sole allowed core of a single-core mask, else None; the
        #: scheduler places such a task without consulting the mask.
        self.pinned_core: Optional[int] = (
            next(iter(affinity)) if affinity is not None and len(affinity) == 1
            else None
        )
        self.state = TaskState.NEW
        #: core the task is queued on / running on; None before first wake.
        self.core_index: Optional[int] = None
        self.gen: Optional[Generator[Any, Any, Any]] = None
        # --- scheduling bookkeeping --------------------------------------
        self.vruntime = 0.0
        self.cpu_remaining = 0.0
        self.has_cpu_request = False
        self.pending_send: Any = None
        #: pay a cache-refill penalty at next dispatch (set on preemption).
        self.penalty_pending = False
        # --- statistics ---------------------------------------------------
        self.total_cpu = 0.0
        self.dispatch_count = 0
        self.preempt_count = 0
        self.secure_preempt_count = 0
        self.sleep_count = 0
        self.exit_value: Any = None
        self.exited_signal = Signal(f"task-{self.tid}-exit")
        self.wake_event = None  # pending sleep-wake simulator event

    # ------------------------------------------------------------------
    def ensure_started(self) -> None:
        """Instantiate the generator on first dispatch."""
        if self.gen is None:
            self.gen = self.body(self)

    def allowed_on(self, core_index: int) -> bool:
        return self.affinity is None or core_index in self.affinity

    @property
    def alive(self) -> bool:
        return self.state is not TaskState.EXITED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Task {self.tid} {self.name!r} {self.policy.value} "
            f"{self.state.value} core={self.core_index}>"
        )


def pin_to(core_index: int) -> FrozenSet[int]:
    """Affinity mask pinning a task to a single core."""
    return frozenset((core_index,))
