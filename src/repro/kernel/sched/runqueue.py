"""Per-core run queues with two scheduling classes.

Mirrors the Linux structure the paper's probers depend on: a SCHED_FIFO
real-time class that always beats the fair (CFS) class, and a fair class
that picks the smallest virtual runtime.  KProber-II's reliability comes
precisely from sitting at the top of the FIFO class.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulingError
from repro.kernel.threads import Task
from repro.sim.events import Event


class CoreRunQueue:
    """Runnable tasks waiting for (or holding) one core."""

    __slots__ = (
        "core_index", "cfs", "fifo", "current",
        "quantum_event", "quantum_started", "quantum_cpu",
        "cfs_clock", "busy_reported",
    )

    def __init__(self, core_index: int) -> None:
        self.core_index = core_index
        self.cfs: List[Task] = []
        self.fifo: List[Task] = []
        self.current: Optional[Task] = None
        #: event firing when the running task's quantum expires.
        self.quantum_event: Optional[Event] = None
        #: wall time at which the current quantum's CPU consumption starts
        #: (shifted forward by interrupt time steals).
        self.quantum_started = 0.0
        #: CPU seconds granted to the current quantum.
        self.quantum_cpu = 0.0
        #: monotone lower bound for newly enqueued CFS vruntimes.
        self.cfs_clock = 0.0
        #: last busy/idle state reported to listeners (tick management).
        self.busy_reported = False

    # ------------------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        if task is self.current:
            raise SchedulingError(f"task {task.tid} enqueued while current")
        if task.is_fifo:
            if task in self.fifo:
                raise SchedulingError(f"task {task.tid} double-enqueued (fifo)")
            self.fifo.append(task)
        else:
            if task in self.cfs:
                raise SchedulingError(f"task {task.tid} double-enqueued (cfs)")
            # CFS: never let a sleeper return with an ancient vruntime and
            # monopolise the core.
            task.vruntime = max(task.vruntime, self.cfs_clock)
            self.cfs.append(task)
        task.core_index = self.core_index

    def pick_next(self) -> Optional[Task]:
        """Remove and return the next task: FIFO (highest prio) before CFS."""
        if self.fifo:
            best_index = 0
            best_prio = self.fifo[0].priority
            for i in range(1, len(self.fifo)):
                if self.fifo[i].priority > best_prio:
                    best_index, best_prio = i, self.fifo[i].priority
            return self.fifo.pop(best_index)
        if self.cfs:
            best_index = 0
            best_vr = self.cfs[0].vruntime
            for i in range(1, len(self.cfs)):
                if self.cfs[i].vruntime < best_vr:
                    best_index, best_vr = i, self.cfs[i].vruntime
            return self.cfs.pop(best_index)
        return None

    def remove(self, task: Task) -> None:
        """Drop a queued task (e.g. migrated elsewhere)."""
        if task in self.fifo:
            self.fifo.remove(task)
        elif task in self.cfs:
            self.cfs.remove(task)

    # ------------------------------------------------------------------
    @property
    def queued_count(self) -> int:
        # Inlined copy: RichScheduler._should_requeue.
        return len(self.cfs) + len(self.fifo)

    @property
    def load(self) -> int:
        """Queued plus running task count (core selection metric)."""
        return self.queued_count + (1 if self.current is not None else 0)

    @property
    def busy(self) -> bool:
        """Does this core need a scheduling-clock tick right now?"""
        # Inlined copy: RichScheduler._report_busy.
        return self.current is not None or self.queued_count > 0

    def max_fifo_priority(self) -> Optional[int]:
        if not self.fifo:
            return None
        return max(task.priority for task in self.fifo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cur = self.current.tid if self.current else None
        return (
            f"<RunQueue core={self.core_index} current={cur} "
            f"fifo={len(self.fifo)} cfs={len(self.cfs)}>"
        )
