"""The rich OS scheduler.

Executes task generators on the simulated cores, honouring:

* **CPU affinity** — a pinned task never migrates; when its core is taken
  into the secure world the task simply freezes, which is the side channel
  every prober in the paper exploits.
* **Scheduling classes** — SCHED_FIFO beats CFS; a waking FIFO task
  preempts a running CFS task immediately (KProber-II's guarantee).
* **Preemption accounting** — tasks preempted by a secure-world entry pay a
  cache-refill penalty on resume and are counted separately; the Figure 7
  overhead experiment reads these numbers.
* **Interrupt time stealing** — tick/IRQ handler time extends the running
  task's wall-clock quantum without crediting it CPU progress.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import SchedulingError, SimulationError
from repro.hw.core import Core
from repro.hw.platform import Machine
from repro.hw.world import World
from repro.kernel.sched.runqueue import CoreRunQueue
from repro.kernel.threads import SchedPolicy, Task, TaskState
from repro.sim.process import CpuRequest, SleepRequest, WaitRequest

#: CPU remainders below this are treated as complete (float dust).
_EPSILON = 1e-15

#: Listener signature for busy/idle transitions: (core_index, busy).
BusyListener = Callable[[int, bool], None]

# Module-level aliases: the dispatch path tests these once or more per event.
_NORMAL = World.NORMAL
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_SLEEPING = TaskState.SLEEPING


class RichScheduler:
    """Per-core two-class scheduler over the simulated machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.trace = machine.trace
        kcfg = machine.config.kernel
        self.cfs_slice = kcfg.cfs_slice
        self.run_queues = [CoreRunQueue(core.index) for core in machine.cores]
        #: core objects indexed by core_index — dispatch-path shortcut for
        #: ``machine.cores[...]``.
        self._core_of = list(machine.cores)
        self._busy_listeners: List[BusyListener] = []
        self.tasks: List[Task] = []
        for core in machine.cores:
            core.on_enter_secure.append(self._on_enter_secure)
            core.on_exit_secure.append(self._on_exit_secure)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def spawn(self, task: Task, core_index: Optional[int] = None) -> Task:
        """Make a new task runnable (clone()/pthread_create equivalent)."""
        if task.state is not TaskState.NEW:
            raise SchedulingError(f"task {task.tid} spawned twice")
        self.tasks.append(task)
        if core_index is not None:
            if not task.allowed_on(core_index):
                raise SchedulingError(
                    f"task {task.tid} affinity excludes core {core_index}"
                )
            task.core_index = core_index
        self.wake(task)
        return task

    def wake(self, task: Task, send_value: Any = None) -> None:
        """Transition a sleeping/blocked/new task to READY and place it."""
        state = task.state
        if state is _READY or state is _RUNNING:
            return
        if state is TaskState.EXITED:
            raise SchedulingError(f"cannot wake exited task {task.tid}")
        if send_value is not None:
            task.pending_send = send_value
        task.state = _READY
        pinned = task.pinned_core
        # A pinned task (every prober thread) has exactly one queue.
        rq = (
            self.run_queues[pinned] if pinned is not None
            else self._choose_queue(task)
        )
        rq.enqueue(task)
        self._report_busy(rq)
        core = self._core_of[rq.core_index]
        if core.world is not _NORMAL or core.transitioning:
            return  # core held by the secure world: the task waits queued
        current = rq.current
        if current is None:
            self._dispatch(rq)
        elif task.is_fifo and (
            not current.is_fifo or current.priority < task.priority
        ):
            # Real-time wake-up preemption: the paper's KProber-II path.
            self._preempt_current(rq, secure=False)
            self._dispatch(rq)

    def add_busy_listener(self, listener: BusyListener) -> None:
        """Subscribe to per-core busy/idle transitions (tick management)."""
        self._busy_listeners.append(listener)
        # Report current state so late subscribers start consistent.
        for rq in self.run_queues:
            listener(rq.core_index, rq.busy)

    def busy(self, core_index: int) -> bool:
        return self.run_queues[core_index].busy

    def current_task(self, core_index: int) -> Optional[Task]:
        return self.run_queues[core_index].current

    # ------------------------------------------------------------------
    # Interrupt integration
    # ------------------------------------------------------------------
    def steal_time(self, core_index: int, cost: float) -> None:
        """Account interrupt-handler time against the running quantum."""
        if cost <= 0:
            return
        rq = self.run_queues[core_index]
        event = rq.quantum_event
        if rq.current is None or event is None or not event.pending:
            return
        remaining_wall = max(event.time - self.sim.now, 0.0)
        event.cancel()
        rq.quantum_event = self.sim.schedule(
            remaining_wall + cost, self._quantum_end, rq, rq.current
        )
        rq.quantum_started += cost

    def tick(self, core_index: int) -> None:
        """Scheduling-clock tick: currently only CFS overrun protection."""
        rq = self.run_queues[core_index]
        task = rq.current
        if task is None or task.is_fifo:
            return
        # If a quantum somehow exceeds the slice (e.g. after steals) and
        # other fair tasks wait, force a round-robin switch.
        ran = self.sim.now - rq.quantum_started
        if rq.cfs and ran > self.cfs_slice:
            self._preempt_current(rq, secure=False)
            self._dispatch(rq)

    # ------------------------------------------------------------------
    # Secure-world hooks
    # ------------------------------------------------------------------
    def _on_enter_secure(self, core: Core) -> None:
        rq = self.run_queues[core.index]
        task = rq.current
        if task is not None:
            task.secure_preempt_count += 1
        self._preempt_current(rq, secure=True)

    def _on_exit_secure(self, core: Core) -> None:
        self._dispatch(self.run_queues[core.index])

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _choose_queue(self, task: Task) -> CoreRunQueue:
        allowed = [
            rq for rq in self.run_queues if task.allowed_on(rq.core_index)
        ]
        if not allowed:
            raise SchedulingError(f"task {task.tid} has an empty affinity mask")
        if len(allowed) == 1:
            return allowed[0]
        # Prefer the previous core when it is reasonably placed (cache
        # affinity), otherwise the least loaded *available* core.
        available = [
            rq for rq in allowed
            if self.machine.cores[rq.core_index].available_to_normal_world
        ]
        candidates = available if available else allowed
        if task.core_index is not None:
            for rq in candidates:
                if rq.core_index == task.core_index and rq.load == 0:
                    return rq
        return min(candidates, key=lambda rq: (rq.load, rq.core_index))

    # ------------------------------------------------------------------
    # Dispatch / quantum machinery
    # ------------------------------------------------------------------
    def _dispatch(self, rq: CoreRunQueue) -> None:
        """Run the next runnable task if the core is idle and the normal
        world owns it.

        Returns at once, without reporting, when a task is current or the
        secure world holds the core.  Otherwise it picks tasks until one
        holds a CPU request or the queue is empty, and reports the queue's
        busy state with :meth:`_report_busy` before it returns.
        """
        if rq.current is not None:
            return
        core = self._core_of[rq.core_index]
        if core.world is not _NORMAL or core.transitioning:
            return
        while True:
            task = rq.pick_next()
            if task is None:
                self._report_busy(rq)
                return
            rq.current = task
            task.state = _RUNNING
            task.core_index = rq.core_index
            task.dispatch_count += 1
            if task.gen is None:
                task.ensure_started()
            if self._advance_until_cpu(rq, task):
                self._begin_quantum(rq, task, new_dispatch=True)
                self._report_busy(rq)
                return
            # Task blocked/slept/exited during advance; pick another.
            if rq.current is task:
                rq.current = None

    def _advance_until_cpu(self, rq: CoreRunQueue, task: Task) -> bool:
        """Run the generator until it owns a CPU request or goes unrunnable.

        Returns True when the task holds a CPU request and should execute;
        False when it slept, blocked, or exited (caller re-dispatches).
        The generator must already be started (see :meth:`_dispatch`).
        """
        while not task.has_cpu_request:
            send_value, task.pending_send = task.pending_send, None
            try:
                request = task.gen.send(send_value)
            except StopIteration as stop:
                self._task_exited(rq, task, stop.value)
                return False
            if isinstance(request, CpuRequest):
                if request.seconds <= _EPSILON:
                    continue  # zero-cost request completes instantly
                task.cpu_remaining = request.seconds
                task.has_cpu_request = True
            elif isinstance(request, SleepRequest):
                task.state = _SLEEPING
                task.sleep_count += 1
                if rq.current is task:
                    rq.current = None
                task.wake_event = self.sim.schedule(
                    request.seconds, self._sleep_done, task
                )
                return False
            elif isinstance(request, WaitRequest):
                task.state = TaskState.BLOCKED
                if rq.current is task:
                    rq.current = None
                request.signal.add_waiter(
                    lambda payload, t=task: self.wake(t, payload)
                )
                return False
            else:
                raise SimulationError(
                    f"task {task.tid} yielded unknown request {request!r}"
                )
        return True

    def _begin_quantum(self, rq: CoreRunQueue, task: Task, new_dispatch: bool) -> None:
        core = self._core_of[rq.core_index]
        delay = 0.0
        if new_dispatch:
            delay += core.perf.dispatch()
            if task.penalty_pending:
                delay += core.perf.preemption_penalty()
                task.penalty_pending = False
        quantum = task.cpu_remaining if task.is_fifo else min(
            task.cpu_remaining, self.cfs_slice
        )
        rq.quantum_started = self.sim.now + delay
        rq.quantum_cpu = quantum
        rq.quantum_event = self.sim.schedule(
            delay + quantum, self._quantum_end, rq, task
        )

    def _quantum_end(self, rq: CoreRunQueue, task: Task) -> None:
        if rq.current is not task:
            return  # stale event (task was preempted meanwhile)
        rq.quantum_event = None
        self._charge(rq, task, rq.quantum_cpu)
        if task.cpu_remaining <= _EPSILON:
            task.has_cpu_request = False
            task.cpu_remaining = 0.0
            if not self._advance_until_cpu(rq, task):
                # No _report_busy after this _dispatch.  The task just gave
                # up the core; a task it woke on the way that took the core
                # was reported by that wake's own _dispatch.  Otherwise none
                # is current, and since a task body does not start a secure
                # entry on its own core while it advances, the normal world
                # still owns the core, so _dispatch reports the queue itself.
                self._dispatch(rq)
                return
        if self._should_requeue(rq, task):
            task.state = _READY
            task.preempt_count += 1
            rq.current = None
            rq.enqueue(task)
            self._dispatch(rq)
        else:
            self._begin_quantum(rq, task, new_dispatch=False)

    def _should_requeue(self, rq: CoreRunQueue, task: Task) -> bool:
        if task.is_fifo:
            if not rq.fifo:
                return False  # only a waiting FIFO task can outrank it
            return rq.max_fifo_priority() > task.priority
        return bool(rq.cfs or rq.fifo)

    def _preempt_current(self, rq: CoreRunQueue, secure: bool) -> None:
        task = rq.current
        if task is None:
            return
        event = rq.quantum_event
        if event is not None:
            event.cancel()
            rq.quantum_event = None
        # min(max(ran, 0.0), quantum_cpu) as comparisons: same operand
        # returned in every case, signed zeros and NaN included.
        elapsed = self.sim.now - rq.quantum_started
        if elapsed < 0.0:
            elapsed = 0.0
        if rq.quantum_cpu < elapsed:
            elapsed = rq.quantum_cpu
        self._charge(rq, task, elapsed)
        if task.cpu_remaining <= _EPSILON:
            task.has_cpu_request = False
            task.cpu_remaining = 0.0
        task.preempt_count += 1
        task.penalty_pending = True
        task.state = _READY
        rq.current = None
        rq.enqueue(task)
        if not secure:
            self._report_busy(rq)

    def _charge(self, rq: CoreRunQueue, task: Task, cpu_seconds: float) -> None:
        if cpu_seconds <= 0:
            return
        task.total_cpu += cpu_seconds
        # max(x, 0.0) keeps x unless 0.0 > x; the comparison form returns the
        # same operand (-0.0 and NaN pass through) without a builtin call.
        remaining = task.cpu_remaining - cpu_seconds
        task.cpu_remaining = 0.0 if remaining < 0.0 else remaining
        if not task.is_fifo:
            task.vruntime += cpu_seconds * (1024.0 / task.weight)
            if task.vruntime > rq.cfs_clock:
                rq.cfs_clock = task.vruntime

    def _sleep_done(self, task: Task) -> None:
        task.wake_event = None
        if task.state is _SLEEPING:
            self.wake(task)

    def _task_exited(self, rq: CoreRunQueue, task: Task, value: Any) -> None:
        task.state = TaskState.EXITED
        task.exit_value = value
        if rq.current is task:
            rq.current = None
        task.exited_signal.fire(value)
        self.trace.emit(self.sim.now, "sched", "task exited",
                        tid=task.tid, name=task.name)

    # ------------------------------------------------------------------
    def _report_busy(self, rq: CoreRunQueue) -> None:
        # CoreRunQueue.busy, tested on the plain attributes.
        busy = not (rq.current is None and not rq.fifo and not rq.cfs)
        if busy == rq.busy_reported:
            return
        rq.busy_reported = busy
        for listener in self._busy_listeners:
            listener(rq.core_index, busy)
