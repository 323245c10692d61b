"""Pluggable executor backends behind one submit/poll/cancel/drain interface.

The one task supervisor for campaigns, chaos sweeps, ``repro report`` and
``repro serve``: an :class:`Executor` interface between the supervision
logic (retry budgets, quarantine, metrics, cancellation) and the
execution substrate.  Backends:

``inline``
    Serial in-process execution — the reference path every other backend
    must match bit-for-bit.  No timeout enforcement.
``fork``
    The crash-isolated fork pool: one OS process per worker slot
    (:class:`_WorkerSlot` running :func:`_worker_main`), per-trial
    timeout kill, respawn with deterministic backoff.
``queue``
    A file-system queue (:mod:`repro.service.queue`) drained by
    ``python -m repro worker --queue DIR`` processes, so many processes
    or machines can serve one sweep.

Every backend runs an attempt with :func:`run_attempt` and reports its
result through :meth:`ExecMessage.from_raw`.  A trial's ``Exception`` is
an ``error`` everywhere.  Inline, a ``KeyboardInterrupt`` cancels the run
and a ``SystemExit`` ends it; a worker process exists only to run trials,
so there any ``BaseException`` is the trial's ``error`` too.

All backends speak :class:`ExecMessage` and are driven by
:func:`execute_tasks`, which owns retries/quarantine and is the single
place cooperative cancellation (``cancel_event`` or ``KeyboardInterrupt``)
is handled.  Determinism contract: a backend affects only *where* a trial
runs, never its payload, so merged campaign results are backend-invariant.

Trial functions cross process boundaries as ``"module:function"`` paths
(:func:`resolve_function`).  The fork start method is preferred (workers
inherit the loaded simulator modules, so spin-up is milliseconds); spawn
is the fallback on platforms without fork.
"""

from __future__ import annotations

import importlib
import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CampaignError, ServiceError
from repro.service.jobs import check_backend

#: Supervision loop poll granularity, seconds.
_POLL_INTERVAL = 0.05

#: Default attempts per trial: the first run plus one retry.
DEFAULT_MAX_ATTEMPTS = 2

#: Respawn backoff: first cooldown after a kill, and the exponential cap.
#: A worker dying repeatedly (OOM storm, broken native dep) must not be
#: respawned in a tight loop — each consecutive crash doubles the cooldown.
DEFAULT_RESPAWN_BACKOFF_BASE = 0.25
DEFAULT_RESPAWN_BACKOFF_CAP = 10.0


def _respawn_backoff(key: str, crash_count: int, base: float, cap: float) -> float:
    """Capped exponential backoff with deterministic jitter.

    The jitter (up to +25%) is derived from ``sha256(key:crash_count)``
    rather than a live RNG, so a re-run of the same failing campaign
    produces the same cooldown schedule — wall-clock behaviour stays as
    reproducible as the trial results themselves.
    """
    delay = min(cap, base * (2.0 ** max(0, crash_count - 1)))
    digest = sha256(f"{key}:{crash_count}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    return min(cap, delay * (1.0 + 0.25 * fraction))


def resolve_function(path: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """Resolve a ``"package.module:function"`` path to a callable."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise CampaignError(f"bad trial-function path {path!r} (want 'module:function')")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise CampaignError(f"{module_name!r} has no attribute {attr!r}") from None


@dataclass
class TrialOutcome:
    """Final fate of one task after all attempts."""

    key: str
    status: str  # "ok" | "error" | "timeout" | "crashed"
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 0
    #: non-final failures absorbed by the retry budget, e.g. ["timeout"].
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_attempt(
    fn: Callable[[Dict[str, Any]], Dict[str, Any]], task: Dict[str, Any]
) -> Dict[str, Any]:
    """Run one attempt of ``task``; the raw result every backend reports.

    ``{"key", "ok", "elapsed"}`` plus the ``payload``, or the ``error``
    traceback when the trial raised an ``Exception``.  Any other
    ``BaseException`` propagates to the code that runs the process.
    """
    started = time.monotonic()
    try:
        payload = fn(task)
    except Exception:
        return failed_attempt(task, started)
    return {
        "key": task["key"], "ok": True, "payload": payload,
        "elapsed": time.monotonic() - started,
    }


def failed_attempt(task: Dict[str, Any], started: float) -> Dict[str, Any]:
    """The raw result of an attempt whose exception is being handled."""
    return {
        "key": task["key"], "ok": False,
        "error": traceback.format_exc(limit=20),
        "elapsed": time.monotonic() - started,
    }


def _worker_main(fn_path: str, task_queue, result_queue) -> None:
    """Worker loop: apply the trial function until a ``None`` sentinel."""
    fn = resolve_function(fn_path)
    while True:
        task = task_queue.get()
        if task is None:
            return
        started = time.monotonic()
        try:
            raw = run_attempt(fn, task)
        except BaseException:  # this process only runs trials
            raw = failed_attempt(task, started)
        result_queue.put(raw)


class _WorkerSlot:
    """One worker process plus its private task queue and current task."""

    def __init__(self, context, fn_path: str, result_queue) -> None:
        self._context = context
        self._fn_path = fn_path
        self._result_queue = result_queue
        self.task_queue = context.Queue()
        self.current: Optional[Dict[str, Any]] = None
        self.started_at = 0.0
        #: consecutive kills of this slot's process; reset by any clean
        #: result, drives the respawn cooldown.
        self.crash_count = 0
        self.cooldown_until = 0.0
        self._start_process()

    def _start_process(self) -> None:
        self.process = self._context.Process(
            target=_worker_main,
            args=(self._fn_path, self.task_queue, self._result_queue),
            daemon=True,
        )
        self.process.start()

    @property
    def busy(self) -> bool:
        return self.current is not None

    def assign(self, task: Dict[str, Any]) -> None:
        self.current = task
        self.started_at = time.monotonic()
        self.task_queue.put(task)

    def respawn(self) -> None:
        """Kill the current process (if needed) and start a fresh one."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=5.0)
        self.task_queue.close()
        self.task_queue = self._context.Queue()
        self.current = None
        self._start_process()

    def shutdown(self) -> None:
        try:
            self.task_queue.put(None)
        except (ValueError, OSError):  # pragma: no cover - queue closed
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")



@dataclass
class ExecMessage:
    """One finished attempt reported by a backend.

    ``kind`` is ``"ok"`` or a failure class (``"error"``, ``"timeout"``,
    ``"crashed"``); the supervision loop turns failure kinds into retries
    or quarantine according to the attempt budget.
    """

    key: str
    kind: str
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    @classmethod
    def from_raw(cls, raw: Dict[str, Any]) -> "ExecMessage":
        """The message for a :func:`run_attempt` result."""
        return cls(
            key=raw["key"],
            kind="ok" if raw.get("ok") else "error",
            payload=raw.get("payload"),
            error=raw.get("error"),
            elapsed=raw.get("elapsed", 0.0),
        )


class Executor:
    """Execution substrate interface: submit/poll/cancel/drain.

    Lifecycle: ``start(fn_path)`` once, then any number of ``submit``
    (guarded by ``has_capacity``) interleaved with ``poll``; ``cancel``
    abandons outstanding work; ``drain`` releases resources.  Executors
    are single-supervisor objects — they are not thread-safe and are not
    reused across runs.
    """

    name = "abstract"
    #: registry for the backend's own counters, or None.
    metrics: Optional[Any] = None

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def start(self, fn_path: str) -> None:
        raise NotImplementedError

    def has_capacity(self) -> bool:
        raise NotImplementedError

    def submit(self, task: Dict[str, Any]) -> None:
        raise NotImplementedError

    def poll(self, timeout: float) -> List[ExecMessage]:
        """Collect finished attempts, blocking at most ``timeout``."""
        raise NotImplementedError

    def cancel(self) -> None:
        """Abandon outstanding work (idempotent)."""

    def drain(self) -> None:
        """Release workers/resources (idempotent; called after cancel too)."""


# ---------------------------------------------------------------------------
# inline
# ---------------------------------------------------------------------------


class InlineExecutor(Executor):
    """Serial in-process execution: the deterministic reference backend."""

    name = "inline"

    def __init__(self) -> None:
        self._fn: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
        self._done: List[ExecMessage] = []

    def start(self, fn_path: str) -> None:
        self._fn = resolve_function(fn_path)

    def has_capacity(self) -> bool:
        return not self._done

    def submit(self, task: Dict[str, Any]) -> None:
        # KeyboardInterrupt propagates: a cooperative cancel for execute_tasks
        self._done.append(ExecMessage.from_raw(run_attempt(self._fn, task)))

    def poll(self, timeout: float) -> List[ExecMessage]:
        messages, self._done = self._done, []
        return messages


# ---------------------------------------------------------------------------
# fork
# ---------------------------------------------------------------------------


class ForkExecutor(Executor):
    """The crash-isolated fork pool.

    Worker slots (private task queue per process, shared result queue)
    grow lazily to ``jobs``; ``poll`` collects results, then polices
    timeouts and crashed workers into failure messages.  A slot whose
    process had to be killed cools down for :func:`_respawn_backoff`
    (the ``DEFAULT_RESPAWN_BACKOFF_*`` constants) before new work.
    """

    name = "fork"

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if jobs < 1:
            raise ServiceError(f"fork backend needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self.metrics = metrics
        self._context = None
        self._result_queue = None
        self._slots: List[_WorkerSlot] = []
        self._fn_path = ""

    def start(self, fn_path: str) -> None:
        resolve_function(fn_path)  # fail fast in the supervisor
        self._fn_path = fn_path
        self._context = _pool_context()
        self._result_queue = self._context.Queue()

    def _ensure_slot(self) -> Optional[_WorkerSlot]:
        """An idle, non-cooling slot — lazily growing the pool to ``jobs``."""
        now = time.monotonic()
        for slot in self._slots:
            if not slot.busy and now >= slot.cooldown_until:
                return slot
        if len(self._slots) < self.jobs:
            slot = _WorkerSlot(self._context, self._fn_path, self._result_queue)
            self._slots.append(slot)
            return slot
        return None

    def has_capacity(self) -> bool:
        return self._ensure_slot() is not None

    def submit(self, task: Dict[str, Any]) -> None:
        slot = self._ensure_slot()
        if slot is None:  # pragma: no cover - guarded by has_capacity
            raise ServiceError("fork executor has no idle worker slot")
        slot.assign(task)

    def _cool_down(self, slot: _WorkerSlot, key: str) -> None:
        slot.crash_count += 1
        delay = _respawn_backoff(
            key, slot.crash_count,
            DEFAULT_RESPAWN_BACKOFF_BASE, DEFAULT_RESPAWN_BACKOFF_CAP,
        )
        slot.cooldown_until = time.monotonic() + delay
        self._count("campaign.respawn_backoffs")
        if self.metrics is not None:
            self.metrics.histogram("campaign.respawn_backoff_seconds").observe(delay)

    def poll(self, timeout: float) -> List[ExecMessage]:
        messages: List[ExecMessage] = []

        def absorb(raw: Dict[str, Any]) -> None:
            key = raw["key"]
            slot = next(
                (s for s in self._slots if s.current and s.current["key"] == key),
                None,
            )
            if slot is None:
                return  # stale result from a worker we already gave up on
            slot.current = None
            slot.crash_count = 0  # any message proves the process is healthy
            messages.append(ExecMessage.from_raw(raw))

        try:
            absorb(self._result_queue.get(timeout=timeout))
            while True:  # drain without blocking
                absorb(self._result_queue.get_nowait())
        except queue_module.Empty:
            pass

        # Police the workers: timeouts first, then crashes.
        now = time.monotonic()
        for slot in self._slots:
            if not slot.busy:
                continue
            elapsed = now - slot.started_at
            if self.timeout is not None and elapsed > self.timeout:
                kind = "timeout"
                error = f"trial exceeded {self.timeout:g}s; worker killed"
            elif not slot.process.is_alive():
                kind = "crashed"
                error = f"worker died mid-trial (exitcode {slot.process.exitcode})"
            else:
                continue
            key = slot.current["key"]
            self._count("campaign.worker_respawns")
            slot.respawn()
            self._cool_down(slot, key)
            messages.append(
                ExecMessage(key=key, kind=kind, error=error, elapsed=elapsed)
            )
        return messages

    def cancel(self) -> None:
        for slot in self._slots:
            if slot.process.is_alive():
                slot.process.terminate()

    def drain(self) -> None:
        for slot in self._slots:
            slot.shutdown()
        self._slots = []
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None


# ---------------------------------------------------------------------------
# Supervision loop
# ---------------------------------------------------------------------------


def execute_tasks(
    tasks: List[Dict[str, Any]],
    fn_path: str,
    executor: Executor,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    on_final: Optional[Callable[[Dict[str, Any], TrialOutcome], None]] = None,
    on_retry: Optional[Callable[[Dict[str, Any], str], None]] = None,
    metrics: Optional[Any] = None,
    cancel_event: Optional[threading.Event] = None,
) -> Tuple[Dict[str, TrialOutcome], bool]:
    """Drive every task through ``executor``; returns ``(outcomes, cancelled)``.

    The supervision loop: dispatch to capacity, collect
    :class:`ExecMessage` results, re-dispatch failures until the attempt
    budget is spent, then finalize as quarantined.
    Setting ``cancel_event`` (or hitting the process with SIGINT) stops
    dispatch, cancels the executor, and returns the outcomes completed so
    far with ``cancelled=True`` — callers still merge and persist those.
    """
    keys = [t["key"] for t in tasks]
    if len(set(keys)) != len(keys):
        raise CampaignError("duplicate task keys in one executor run")
    if max_attempts < 1:
        raise CampaignError(f"max_attempts must be >= 1, got {max_attempts}")
    if not tasks:
        return {}, False

    pending: List[Dict[str, Any]] = list(tasks)
    attempts: Dict[str, int] = {key: 0 for key in keys}
    failures: Dict[str, List[str]] = {key: [] for key in keys}
    elapsed_total: Dict[str, float] = {key: 0.0 for key in keys}
    by_key: Dict[str, Dict[str, Any]] = {t["key"]: t for t in tasks}
    outcomes: Dict[str, TrialOutcome] = {}
    cancelled = False

    def count(name: str) -> None:
        if metrics is not None:
            metrics.counter(name).inc()

    def finalize(task: Dict[str, Any], outcome: TrialOutcome) -> None:
        outcomes[task["key"]] = outcome
        if on_final is not None:
            on_final(task, outcome)

    def handle(message: ExecMessage) -> None:
        key = message.key
        task = by_key.get(key)
        if task is None or key in outcomes:
            return  # stale or duplicate report
        elapsed_total[key] += message.elapsed
        if message.ok:
            finalize(
                task,
                TrialOutcome(
                    key=key, status="ok", payload=message.payload,
                    elapsed=elapsed_total[key], attempts=attempts[key],
                    failures=failures[key],
                ),
            )
            return
        failures[key].append(message.kind)
        if attempts[key] < max_attempts:
            if on_retry is not None:
                on_retry(task, message.kind)
            pending.append(task)
        else:
            finalize(
                task,
                TrialOutcome(
                    key=key, status=message.kind,
                    error=message.error or "unknown worker error",
                    elapsed=elapsed_total[key], attempts=attempts[key],
                    failures=failures[key][:-1],
                ),
            )

    executor.start(fn_path)
    try:
        while len(outcomes) < len(tasks):
            if cancel_event is not None and cancel_event.is_set():
                cancelled = True
                break
            while pending and executor.has_capacity():
                task = pending.pop(0)
                attempts[task["key"]] += 1
                count("campaign.pool_dispatches")
                executor.submit(task)
            for message in executor.poll(_POLL_INTERVAL):
                handle(message)
    except KeyboardInterrupt:
        cancelled = True
    finally:
        if cancelled:
            executor.cancel()
        executor.drain()
    return outcomes, cancelled


def make_executor(
    backend: str = "auto",
    jobs: int = 1,
    timeout: Optional[float] = None,
    metrics: Optional[Any] = None,
    queue_dir: Optional[str] = None,
) -> Executor:
    """Build the executor for a backend name.

    The name and the queue directory pass
    :func:`~repro.service.jobs.check_backend` first.  ``auto`` preserves the historical CLI semantics: ``jobs == 0`` means
    serial in-process, anything else the fork pool.  Negative ``jobs`` is
    rejected for every backend.
    """
    if jobs < 0:
        raise CampaignError(f"jobs must be >= 0, got {jobs}")
    check_backend(backend, queue_dir)
    if backend == "auto":
        backend = "inline" if jobs == 0 else "fork"
    if backend == "inline":
        return InlineExecutor()
    if backend == "fork":
        return ForkExecutor(jobs=max(1, jobs), timeout=timeout, metrics=metrics)
    from repro.service.queue import FileQueueExecutor

    return FileQueueExecutor(queue_dir, timeout=timeout, metrics=metrics)
