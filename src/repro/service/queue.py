"""File-system task queue: many worker processes drain one sweep.

Queue layout (any shared directory — local disk, NFS, ...)::

    <queue>/
        tasks/<key>.json        submitted work (task dict + trial-fn path)
        claimed/<key>.json      work a worker has taken (atomic rename claim)
        claimed/<key>.lease.json  the claim's lease: TTL + heartbeat renewals
        results/<key>.json      finished attempts (tmp-file + rename, atomic)
        control/stop            polite shutdown marker for workers

Claiming is an atomic ``rename(tasks/k.json, claimed/k.json)`` — on POSIX
exactly one worker wins, which is the whole concurrency story: no locks,
no daemons, and the queue directory is inspectable with ``ls``.  Results
are written to a temp file, renamed in, and the directory is fsync'd, so
a reader never sees a torn JSON document and a host crash cannot lose a
"committed" file.

Crash/stall recovery is lease-based: a claim carries a lease with a TTL
that the worker renews from a heartbeat thread while the trial runs.  The
supervisor reclaims a claim whose lease expired (worker SIGKILLed, host
lost) by moving it back into ``tasks/`` — *at-least-once* delivery.  That
is safe because trial results are idempotent: they are content-addressed
by config/seed digest in the result store, so a re-run writes the same
record, and a late result from the presumed-dead worker is detected and
dropped (counted as ``queue.duplicate_results``).  The hard timeout
(trial timeout + grace) remains the attempt-level backstop.

``python -m repro worker --queue DIR`` runs :func:`run_worker`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
import warnings
from typing import Any, Dict, List, Optional, Set

from repro.durable import atomic_write_json, is_tmp_for
from repro.errors import ServiceError
from repro.service.executors import ExecMessage, Executor, resolve_function

#: Seconds past the trial timeout before a claim counts as abandoned.
CLAIM_GRACE = 30.0

#: Default lease TTL: a worker heartbeats every TTL/3, so an expired
#: lease means the worker missed three consecutive renewals (dead or
#: badly stalled), not just one slow trial.
LEASE_TTL = 30.0

#: A ``control/stop`` sentinel older than this is considered stale debris
#: from a crashed ``stop_workers`` and is cleared by new workers, so an
#: abandoned shutdown cannot brick the queue forever.
STALE_STOP_SECONDS = 600.0

#: Worker poll cadence when the tasks directory is empty.
_IDLE_POLL = 0.05

_SUBDIRS = ("tasks", "claimed", "results", "control")


def ensure_queue(
    queue_dir: str, stale_stop_after: Optional[float] = None
) -> str:
    """Create the queue directory structure (idempotent).

    With ``stale_stop_after`` set, a ``control/stop`` sentinel older than
    that many seconds is removed — it outlived any plausible shutdown and
    would otherwise make every future worker exit on arrival.
    """
    for name in _SUBDIRS:
        os.makedirs(os.path.join(queue_dir, name), exist_ok=True)
    if stale_stop_after is not None:
        stop_path = os.path.join(queue_dir, "control", "stop")
        try:
            age = time.time() - os.path.getmtime(stop_path)
        except OSError:
            age = None
        if age is not None and age > stale_stop_after:
            warnings.warn(
                f"clearing stale stop sentinel ({age:.0f}s old) in "
                f"{queue_dir!r} — a previous stop_workers never cleaned up",
                RuntimeWarning,
                stacklevel=2,
            )
            clear_stop(queue_dir)
    return queue_dir


def enqueue_task(queue_dir: str, task: Dict[str, Any], fn_path: str) -> str:
    """Publish one task; returns its file path."""
    path = os.path.join(queue_dir, "tasks", f"{task['key']}.json")
    atomic_write_json(path, {"task": task, "fn_path": fn_path})
    return path


def claim_next(queue_dir: str) -> Optional[str]:
    """Atomically claim the oldest visible task; returns the claimed path."""
    tasks_dir = os.path.join(queue_dir, "tasks")
    try:
        names = sorted(
            name for name in os.listdir(tasks_dir) if name.endswith(".json")
        )
    except FileNotFoundError:
        return None
    for name in names:
        source = os.path.join(tasks_dir, name)
        target = os.path.join(queue_dir, "claimed", name)
        try:
            os.rename(source, target)
        except (FileNotFoundError, OSError):
            continue  # another worker won the rename race
        # A rename keeps the task's enqueue mtime, and the supervisor
        # judges a claim without a lease by its mtime: start that clock now.
        try:
            os.utime(target)
        except FileNotFoundError:
            continue  # reclaimed in the window; claim the next one
        return target
    return None


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------


def lease_path(queue_dir: str, key: str) -> str:
    return os.path.join(queue_dir, "claimed", f"{key}.lease.json")


def write_lease(
    queue_dir: str, key: str, ttl: float, worker: Optional[int] = None
) -> None:
    """(Re)write the lease for a claimed task; wall-clock expiry.

    Wall time (not monotonic) because the supervisor and the worker may
    be different processes on different machines sharing the queue.
    """
    now = time.time()
    atomic_write_json(
        lease_path(queue_dir, key),
        {
            "worker": worker if worker is not None else os.getpid(),
            "ttl": ttl,
            "renewed_unix": now,
            "expires_unix": now + ttl,
        },
    )


def read_lease(queue_dir: str, key: str) -> Optional[Dict[str, Any]]:
    """The claim's lease, or None when absent/torn (treated as expired)."""
    try:
        with open(lease_path(queue_dir, key), "r", encoding="utf-8") as handle:
            lease = json.load(handle)
    except (FileNotFoundError, ValueError, OSError):
        return None
    return lease if isinstance(lease, dict) else None


def clear_lease(queue_dir: str, key: str) -> None:
    """Remove the lease and any temp file a killed lease write left behind."""
    claimed_dir, lease = os.path.split(lease_path(queue_dir, key))
    try:
        names = os.listdir(claimed_dir)
    except FileNotFoundError:
        return
    for name in names:
        if name == lease or is_tmp_for(name, lease):
            try:
                os.remove(os.path.join(claimed_dir, name))
            except FileNotFoundError:
                pass


def _heartbeat(
    queue_dir: str,
    key: str,
    claimed_path: str,
    ttl: float,
    stop: threading.Event,
) -> None:
    """Renew the lease every TTL/3 until the task finishes.

    Stops renewing the moment the claim file disappears — that means the
    supervisor reclaimed it (this worker looked dead) and the task now
    belongs to someone else; finishing quietly avoids fighting over it.
    """
    interval = max(0.01, ttl / 3.0)
    while not stop.wait(interval):
        if not os.path.exists(claimed_path):
            return
        try:
            write_lease(queue_dir, key, ttl)
        except OSError:
            return


def write_result(queue_dir: str, key: str, message: Dict[str, Any]) -> bool:
    """Publish one attempt's result; True when a result already existed.

    An existing result means another attempt of the same task finished
    first (this worker's lease was reclaimed mid-run) — the write still
    happens (results are idempotent, keyed by config/seed digest), but
    the caller can count the duplicate.
    """
    path = os.path.join(queue_dir, "results", f"{key}.json")
    existed = os.path.exists(path)
    atomic_write_json(path, message)
    return existed


def stop_workers(queue_dir: str) -> None:
    """Ask every worker on this queue to exit after its current task."""
    atomic_write_json(os.path.join(queue_dir, "control", "stop"), {"stop": True})


def clear_stop(queue_dir: str) -> None:
    try:
        os.remove(os.path.join(queue_dir, "control", "stop"))
    except FileNotFoundError:
        pass


def _stop_requested(queue_dir: str) -> bool:
    return os.path.exists(os.path.join(queue_dir, "control", "stop"))


def run_worker(
    queue_dir: str,
    max_idle: Optional[float] = None,
    max_tasks: Optional[int] = None,
    stop_event: Optional[threading.Event] = None,
    progress=None,
    lease_ttl: float = LEASE_TTL,
) -> int:
    """Drain tasks from ``queue_dir`` until told to stop; returns task count.

    The worker exits when the ``control/stop`` marker appears, when
    ``stop_event`` is set (in-process workers), after ``max_tasks`` tasks
    (``repro worker --once`` uses 1), or after ``max_idle`` seconds with
    nothing to claim.  Trial functions are resolved per task from the
    queued ``fn_path``, so one queue can serve campaigns and chaos sweeps
    at once; resolved functions are memoised per path.

    Each claim is covered by a lease (``lease_ttl`` seconds, 0 disables)
    renewed from a heartbeat thread while the trial runs, so a supervisor
    can tell a dead worker (lease expires) from a slow one (lease keeps
    renewing).  A stale ``control/stop`` sentinel from a crashed shutdown
    is cleared on startup.
    """
    ensure_queue(queue_dir, stale_stop_after=STALE_STOP_SECONDS)
    functions: Dict[str, Any] = {}
    completed = 0
    duplicates = 0
    idle_since = time.monotonic()
    while True:
        if _stop_requested(queue_dir):
            break
        if stop_event is not None and stop_event.is_set():
            break
        claimed = claim_next(queue_dir)
        if claimed is None:
            if max_idle is not None and time.monotonic() - idle_since > max_idle:
                break
            time.sleep(_IDLE_POLL)
            continue
        idle_since = time.monotonic()
        key = os.path.basename(claimed)[: -len(".json")]
        heartbeat: Optional[threading.Thread] = None
        heartbeat_stop = threading.Event()
        if lease_ttl > 0:
            write_lease(queue_dir, key, lease_ttl)
            heartbeat = threading.Thread(
                target=_heartbeat,
                args=(queue_dir, key, claimed, lease_ttl, heartbeat_stop),
                name=f"repro-lease-{key}",
                daemon=True,
            )
            heartbeat.start()
        with open(claimed, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        task, fn_path = entry["task"], entry["fn_path"]
        if fn_path not in functions:
            functions[fn_path] = resolve_function(fn_path)
        started = time.monotonic()
        try:
            payload = functions[fn_path](task)
            message = {
                "key": task["key"], "ok": True, "payload": payload,
                "elapsed": time.monotonic() - started, "worker": os.getpid(),
            }
        except BaseException:
            message = {
                "key": task["key"], "ok": False,
                "error": traceback.format_exc(limit=20),
                "elapsed": time.monotonic() - started, "worker": os.getpid(),
            }
        finally:
            heartbeat_stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=1.0)
        if write_result(queue_dir, task["key"], message):
            duplicates += 1
        clear_lease(queue_dir, key)
        try:
            os.remove(claimed)
        except FileNotFoundError:
            pass  # supervisor reclaimed a stale-looking claim; result still counts
        completed += 1
        if progress is not None:
            progress(task["key"], message)
        if max_tasks is not None and completed >= max_tasks:
            break
    return completed


class FileQueueExecutor(Executor):
    """Executor backend over the on-disk queue.

    ``local_workers`` > 0 spawns that many in-process drain threads so a
    ``--backend queue`` run is self-contained; with 0, external
    ``repro worker --queue DIR`` processes must drain the queue.

    Lease supervision: :meth:`poll` reclaims any outstanding claim whose
    lease has expired (worker died or stalled past the heartbeat window)
    by re-enqueueing the task — another worker re-runs it, the result
    store deduplicates by config/seed digest, and a late duplicate result
    file is dropped and counted.  The claim-age backstop still turns a
    never-finishing task into a ``timeout`` failure for the retry budget.
    """

    name = "queue"
    supports_timeout = True  # via stale-claim reclaim, not a hard kill

    def __init__(
        self,
        queue_dir: str,
        timeout: Optional[float] = None,
        local_workers: int = 0,
        claim_grace: float = CLAIM_GRACE,
        lease_ttl: float = LEASE_TTL,
        metrics: Optional[Any] = None,
    ) -> None:
        if not queue_dir:
            raise ServiceError("queue backend needs a queue directory")
        self.queue_dir = ensure_queue(queue_dir)
        self.timeout = timeout
        self.claim_grace = claim_grace
        self.lease_ttl = lease_ttl
        self.metrics = metrics
        self._fn_path = ""
        #: key -> claim-observation deadline bookkeeping.
        self._outstanding: Dict[str, float] = {}
        #: keys whose results this run already consumed (duplicate guard).
        self._seen: Set[str] = set()
        self._stop_event = threading.Event()
        self._local_workers = local_workers
        self._threads: List[threading.Thread] = []

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def start(self, fn_path: str) -> None:
        resolve_function(fn_path)  # fail fast in the supervisor
        self._fn_path = fn_path
        clear_stop(self.queue_dir)
        for index in range(self._local_workers):
            thread = threading.Thread(
                target=run_worker,
                args=(self.queue_dir,),
                kwargs={
                    "stop_event": self._stop_event,
                    "lease_ttl": self.lease_ttl,
                },
                name=f"repro-queue-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def has_capacity(self) -> bool:
        # The queue itself is unbounded; outstanding work lives on disk.
        return True

    def submit(self, task: Dict[str, Any]) -> None:
        enqueue_task(self.queue_dir, task, self._fn_path)
        self._outstanding[task["key"]] = time.monotonic()

    def _stale_deadline(self) -> Optional[float]:
        if self.timeout is None:
            return None
        return self.timeout + self.claim_grace

    def _remove_queue_files(self, key: str) -> None:
        """Withdraw every on-disk trace of a task (idempotent)."""
        for sub in ("claimed", "tasks"):
            try:
                os.remove(os.path.join(self.queue_dir, sub, f"{key}.json"))
            except FileNotFoundError:
                pass
        clear_lease(self.queue_dir, key)

    def _reclaim_expired_leases(self) -> None:
        """Re-enqueue claims whose workers stopped heartbeating."""
        if self.lease_ttl <= 0:
            return
        now = time.time()
        for key in list(self._outstanding):
            claim = os.path.join(self.queue_dir, "claimed", f"{key}.json")
            if not os.path.exists(claim):
                continue
            lease = read_lease(self.queue_dir, key)
            if lease is not None:
                expired = now > float(lease.get("expires_unix") or 0.0)
            else:
                # Worker died between the claim rename and its first
                # lease write: judge by the claim file's age instead.
                try:
                    expired = now - os.path.getmtime(claim) > self.lease_ttl
                except OSError:
                    continue  # finished in the race window
            if not expired:
                continue
            target = os.path.join(self.queue_dir, "tasks", f"{key}.json")
            try:
                os.replace(claim, target)
            except FileNotFoundError:
                continue  # the worker finished after all
            clear_lease(self.queue_dir, key)
            # Same attempt, new worker: restart the backstop clock but do
            # not charge the retry budget — at-least-once redelivery.
            self._outstanding[key] = time.monotonic()
            self._count("queue.leases_reclaimed")

    def _drop_duplicate_results(self) -> None:
        """Remove late results from reclaimed workers (count them)."""
        results_dir = os.path.join(self.queue_dir, "results")
        try:
            names = os.listdir(results_dir)
        except FileNotFoundError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            key = name[: -len(".json")]
            if key in self._seen and key not in self._outstanding:
                try:
                    os.remove(os.path.join(results_dir, name))
                except FileNotFoundError:
                    continue
                self._count("queue.duplicate_results")

    def poll(self, timeout: float) -> List[ExecMessage]:
        messages: List[ExecMessage] = []
        results_dir = os.path.join(self.queue_dir, "results")
        deadline = time.monotonic() + timeout
        while True:
            for key in list(self._outstanding):
                path = os.path.join(results_dir, f"{key}.json")
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        raw = json.load(handle)
                except (FileNotFoundError, ValueError):
                    continue
                os.remove(path)
                del self._outstanding[key]
                self._seen.add(key)
                # A reclaimed-then-finished task may have been re-enqueued;
                # withdraw any leftover task/claim so nothing re-runs it.
                self._remove_queue_files(key)
                messages.append(
                    ExecMessage(
                        key=key,
                        kind="ok" if raw.get("ok") else "error",
                        payload=raw.get("payload"),
                        error=raw.get("error"),
                        elapsed=raw.get("elapsed", 0.0),
                    )
                )
            self._reclaim_expired_leases()
            self._drop_duplicate_results()
            stale_after = self._stale_deadline()
            if stale_after is not None:
                now = time.monotonic()
                for key, submitted in list(self._outstanding.items()):
                    if now - submitted <= stale_after:
                        continue
                    # Reclaim: drop the claim/task file so nothing re-runs it
                    # under the old attempt, and report a timeout failure.
                    self._remove_queue_files(key)
                    del self._outstanding[key]
                    messages.append(
                        ExecMessage(
                            key=key, kind="timeout",
                            error=(
                                f"no result within {stale_after:g}s; "
                                "claim reclaimed (worker lost or stalled?)"
                            ),
                            elapsed=now - submitted,
                        )
                    )
            if messages or time.monotonic() >= deadline:
                return messages
            time.sleep(_IDLE_POLL)

    def cancel(self) -> None:
        # Withdraw work this run still owns; never stop foreign workers.
        for key in list(self._outstanding):
            try:
                os.remove(os.path.join(self.queue_dir, "tasks", f"{key}.json"))
            except FileNotFoundError:
                pass
        self._outstanding = {}

    def drain(self) -> None:
        self._stop_event.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
