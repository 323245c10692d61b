"""``python -m repro serve``: a long-running HTTP/JSON campaign service.

Stdlib-only (``http.server``), multi-tenant, and memoised through the
content-addressed result store: every job runs with ``resume=True``
against one shared cache root, so overlapping submissions hit the store
instead of the simulator, and a duplicate of a finished job completes
with ``ran == 0`` (a *pure cache hit*).  In-flight deduplication goes one
step further — submitting a spec whose digest matches a pending/running
job returns that job instead of queueing a twin.

Endpoints (all JSON unless noted)::

    POST /jobs               submit a JobSpec; 200 -> JobState (+deduped flag)
    GET  /jobs               list job states, newest last
    GET  /jobs/<id>          one JobState (live progress while running)
    GET  /jobs/<id>/manifest the campaign manifest (deterministic merge)
    GET  /jobs/<id>/result   the rendered report (text/plain)
    GET  /jobs/<id>/matrix   the survival matrix (chaos jobs)
    POST /jobs/<id>/cancel   cooperative cancel (also DELETE /jobs/<id>)
    GET  /jobs/<id>/events   polling JSON cursor over lifecycle/progress deltas
    GET  /healthz            liveness probe
    GET  /readyz             readiness (503 while draining or replaying)
    GET  /metrics            Prometheus text (or the JSON snapshot with
                             ``Accept: application/json``)

Job execution happens on a small worker-thread pool; jobs that map to the
same campaign directory serialize on a per-campaign lock because the
JSONL store is single-writer.  Each job gets a per-job metric namespace
(``job.<id>.*``) inside the service registry plus lifecycle counters
(``service.jobs_submitted``, ``service.cache_hits``, ...).

Durability (see :mod:`repro.service.journal`): every job transition is
appended to a fsync'd write-ahead journal under the cache root before it
is acknowledged, so a SIGKILL'd server restarted with ``--recover`` (the
default) reconstructs all jobs — terminal ones serve their recorded
results, in-flight ones are re-dispatched through the campaign resume
path and converge to byte-identical manifest fingerprints.  Admission
control keeps the pending queue bounded (HTTP 429 + ``Retry-After``), and
SIGTERM flips the server into a graceful drain: new submissions get 503,
running jobs finish and persist, the journal is compacted, exit code 0.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import queue as queue_module
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.store import DEFAULT_CACHE_DIR, job_artifact_dir
from repro.durable import atomic_write_bytes
from repro.errors import (
    BackpressureError,
    JobTransitionError,
    ReproError,
    ServiceError,
)
from repro.obs.manifest import manifest_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.jobs import DEFAULT_HOST, DEFAULT_PORT, JobSpec, JobState
from repro.service.journal import DEFAULT_COMPACT_EVERY, JobJournal

#: Per-job event-log cap: older events are dropped from memory, but event
#: sequence numbers stay monotonic so a cursor past the drop point still
#: resumes correctly.
EVENT_LOG_CAP = 1000

#: Admission-control defaults: pending jobs the service will queue, and
#: non-terminal jobs one client may have in flight (0 disables a cap).
DEFAULT_MAX_PENDING = 64
DEFAULT_MAX_INFLIGHT = 8


class JobManager:
    """Owns job lifecycle, execution threads, and the shared cache root."""

    def __init__(
        self,
        cache_dir: str = DEFAULT_CACHE_DIR,
        registry: Optional[MetricsRegistry] = None,
        max_workers: int = 2,
        recover: bool = True,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_inflight_per_client: int = DEFAULT_MAX_INFLIGHT,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"need max_workers >= 1, got {max_workers}")
        if max_pending < 1:
            raise ServiceError(f"need max_pending >= 1, got {max_pending}")
        self.cache_dir = cache_dir
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_pending = max_pending
        self.max_inflight_per_client = max_inflight_per_client
        self.compact_every = compact_every
        self._jobs: Dict[str, JobState] = {}
        self._order: List[str] = []
        #: job id -> append-only event log (seq-numbered, capped).
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._event_seq: Dict[str, int] = {}
        #: job id -> submitting client (in-memory only; caps reset on restart).
        self._client_of: Dict[str, str] = {}
        self._lock = threading.RLock()
        self._run_queue: "queue_module.Queue" = queue_module.Queue()
        self._campaign_locks: Dict[str, threading.Lock] = {}
        self._ids = itertools.count(1)
        self._stopping = threading.Event()
        self._draining = False
        self._replaying = False
        self._journal = JobJournal(cache_dir, registry=self.registry)
        if recover:
            self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{i}", daemon=True
            )
            for i in range(max_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Crash recovery (``repro serve --recover``)
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the job table from the journal before serving.

        Terminal jobs come back verbatim (their manifests and rendered
        results still live in the store / job artifacts).  Pending and
        running jobs — in flight when the previous process died — are
        reset to ``pending`` and re-enqueued; because every job executes
        with ``resume=True`` against the content-addressed store, the
        re-run serves completed trials from cache and produces the same
        ``manifest_fingerprint`` an uninterrupted run would have.
        """
        self._replaying = True
        try:
            replay = self._journal.replay()
            max_id = 0
            redispatch: List[JobState] = []
            for job_json in replay.jobs:
                try:
                    job = JobState.from_json(job_json)
                except ServiceError:
                    self.registry.counter("journal.unreadable_jobs").inc()
                    continue
                parts = job.job_id.split("-")
                if len(parts) >= 2 and parts[1].isdigit():
                    max_id = max(max_id, int(parts[1]))
                self._jobs[job.job_id] = job
                self._order.append(job.job_id)
                if not job.terminal:
                    job.mark_recovered()
                    redispatch.append(job)
            self._ids = itertools.count(max_id + 1)
            for job in redispatch:
                self.registry.counter("service.jobs_recovered").inc()
                self._persist(job)
                self._log_event(job, "lifecycle", "recovered")
                self._run_queue.put(job.job_id)
            if replay.jobs:
                self._journal.compact(self._job_table())
        finally:
            self._replaying = False

    def _job_table(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._jobs[job_id].to_json() for job_id in self._order]

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------

    def submit(
        self, payload: Dict[str, Any], client: Optional[str] = None
    ) -> Tuple[JobState, bool]:
        """Queue a job; returns ``(state, deduped)``.

        ``deduped`` is True when an active (pending/running) job with the
        same config digest already exists — the caller gets that job (it
        does not count against ``client``'s in-flight cap).  Admission
        control raises :class:`~repro.errors.BackpressureError` when the
        server is draining (503), the pending queue is at ``max_pending``
        depth, or ``client`` already has ``max_inflight_per_client``
        non-terminal jobs (both 429 with a ``Retry-After`` hint) — an
        accepted job is never dropped, a rejected one is never queued.
        """
        spec = JobSpec.from_json(payload)
        spec.check_submission()
        digest = spec.config_digest()
        with self._lock:
            if self._draining:
                self.registry.counter("service.jobs_rejected").inc()
                raise BackpressureError(
                    "service is draining; resubmit to the restarted server",
                    retry_after=5.0,
                    status=503,
                )
            for job_id in reversed(self._order):
                job = self._jobs[job_id]
                if job.digest == digest and not job.terminal:
                    self.registry.counter("service.jobs_deduped").inc()
                    return job, True
            pending = sum(
                1 for j in self._jobs.values() if j.state == "pending"
            )
            if pending >= self.max_pending:
                self.registry.counter("service.jobs_rejected").inc()
                raise BackpressureError(
                    f"pending queue is full ({pending}/{self.max_pending} "
                    "jobs); retry with backoff",
                    retry_after=min(30.0, float(max(1, pending))),
                    status=429,
                )
            if client is not None and self.max_inflight_per_client > 0:
                inflight = sum(
                    1
                    for jid, owner in self._client_of.items()
                    if owner == client and not self._jobs[jid].terminal
                )
                if inflight >= self.max_inflight_per_client:
                    self.registry.counter("service.jobs_rejected").inc()
                    raise BackpressureError(
                        f"client {client!r} already has {inflight} job(s) "
                        f"in flight (cap {self.max_inflight_per_client})",
                        retry_after=2.0,
                        status=429,
                    )
            job_id = f"job-{next(self._ids):04d}-{digest[:8]}"
            job = JobState(job_id=job_id, spec=spec, digest=digest)
            job.progress = {
                "total": spec.seeds * len(spec.presets),
                "cached": 0, "done": 0, "failed": 0, "retried": 0,
            }
            self._jobs[job_id] = job
            self._order.append(job_id)
            if client is not None:
                self._client_of[job_id] = client
            self.registry.counter("service.jobs_submitted").inc()
            self.registry.namespaced(f"job.{job_id}").counter("submitted").inc()
            self._persist(job)
        self._log_event(job, "lifecycle", "submitted")
        self._run_queue.put(job_id)
        return job, False

    # ------------------------------------------------------------------
    # Event log (``GET /jobs/<id>/events``)
    # ------------------------------------------------------------------

    def _log_event(self, job: JobState, kind: str, event: str) -> None:
        """Append one seq-numbered event to the job's in-memory log.

        ``kind`` is ``"lifecycle"`` (state transitions) or ``"trial"``
        (per-trial progress).  Every event snapshots the job's state and
        progress counters, so a poller can rebuild progress from deltas
        alone.
        """
        with self._lock:
            seq = self._event_seq.get(job.job_id, 0) + 1
            self._event_seq[job.job_id] = seq
            log = self._events.setdefault(job.job_id, [])
            log.append(
                {
                    "seq": seq,
                    "kind": kind,
                    "event": event,
                    "state": job.state,
                    "progress": dict(job.progress),
                }
            )
            if len(log) > EVENT_LOG_CAP:
                del log[: len(log) - EVENT_LOG_CAP]

    def events(self, job_id: str, cursor: int = 0) -> Dict[str, Any]:
        """Events with ``seq > cursor`` plus the new cursor to poll from.

        The response's ``cursor`` always advances to the job's latest
        sequence number, so ``GET /jobs/<id>/events?cursor=<last>`` is a
        cheap no-news poll.  ``dropped`` flags a cursor that fell behind
        the capped log (the poller missed events and should refetch the
        job state wholesale).
        """
        job = self.get(job_id)  # raises on unknown id
        with self._lock:
            log = list(self._events.get(job_id, []))
            seq = self._event_seq.get(job_id, 0)
        fresh = [event for event in log if event["seq"] > cursor]
        oldest = log[0]["seq"] if log else 1
        return {
            "job_id": job.job_id,
            "state": job.state,
            "terminal": job.terminal,
            "cursor": seq,
            "dropped": bool(cursor and cursor + 1 < oldest),
            "events": fresh,
        }

    def get(self, job_id: str) -> JobState:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def list(self) -> List[JobState]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> JobState:
        """Cancel a pending job outright, or cooperatively stop a running one."""
        job = self.get(job_id)
        with self._lock:
            if job.state == "pending":
                self._advance(job, "cancelled")
                self.registry.counter("service.jobs_cancelled").inc()
                self._log_event(job, "lifecycle", "cancelled")
                return job
            if job.state == "running":
                job.cancel_event.set()
                return job
        raise JobTransitionError(
            f"job {job_id} is already {job.state}; nothing to cancel"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _campaign_lock(self, campaign_id: str) -> threading.Lock:
        with self._lock:
            if campaign_id not in self._campaign_locks:
                self._campaign_locks[campaign_id] = threading.Lock()
            return self._campaign_locks[campaign_id]

    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            if self._draining:
                # Finish what is running elsewhere; pending jobs stay
                # journaled and come back via --recover after restart.
                return
            try:
                job_id = self._run_queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state != "pending":
                    continue  # cancelled while queued
                self._advance(job, "running")
                # inside the lock: a poller that sees the new state must
                # also see its lifecycle event (the lock is an RLock)
                self._log_event(job, "lifecycle", "running")
            try:
                self._execute(job)
            except BaseException:  # never kill the worker loop
                with self._lock:
                    if not job.terminal:
                        import traceback

                        self._advance(
                            job, "failed", error=traceback.format_exc(limit=10)
                        )
                        self.registry.counter("service.jobs_failed").inc()
                        self._log_event(job, "lifecycle", "failed")

    def _execute(self, job: JobState) -> None:
        from repro.campaign.runner import run_campaign
        from repro.faults.chaos import run_chaos

        ns = self.registry.namespaced(f"job.{job.job_id}")
        started = time.monotonic()

        def observer(event: str, info: Dict[str, Any]) -> None:
            with self._lock:
                if event == "cached":
                    job.progress["cached"] = info.get("count", 0)
                elif event in ("done", "failed", "retried", "retry"):
                    key = "retried" if event == "retry" else event
                    job.progress[key] = job.progress.get(key, 0) + 1
            ns.counter(f"trials_{'retried' if event == 'retry' else event}").inc()
            self._log_event(job, "trial", event)

        error: Optional[str] = None
        result = None
        try:
            spec = job.spec.to_run_spec(self.cache_dir)
            with self._campaign_lock(spec.campaign_id()):
                if job.spec.kind == "campaign":
                    result = run_campaign(
                        spec, progress=False,
                        observer=observer, cancel_event=job.cancel_event,
                    )
                else:
                    result = run_chaos(
                        spec, progress=False,
                        observer=observer, cancel_event=job.cancel_event,
                    )
        except ReproError as exc:
            error = exc.args[0] if exc.args else str(exc)

        wall = time.monotonic() - started
        with self._lock:
            if error is not None or result is None:
                self._advance(job, "failed", error=error or "job produced no result")
                self.registry.counter("service.jobs_failed").inc()
            else:
                summary: Dict[str, Any] = {
                    "total": result.total,
                    "ran": result.ran,
                    "cached": result.cached,
                    "quarantined": len(result.quarantined),
                    "records": len(result.records),
                    "pure_cache_hit": result.total > 0 and result.ran == 0,
                    "campaign_id": result.spec.campaign_id(),
                }
                if result.manifest_path and os.path.isfile(result.manifest_path):
                    with open(result.manifest_path, "r", encoding="utf-8") as handle:
                        manifest = json.load(handle)
                    summary["fingerprint_sha256"] = hashlib.sha256(
                        manifest_fingerprint(manifest).encode("utf-8")
                    ).hexdigest()
                if getattr(result, "totals", None):  # chaos survival totals
                    summary["survival_totals"] = result.totals
                self._write_artifact(job, "result.txt", result.rendered + "\n")
                if summary["pure_cache_hit"]:
                    self.registry.counter("service.cache_hits").inc()
                self._advance(
                    job, "cancelled" if result.cancelled else "done",
                    result=summary, manifest_path=result.manifest_path,
                )
                self.registry.counter(
                    "service.jobs_cancelled" if result.cancelled
                    else "service.jobs_completed"
                ).inc()
            ns.counter(f"state_{job.state}").inc()
            self.registry.histogram("service.job_wall_seconds").observe(wall)
            self._log_event(job, "lifecycle", job.state)

    # ------------------------------------------------------------------
    # Job-scoped artifacts
    # ------------------------------------------------------------------

    def _persist(self, job: JobState, **changes: Any) -> None:
        """Journal ``job`` with ``changes`` applied, then apply them.

        Recovery replays the journal, and a reader of ``job`` never sees
        a field value that a crash could still lose.
        """
        self._journal.append({**job.to_json(), **changes})
        for name, value in changes.items():
            setattr(job, name, value)
        self._journal.maybe_compact(self._job_table(), every=self.compact_every)

    def _advance(
        self, job: JobState, new_state: str, error: Optional[str] = None,
        **changes: Any,
    ) -> None:
        """Move ``job`` to ``new_state``, durably before visibly."""
        self._persist(job, **job.transition(new_state, error), **changes)

    def _write_artifact(self, job: JobState, name: str, text: str) -> None:
        """Write a served artifact whole: a reader never sees a torn file."""
        directory = job_artifact_dir(self.cache_dir, job.job_id)
        atomic_write_bytes(os.path.join(directory, name), text.encode("utf-8"))

    def read_artifact(self, job_id: str, name: str) -> Optional[str]:
        directory = job_artifact_dir(self.cache_dir, job_id, create=False)
        try:
            with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def manifest(self, job_id: str) -> Dict[str, Any]:
        job = self.get(job_id)
        if not job.manifest_path or not os.path.isfile(job.manifest_path):
            raise ServiceError(f"job {job_id} has no manifest yet (state {job.state})")
        with open(job.manifest_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # ------------------------------------------------------------------
    # Drain / readiness / shutdown
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def readiness(self) -> Dict[str, Any]:
        """The ``/readyz`` payload; ``ready`` gates load-balancer traffic."""
        return {
            "ready": not self._draining and not self._replaying,
            "draining": self._draining,
            "replaying": self._replaying,
        }

    def begin_drain(self) -> None:
        """Stop accepting work; running jobs keep going (idempotent)."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self.registry.counter("service.drains").inc()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain: finish in-flight jobs, flush the journal.

        Blocks until every worker thread has finished its current job (or
        ``timeout`` elapses), then compacts the journal so pending jobs
        are snapshotted as resumable.  Returns True when all workers
        exited in time.
        """
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        clean = True
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(timeout=remaining)
            clean = clean and not thread.is_alive()
        self._journal.compact(self._job_table())
        self._journal.close()
        return clean

    def shutdown(self, cancel_running: bool = True) -> None:
        self._stopping.set()
        if cancel_running:
            with self._lock:
                jobs = [self._jobs[j] for j in self._order]
            for job in jobs:
                if job.state == "running":
                    job.cancel_event.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._journal.close()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the job API onto a :class:`JobManager` (set by make_server)."""

    manager: JobManager  # injected via subclassing in make_server
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: set False to silence per-request stderr logging.
    verbose = False

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: N802
        self.manager.registry.counter("service.http_requests").inc()
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    # -- plumbing ------------------------------------------------------

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _json(
        self,
        code: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("utf-8")
        self._send(code, body, "application/json", headers=headers)

    def _backpressure(self, exc: BackpressureError) -> None:
        """429/503 + Retry-After: the client's backoff loop understands both."""
        self._json(
            exc.status,
            {"error": str(exc), "retry_after": exc.retry_after},
            headers={"Retry-After": str(max(1, int(round(exc.retry_after))))},
        )

    def _client_id(self) -> str:
        """Who is submitting: explicit header, else the peer address."""
        return (
            self.headers.get("X-Repro-Client")
            or (self.client_address[0] if self.client_address else "unknown")
        )

    def _text(self, code: int, text: str) -> None:
        self._send(code, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except ValueError:
            raise ServiceError("request body is not valid JSON")
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, List[str]]:
        path = self.path.split("?", 1)[0].rstrip("/")
        return path, [part for part in path.split("/") if part]

    def _query(self) -> Dict[str, str]:
        """Last-wins query-string parameters of the request."""
        if "?" not in self.path:
            return {}
        from urllib.parse import parse_qsl

        return dict(parse_qsl(self.path.split("?", 1)[1]))

    def _wants_json(self) -> bool:
        accept = self.headers.get("Accept", "")
        return "application/json" in accept

    # -- methods -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        _, parts = self._route()
        try:
            if parts == ["healthz"]:
                self._json(200, {"ok": True, "jobs": len(self.manager.list())})
            elif parts == ["readyz"]:
                readiness = self.manager.readiness()
                self._json(200 if readiness["ready"] else 503, readiness)
            elif parts == ["metrics"]:
                # Content negotiation: scrapers get Prometheus 0.0.4 text,
                # JSON clients (Accept: application/json) the raw snapshot.
                snapshot = self.manager.registry.snapshot()
                if self._wants_json():
                    self._json(200, snapshot)
                else:
                    self._send(
                        200,
                        render_prometheus(snapshot).encode("utf-8"),
                        PROMETHEUS_CONTENT_TYPE,
                    )
            elif parts == ["jobs"]:
                self._json(
                    200, {"jobs": [job.to_json() for job in self.manager.list()]}
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                self._json(200, self.manager.get(parts[1]).to_json())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "manifest":
                self._json(200, self.manager.manifest(parts[1]))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                rendered = self.manager.read_artifact(parts[1], "result.txt")
                if rendered is None:
                    job = self.manager.get(parts[1])  # 404 on unknown id
                    self._error(
                        409, f"job {job.job_id} has no result yet (state {job.state})"
                    )
                else:
                    self._text(200, rendered)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                try:
                    cursor = int(self._query().get("cursor", "0"))
                except ValueError:
                    raise ServiceError("cursor must be an integer")
                self._json(200, self.manager.events(parts[1], cursor=cursor))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "matrix":
                manifest = self.manager.manifest(parts[1])
                survival = manifest.get("survival")
                if survival is None:
                    self._error(409, f"job {parts[1]} carries no survival matrix")
                else:
                    self._json(200, survival)
            else:
                self._error(404, f"no such resource {self.path!r}")
        except ServiceError as exc:
            self._error(404 if "unknown job" in str(exc) else 409, str(exc))

    def do_POST(self) -> None:  # noqa: N802
        _, parts = self._route()
        try:
            if parts == ["jobs"]:
                payload = self._read_body()
                job, deduped = self.manager.submit(payload, client=self._client_id())
                body = job.to_json()
                body["deduped"] = deduped
                self._json(200, body)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._json(200, self.manager.cancel(parts[1]).to_json())
            else:
                self._error(404, f"no such resource {self.path!r}")
        except BackpressureError as exc:
            self._backpressure(exc)
        except JobTransitionError as exc:
            self._error(409, str(exc))
        except ServiceError as exc:
            self._error(
                404 if "unknown job" in str(exc) else 400, str(exc)
            )

    def do_DELETE(self) -> None:  # noqa: N802
        _, parts = self._route()
        try:
            if len(parts) == 2 and parts[0] == "jobs":
                self._json(200, self.manager.cancel(parts[1]).to_json())
            else:
                self._error(404, f"no such resource {self.path!r}")
        except JobTransitionError as exc:
            self._error(409, str(exc))
        except ServiceError as exc:
            self._error(404 if "unknown job" in str(exc) else 400, str(exc))


def make_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_dir: str = DEFAULT_CACHE_DIR,
    max_workers: int = 2,
    verbose: bool = False,
    recover: bool = True,
    max_pending: int = DEFAULT_MAX_PENDING,
    max_inflight_per_client: int = DEFAULT_MAX_INFLIGHT,
) -> Tuple[ThreadingHTTPServer, JobManager]:
    """Build the HTTP server + manager pair (caller runs serve_forever)."""
    manager = JobManager(
        cache_dir=cache_dir,
        max_workers=max_workers,
        recover=recover,
        max_pending=max_pending,
        max_inflight_per_client=max_inflight_per_client,
    )

    class _Handler(ServiceHandler):
        pass

    _Handler.manager = manager
    _Handler.verbose = verbose
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    return server, manager


def serve_forever(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_dir: str = DEFAULT_CACHE_DIR,
    max_workers: int = 2,
    verbose: bool = False,
    stream=None,
    recover: bool = True,
    max_pending: int = DEFAULT_MAX_PENDING,
    max_inflight_per_client: int = DEFAULT_MAX_INFLIGHT,
) -> int:
    """The ``repro serve`` entry point; blocks until SIGINT or SIGTERM.

    SIGINT (Ctrl-C) keeps the historical fast-stop semantics: running
    jobs are cancelled (their partial shards stay resumable).  SIGTERM —
    what an orchestrator sends — drains gracefully instead: ``/readyz``
    flips to 503, new submissions are rejected, running jobs finish and
    persist, the journal is compacted, and the process exits 0.
    """
    import signal
    import sys

    stream = stream if stream is not None else sys.stderr
    server, manager = make_server(
        host=host, port=port, cache_dir=cache_dir,
        max_workers=max_workers, verbose=verbose, recover=recover,
        max_pending=max_pending,
        max_inflight_per_client=max_inflight_per_client,
    )
    bound_host, bound_port = server.server_address[:2]
    recovered = sum(1 for job in manager.list() if job.recoveries)
    note = f", {recovered} job(s) recovered" if recovered else ""
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(cache {cache_dir!r}, {max_workers} job worker(s){note})",
        file=stream,
    )

    drained = threading.Event()

    def _drain_and_stop() -> None:
        manager.begin_drain()
        manager.drain()
        drained.set()
        server.shutdown()

    def _on_sigterm(signum, frame) -> None:
        print(
            "repro serve: SIGTERM — draining (finishing in-flight jobs)",
            file=stream,
        )
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded in tests)

    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("repro serve: shutting down (cancelling running jobs)", file=stream)
    finally:
        server.shutdown()
        server.server_close()
        if drained.is_set():
            manager.shutdown(cancel_running=False)
            print(
                "repro serve: drain complete (journal flushed, "
                "pending jobs resumable)",
                file=stream,
            )
        else:
            manager.shutdown(cancel_running=True)
    return 0
