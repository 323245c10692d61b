"""Job specifications and lifecycle state shared by the CLI and the service.

A :class:`JobSpec` is the *what* of a submission — campaign or chaos
sweep, target, seed range, presets/plan, SATIN overrides — and digests to
a content address (:meth:`JobSpec.config_digest`) that deliberately
excludes the execution substrate (backend, worker count, timeout), so two
users asking for the same parameter point share one cache entry no matter
how their jobs run.

A :class:`JobState` is the *where it is*: the state machine

    pending -> running -> done | cancelled | failed
    pending ----------> cancelled | failed

with timestamps, progress counters and the result summary.  Invalid
transitions raise :class:`~repro.errors.JobTransitionError`.  Both types
round-trip through JSON (``to_json``/``from_json``) because the service
persists them as job-scoped artifacts beside the result store.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaign.digest import CODE_VERSION, stable_digest
from repro.errors import JobTransitionError, ServiceError

#: Where ``repro serve`` listens and the client commands connect by default.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8971

#: Job kinds and the sweep machinery each maps onto.
JOB_KINDS = ("campaign", "chaos")

#: Every lifecycle state.
JOB_STATES = ("pending", "running", "done", "cancelled", "failed")

#: Legal transitions; terminal states allow none.
_TRANSITIONS: Dict[str, frozenset] = {
    "pending": frozenset({"running", "cancelled", "failed"}),
    "running": frozenset({"done", "cancelled", "failed"}),
    "done": frozenset(),
    "cancelled": frozenset(),
    "failed": frozenset(),
}


@dataclass
class JobSpec:
    """Everything that defines a submitted job.

    ``kind`` is ``"campaign"`` (``target`` = experiment id, e.g. ``E9``)
    or ``"chaos"`` (``target`` = scenario name, with ``plan`` naming the
    fault plan).  Result-determining fields feed the digest; execution
    fields (``backend``/``jobs``/``timeout``/``max_attempts``) do not.
    """

    kind: str
    target: str
    seeds: int = 8
    seed_base: int = 0
    presets: List[str] = field(default_factory=lambda: ["juno_r1"])
    full: bool = False
    satin: Optional[Dict[str, Any]] = None
    # chaos-only result fields
    plan: str = "smoke"
    fault_seed_base: int = 0
    duration: Optional[float] = None
    # adaptive-planner fields (campaign-only; result-determining — they
    # change which seeds are consumed — so they feed the digest when set)
    adaptive: bool = False
    ci_width: Optional[float] = None
    ci_quantity: Optional[str] = None
    min_seeds: int = 8
    round_size: int = 4
    # execution fields (excluded from the digest)
    backend: str = "auto"
    jobs: int = 1
    timeout: Optional[float] = None
    max_attempts: int = 2
    queue_dir: Optional[str] = None
    queue_workers: int = 0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r} (choose from {', '.join(JOB_KINDS)})"
            )
        if not self.target:
            raise ServiceError("job needs a target (experiment id or scenario)")
        if self.seeds < 1:
            raise ServiceError(f"job needs seeds >= 1, got {self.seeds}")
        if not self.presets:
            raise ServiceError("job needs at least one preset")
        if self.backend == "queue" and not self.queue_dir:
            raise ServiceError("queue backend needs queue_dir")
        if self.adaptive:
            if self.kind != "campaign":
                raise ServiceError("adaptive dispatch is campaign-only")
            if self.ci_width is None or self.ci_width <= 0:
                raise ServiceError("adaptive job needs ci_width > 0")

    def seed_list(self) -> List[int]:
        return [self.seed_base + i for i in range(self.seeds)]

    def config_digest(self) -> str:
        """Content address of the job's *results* (not its execution)."""
        body: Dict[str, Any] = {
            "kind": self.kind,
            "target": self.target.upper() if self.kind == "campaign" else self.target,
            "seeds": self.seeds,
            "seed_base": self.seed_base,
            "presets": list(self.presets),
            "full": self.full,
            "satin": self.satin or {},
            "code": CODE_VERSION,
        }
        if self.kind == "chaos":
            body.update(
                {
                    "plan": self.plan,
                    "fault_seed_base": self.fault_seed_base,
                    "duration": self.duration,
                }
            )
        if self.adaptive:
            # Adaptive dispatch consumes a data-dependent prefix of the
            # seed stream, so the planner knobs determine the result set;
            # non-adaptive jobs keep their digests unchanged.
            body["planner"] = {
                "adaptive": True,
                "ci_width": self.ci_width,
                "ci_quantity": self.ci_quantity,
                "min_seeds": self.min_seeds,
                "round_size": self.round_size,
            }
        return stable_digest(body)

    def to_run_spec(self, cache_dir: str):
        """The campaign/chaos spec this job executes, resuming from cache."""
        if self.kind == "campaign":
            from repro.campaign.runner import CampaignSpec

            return CampaignSpec(
                experiment_id=self.target,
                seeds=self.seed_list(),
                full=self.full,
                presets=tuple(self.presets),
                satin=dict(self.satin) if self.satin else None,
                jobs=self.jobs,
                timeout=self.timeout,
                max_attempts=self.max_attempts,
                cache_dir=cache_dir,
                resume=True,
                backend=self.backend,
                queue_dir=self.queue_dir,
                queue_workers=self.queue_workers,
                adaptive=self.adaptive,
                ci_width=self.ci_width,
                ci_quantity=self.ci_quantity,
                min_seeds=self.min_seeds,
                round_size=self.round_size,
            )
        from repro.faults.chaos import ChaosSpec

        return ChaosSpec(
            scenario=self.target,
            seeds=self.seed_list(),
            plan_name=self.plan,
            fault_seed_base=self.fault_seed_base,
            preset=self.presets[0],
            duration=self.duration,
            jobs=self.jobs,
            timeout=self.timeout,
            max_attempts=self.max_attempts,
            cache_dir=cache_dir,
            resume=True,
            backend=self.backend,
            queue_dir=self.queue_dir,
            queue_workers=self.queue_workers,
        )

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ServiceError("job spec must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(f"unknown job spec field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as error:
            raise ServiceError(f"bad job spec: {error}") from None


@dataclass
class JobState:
    """Lifecycle record of one submitted job."""

    job_id: str
    spec: JobSpec
    state: str = "pending"
    digest: str = ""
    created_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: trial-level progress: total/cached/done/failed/retried.
    progress: Dict[str, int] = field(default_factory=dict)
    #: completion summary (totals, cache split, manifest fingerprint hash).
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    manifest_path: Optional[str] = None
    #: times this job was reset to pending by crash recovery.
    recoveries: int = 0

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ServiceError(f"unknown job state {self.state!r}")
        if not self.digest:
            self.digest = self.spec.config_digest()
        #: set to request cooperative cancellation of a running job.
        self.cancel_event = threading.Event()

    @property
    def terminal(self) -> bool:
        return not _TRANSITIONS[self.state]

    def advance(self, new_state: str, error: Optional[str] = None) -> None:
        """Move the state machine; raises on an illegal transition."""
        if new_state not in JOB_STATES:
            raise ServiceError(f"unknown job state {new_state!r}")
        if new_state not in _TRANSITIONS[self.state]:
            raise JobTransitionError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {new_state!r}"
            )
        self.state = new_state
        now = time.time()
        if new_state == "running":
            self.started_unix = now
        else:
            self.finished_unix = now
        if error is not None:
            self.error = error

    def mark_recovered(self) -> None:
        """Reset an in-flight job to ``pending`` after a service restart.

        Deliberately *not* a normal transition — ``running -> pending``
        only makes sense when the process that was running the job is
        gone.  Trial-level progress is reset (the re-dispatch recomputes
        it; completed trials come back instantly as cache hits), the
        cancel event is re-armed, and ``recoveries`` counts the resets.
        """
        if self.terminal:
            raise JobTransitionError(
                f"job {self.job_id} is {self.state}; terminal jobs are "
                "served from the journal, not recovered"
            )
        self.state = "pending"
        self.started_unix = None
        self.recoveries += 1
        total = self.progress.get("total", 0)
        self.progress = {
            "total": total, "cached": 0, "done": 0, "failed": 0, "retried": 0,
        }
        self.cancel_event = threading.Event()

    def to_json(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_json(),
            "state": self.state,
            "digest": self.digest,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "progress": dict(self.progress),
            "result": self.result,
            "error": self.error,
            "manifest_path": self.manifest_path,
            "recoveries": self.recoveries,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "JobState":
        if not isinstance(payload, dict):
            raise ServiceError("job state must be a JSON object")
        try:
            spec = JobSpec.from_json(payload["spec"])
            state = cls(
                job_id=payload["job_id"],
                spec=spec,
                state=payload.get("state", "pending"),
                digest=payload.get("digest", ""),
                created_unix=payload.get("created_unix", 0.0),
            )
        except KeyError as error:
            raise ServiceError(f"job state missing field {error.args[0]!r}") from None
        state.started_unix = payload.get("started_unix")
        state.finished_unix = payload.get("finished_unix")
        state.progress = dict(payload.get("progress") or {})
        state.result = payload.get("result")
        state.error = payload.get("error")
        state.manifest_path = payload.get("manifest_path")
        state.recoveries = int(payload.get("recoveries") or 0)
        return state
