"""Job specifications and lifecycle state shared by the CLI and the service.

An :class:`Execution` is the *how* of any sweep (workers, timeout,
attempts, cache, resume, backend), checked once when it is built.

A :class:`JobSpec` is the *what* of a submission — campaign or chaos
sweep, target, seed range, presets/plan, SATIN overrides — and digests to
a content address (:meth:`JobSpec.config_digest`) that deliberately
excludes the execution substrate (backend, worker count, timeout), so two
users asking for the same parameter point share one cache entry no matter
how their jobs run.  Its JSON stays flat, so older journals replay.

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
from numbers import Integral, Real
from typing import Any, Dict, List, Optional

from repro.campaign.digest import CODE_VERSION, stable_digest
from repro.campaign.store import DEFAULT_CACHE_DIR
from repro.errors import JobTransitionError, ServiceError, SettingsError

#: Where ``repro serve`` listens and the client commands connect by default.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8971

#: Executor backend names (``auto`` resolves by jobs count); the backends
#: themselves live in :mod:`repro.service.executors`.
BACKENDS = ("inline", "fork", "queue")

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


#: Default attempts per trial: the first run plus one retry.
DEFAULT_MAX_ATTEMPTS = 2


def _is_int(value: Any) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_positive(value: Any) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class Execution:
    """How a sweep runs; no field feeds a ``campaign_id`` or job digest.

    ``backend`` is ``"auto"`` (``jobs == 0`` -> inline, else fork),
    ``"inline"``, ``"fork"`` or ``"queue"`` (``repro worker`` processes
    drain ``queue_dir``).
    """

    jobs: int = 1
    timeout: Optional[float] = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    cache_dir: str = DEFAULT_CACHE_DIR
    resume: bool = False
    backend: str = "auto"
    queue_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not _is_int(self.jobs):
            raise SettingsError(f"jobs must be an int, got {self.jobs!r}")
        if self.jobs < 0:
            raise SettingsError(f"jobs must be >= 0, got {self.jobs}")
        if not _is_int(self.max_attempts) or self.max_attempts < 1:
            raise SettingsError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.timeout is not None and not _is_positive(self.timeout):
            raise SettingsError(f"timeout must be None or > 0, got {self.timeout!r}")
        if self.backend != "auto" and self.backend not in BACKENDS:
            raise SettingsError(
                f"unknown executor backend {self.backend!r} "
                f"(choose from auto, {', '.join(BACKENDS)})"
            )
        if self.backend == "queue" and not self.queue_dir:
            raise SettingsError("queue backend needs a queue directory")


def check_planner(ci_width: Optional[float], min_seeds: int, round_size: int) -> None:
    """The one check of the adaptive planner's settings."""
    if not _is_positive(ci_width):
        raise SettingsError(
            f"adaptive dispatch needs --ci-width (ci_width) > 0, got {ci_width!r}"
        )
    if not _is_int(min_seeds) or min_seeds < 2:
        raise SettingsError(f"adaptive min_seeds must be >= 2, got {min_seeds!r}")
    if not _is_int(round_size) or round_size < 1:
        raise SettingsError(f"adaptive round_size must be >= 1, got {round_size!r}")


@dataclass
class JobSpec:
    """Everything that defines a submitted job.

    ``kind`` is ``"campaign"`` (``target`` = experiment id, e.g. ``E9``)
    or ``"chaos"`` (``target`` = scenario name, with ``plan`` naming the
    fault plan).  Result-determining fields feed the digest; execution
    fields (``backend``/``jobs``/``timeout``/``max_attempts``/``queue_dir``)
    do not; :meth:`execution` gathers them.
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
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    queue_dir: Optional[str] = None

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
        if self.adaptive:
            if self.kind != "campaign":
                raise ServiceError("adaptive dispatch is campaign-only")
            check_planner(self.ci_width, self.min_seeds, self.round_size)

    def execution(self, cache_dir: str = DEFAULT_CACHE_DIR) -> Execution:
        """How the job runs: its execution fields, resuming from ``cache_dir``."""
        return Execution(
            jobs=self.jobs,
            timeout=self.timeout,
            max_attempts=self.max_attempts,
            cache_dir=cache_dir,
            resume=True,
            backend=self.backend,
            queue_dir=self.queue_dir,
        )

    def check_submission(self) -> None:
        """The checks a new submission passes and journal replay skips."""
        self.execution()
        if not isinstance(self.target, str):
            raise ServiceError(f"target must be a string, got {self.target!r}")
        for name in ("seeds", "seed_base", "fault_seed_base"):
            if not _is_int(getattr(self, name)):
                raise ServiceError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not (isinstance(self.presets, list) and all(isinstance(p, str) for p in self.presets)):
            raise ServiceError(f"presets must be a list of names, got {self.presets!r}")
        if not isinstance(self.full, bool):
            raise ServiceError(f"full must be true or false, got {self.full!r}")
        if self.satin is not None and not isinstance(self.satin, dict):
            raise ServiceError(f"satin must be an object of overrides, got {self.satin!r}")
        if self.duration is not None and not _is_positive(self.duration):
            raise ServiceError(f"duration must be None or > 0, got {self.duration!r}")
        if self.kind == "chaos" and len(self.presets) > 1:
            raise ServiceError(f"a chaos job runs one preset, got {len(self.presets)}")

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
        execution = self.execution(cache_dir)
        if self.kind == "campaign":
            from repro.campaign.runner import CampaignSpec

            return CampaignSpec(
                experiment_id=self.target,
                seeds=self.seed_list(),
                full=self.full,
                presets=tuple(self.presets),
                satin=dict(self.satin) if self.satin else None,
                execution=execution,
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
            execution=execution,
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

    def transition(
        self, new_state: str, error: Optional[str] = None
    ) -> Dict[str, Any]:
        """The fields that move the state machine to ``new_state``, unapplied.

        Raises on an illegal transition.
        """
        if new_state not in JOB_STATES:
            raise ServiceError(f"unknown job state {new_state!r}")
        if new_state not in _TRANSITIONS[self.state]:
            raise JobTransitionError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {new_state!r}"
            )
        stamp = "started_unix" if new_state == "running" else "finished_unix"
        changes: Dict[str, Any] = {"state": new_state, stamp: time.time()}
        if error is not None:
            changes["error"] = error
        return changes

    def advance(self, new_state: str, error: Optional[str] = None) -> None:
        """Move the state machine; raises on an illegal transition."""
        for name, value in self.transition(new_state, error).items():
            setattr(self, name, value)

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
            spec_json = payload["spec"]
            if isinstance(spec_json, dict):
                # a journal written by an older version may carry spec
                # fields retired since: replay keeps the current ones
                spec_json = {
                    name: value for name, value in spec_json.items()
                    if name in JobSpec.__dataclass_fields__
                }
            spec = JobSpec.from_json(spec_json)
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
