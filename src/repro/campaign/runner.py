"""Campaign orchestration: grid expansion, cache consult, fan-out, merge.

A *campaign* is a grid of platform presets (and optional SATIN overrides)
crossed with a seed range, all running one experiment.  The runner:

1. expands the grid into trial tasks in a deterministic order
   (preset-major, then seed) and computes each trial's content address;
2. consults the :class:`~repro.campaign.store.ResultStore` — with
   ``resume=True`` completed trials are served from cache;
3. fans the misses out through :func:`~repro.service.executors.execute_tasks`
   with per-trial timeout, crash isolation and bounded retry;
4. merges all records through :mod:`repro.analysis.stats` into
   paper-vs-measured aggregate tables.

Aggregation iterates records in task order, never completion order, so a
parallel campaign renders byte-identical tables to a serial (``jobs=0``)
run over the same seed set.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Union

from repro.analysis.stats import Summary, mean_ci
from repro.analysis.tables import render_table
from repro.campaign.digest import CODE_VERSION, stable_digest, trial_key
from repro.campaign.progress import ProgressMeter
from repro.campaign.store import DEFAULT_CACHE_DIR, ResultStore
from repro.config import DEFAULT_PRESET, build_trial_config
from repro.errors import CampaignError
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import MetricsRegistry
from repro.service.executors import DEFAULT_MAX_ATTEMPTS, TrialOutcome

#: Type of the optional sweep observer: ``observer(event, info)`` fires on
#: "cached", "done", "failed", "retry" and "cancelled" — the service uses
#: it to surface live per-job progress without touching the meter.
Observer = Callable[[str, Dict[str, Any]], None]

#: Import path of the worker-side trial function.
TRIAL_FN = "repro.campaign.trials:run_experiment_trial"

@dataclass
class CampaignSpec:
    """Everything that defines a campaign run."""

    experiment_id: str
    seeds: Sequence[int]
    full: bool = False
    presets: Sequence[str] = (DEFAULT_PRESET,)
    satin: Optional[Dict[str, Any]] = None
    jobs: int = 1
    timeout: Optional[float] = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    cache_dir: str = DEFAULT_CACHE_DIR
    resume: bool = False
    #: executor backend: "auto" (jobs==0 -> inline, else fork), "inline",
    #: "thread", "fork", or "queue" (needs ``queue_dir``).  Deliberately
    #: excluded from ``campaign_id`` — the substrate never changes results.
    backend: str = "auto"
    queue_dir: Optional[str] = None
    #: local drain threads to spawn for the queue backend (0 = external
    #: ``repro worker`` processes own the draining).
    queue_workers: int = 0
    #: sequential-CI adaptive dispatch: stop consuming seeds per preset
    #: once the 95% CI of the headline quantity is narrower than
    #: ``ci_width`` (see :mod:`repro.analysis.planning.planner`).  Like
    #: ``backend`` these knobs are excluded from
    #: ``campaign_id`` — an adaptive run shares the fixed run's cache
    #: (it consumes a prefix of the same seed stream), and its manifest
    #: covers exactly the consumed trials.
    adaptive: bool = False
    #: target 95% CI width; required when ``adaptive`` is set.
    ci_width: Optional[float] = None
    #: comparison quantity the CI tracks (default: first quantity with
    #: nonzero spread after the first round).
    ci_quantity: Optional[str] = None
    #: seeds dispatched per preset before the first stopping check.
    min_seeds: int = 8
    #: seeds added per preset per later round (doubled for presets the
    #: solver flags as contested).
    round_size: int = 4

    def __post_init__(self) -> None:
        from repro.service.executors import BACKENDS

        if not self.seeds:
            raise CampaignError("campaign needs at least one seed")
        if self.jobs < 0:
            raise CampaignError(f"jobs must be >= 0, got {self.jobs}")
        if self.adaptive:
            if self.ci_width is None or self.ci_width <= 0:
                raise CampaignError("--adaptive needs --ci-width > 0")
            if self.min_seeds < 2:
                raise CampaignError("adaptive min_seeds must be >= 2")
            if self.round_size < 1:
                raise CampaignError("adaptive round_size must be >= 1")
        if not self.presets:
            raise CampaignError("campaign needs at least one preset")
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignError("campaign seeds must be unique")
        if self.backend not in ("auto",) + BACKENDS:
            raise CampaignError(
                f"unknown backend {self.backend!r} "
                f"(choose from auto, {', '.join(BACKENDS)})"
            )
        if self.backend == "queue" and not self.queue_dir:
            raise CampaignError("backend 'queue' needs queue_dir")

    def campaign_id(self) -> str:
        """Cache directory name: human-readable prefix + grid digest.

        Seeds are deliberately excluded so campaigns over different seed
        ranges of the same grid share one cache.
        """
        digest = stable_digest(
            {
                "experiment_id": self.experiment_id.upper(),
                "full": self.full,
                "presets": list(self.presets),
                "satin": self.satin or {},
                "code": CODE_VERSION,
            },
            length=12,
        )
        return f"{self.experiment_id.upper()}-{digest}"

    def trial_tasks(self) -> List[Dict[str, Any]]:
        """The grid expanded to task dicts, preset-major then seed order."""
        tasks: List[Dict[str, Any]] = []
        for preset in self.presets:
            for seed in self.seeds:
                config = build_trial_config(int(seed), preset=preset, satin=self.satin)
                tasks.append(
                    {
                        "key": trial_key(
                            self.experiment_id,
                            int(seed),
                            self.full,
                            config.config_digest(),
                        ),
                        "experiment_id": self.experiment_id.upper(),
                        "seed": int(seed),
                        "full": self.full,
                        "preset": preset,
                        "satin": dict(self.satin) if self.satin else None,
                    }
                )
        return tasks


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    spec: CampaignSpec
    total: int
    records: List[Dict[str, Any]]  # ok records, in task order
    cached: int
    ran: int
    quarantined: List[Dict[str, Any]]
    rendered: str
    #: path of the run manifest written beside the result cache.
    manifest_path: Optional[str] = None
    #: True when the run was interrupted (SIGINT or a service cancel);
    #: the manifest is partial and marked ``cancelled: true``.
    cancelled: bool = False

    @property
    def cache_hit_ratio(self) -> float:
        return self.cached / self.total if self.total else 0.0


def make_record(task: Dict[str, Any], outcome: TrialOutcome) -> Dict[str, Any]:
    """The JSONL record persisted for one completed trial."""
    return {
        "key": task["key"],
        "status": "ok",
        "experiment_id": task["experiment_id"],
        "seed": task["seed"],
        "preset": task["preset"],
        "full": task["full"],
        "elapsed": round(outcome.elapsed, 6),
        "attempts": outcome.attempts,
        "payload": outcome.payload,
    }


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def aggregate_records(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Merge trial records into per-preset paper-vs-measured tables.

    For every comparison quantity the per-seed ``measured`` values become
    a sample set summarised by :class:`repro.analysis.stats.Summary` plus
    a 95% confidence interval — the Monte-Carlo analogue of the single
    measured column ``experiments/report.py`` prints.
    """
    sections: List[str] = []
    by_preset: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_preset.setdefault(record["preset"], []).append(record)

    for preset, group in by_preset.items():
        quantities: List[str] = []
        paper: Dict[str, Any] = {}
        samples: Dict[str, List[float]] = {}
        for record in group:
            for row in record["payload"].get("comparisons", []):
                q = row["quantity"]
                if q not in samples:
                    quantities.append(q)
                    samples[q] = []
                    paper[q] = row["paper"]
                measured = row["measured"]
                if isinstance(measured, (int, float)) and not isinstance(measured, bool):
                    samples[q].append(float(measured))
        rows = []
        for q in quantities:
            values = samples[q]
            if not values:
                rows.append([q, _fmt(paper[q]), "n/a", "n/a", "n/a", "n/a", "0"])
                continue
            summary = Summary.of(values)
            lo, hi = mean_ci(values)
            rows.append(
                [
                    q,
                    _fmt(paper[q]),
                    _fmt(summary.average),
                    f"[{_fmt(lo)}, {_fmt(hi)}]",
                    _fmt(summary.minimum),
                    _fmt(summary.maximum),
                    str(summary.count),
                ]
            )
        sections.append(
            render_table(
                ("quantity", "paper", "mean", "95% ci", "min", "max", "n"),
                rows,
                title=f"preset {preset} — {len(group)} trials",
            )
        )
    return sections


def render_campaign(
    spec: CampaignSpec,
    records: Sequence[Dict[str, Any]],
    cached: int,
    ran: int,
    quarantined: Sequence[Dict[str, Any]],
) -> str:
    total = len(spec.seeds) * len(spec.presets)
    lines = [
        f"# campaign {spec.experiment_id.upper()} — "
        f"{len(spec.seeds)} seeds x {len(spec.presets)} preset(s), "
        f"scale={'full' if spec.full else 'fast'}",
        f"trials: {total} total, {ran} ran, {cached} cached, "
        f"{len(quarantined)} quarantined",
        "",
    ]
    lines.extend(aggregate_records(records))
    if quarantined:
        lines.append("")
        lines.append("quarantined trials (failed every attempt):")
        for item in quarantined:
            failures = "+".join(item.get("failures", []) + [item["status"]])
            lines.append(
                f"  - seed={item['seed']} preset={item['preset']} "
                f"[{failures}] after {item['attempts']} attempt(s)"
            )
    return "\n".join(lines)


@dataclass
class SweepRun:
    """What the backend-agnostic supervision phase produced.

    Shared by campaigns and chaos sweeps: everything up to "ok records in
    task order" is identical; only rendering and manifest decoration
    differ between the two.
    """

    tasks: List[Dict[str, Any]]
    store: ResultStore
    records: List[Dict[str, Any]]
    cached: int
    ran: int
    quarantined: List[Dict[str, Any]]
    supervisor: MetricsRegistry
    cancelled: bool
    started_wall: float
    #: deterministic store-health summary (:meth:`ResultStore.health`).
    store_health: Optional[Dict[str, Any]] = None

    @property
    def wall_seconds(self) -> float:
        return time.monotonic() - self.started_wall


def run_sweep(
    spec,
    trial_fn: str,
    stream: Optional[TextIO] = None,
    progress: Union[bool, str] = True,
    observer: Optional[Observer] = None,
    cancel_event: Optional[threading.Event] = None,
) -> SweepRun:
    """Cache consult + executor fan-out + store writeback, backend-agnostic.

    ``spec`` is any campaign-shaped spec (``trial_tasks``/``campaign_id``/
    ``backend``/``jobs``/...).  On cancellation (``cancel_event`` set or
    ``KeyboardInterrupt``) the pool is drained, completed records are kept,
    and the returned :class:`SweepRun` carries ``cancelled=True`` — callers
    still render and write a partial manifest.
    """
    from repro.service.executors import execute_tasks, make_executor

    started_wall = time.monotonic()
    tasks = spec.trial_tasks()
    store = ResultStore(spec.cache_dir, spec.campaign_id())
    # Index-backed open: a warm --resume seeks straight to its cache hits
    # instead of streaming every shard (store.full_scans stays 0).
    store.ensure_index()

    cached_records: Dict[str, Dict[str, Any]] = {}
    pending: List[Dict[str, Any]] = []
    for task in tasks:
        record = store.ok_record(task["key"]) if spec.resume else None
        if record is not None:
            cached_records[task["key"]] = record
        else:
            pending.append(task)

    supervisor = MetricsRegistry()
    meter = ProgressMeter(
        total=len(tasks),
        registry=supervisor,
        stream=stream,
        enabled=progress is not False,
        quiet=progress == "quiet",
    )

    def notify(event: str, info: Dict[str, Any]) -> None:
        if observer is not None:
            observer(event, info)

    if cached_records:
        meter.note_cached(len(cached_records))
        notify("cached", {"count": len(cached_records)})

    quarantined: List[Dict[str, Any]] = []
    ok_records: Dict[str, Dict[str, Any]] = {}

    def finalize_member(task: Dict[str, Any], outcome: TrialOutcome) -> None:
        supervisor.histogram("campaign.trial_wall_seconds").observe(outcome.elapsed)
        supervisor.histogram("campaign.trial_attempts").observe(float(outcome.attempts))
        if outcome.ok:
            record = make_record(task, outcome)
            store.put(record)
            ok_records[task["key"]] = record
            meter.note_done()
            notify("done", {"key": task["key"], "seed": task.get("seed")})
        else:
            entry = {
                "key": task["key"],
                "status": outcome.status,
                "seed": task["seed"],
                "preset": task["preset"],
                "attempts": outcome.attempts,
                "failures": outcome.failures,
                "error": outcome.error,
            }
            store.quarantine(entry)
            quarantined.append(entry)
            meter.note_failed()
            notify("failed", {"key": task["key"], "status": outcome.status})

    def on_retry(task: Dict[str, Any], kind: str) -> None:
        meter.note_retry()
        notify("retry", {"key": task["key"], "kind": kind})

    executor = make_executor(
        backend=spec.backend,
        jobs=spec.jobs,
        timeout=spec.timeout,
        metrics=supervisor,
        queue_dir=getattr(spec, "queue_dir", None),
        queue_workers=getattr(spec, "queue_workers", 0),
    )
    outcomes, cancelled = execute_tasks(
        pending,
        trial_fn,
        executor,
        max_attempts=spec.max_attempts,
        on_final=finalize_member,
        on_retry=on_retry,
        metrics=supervisor,
        cancel_event=cancel_event,
    )
    meter.finish()
    if cancelled:
        supervisor.counter("campaign.cancelled").inc()
        notify("cancelled", {"completed": len(outcomes), "pending": len(pending)})

    records: List[Dict[str, Any]] = []
    for task in tasks:  # task order => deterministic aggregation
        if task["key"] in cached_records:
            records.append(cached_records[task["key"]])
        elif task["key"] in ok_records:
            records.append(ok_records[task["key"]])

    # Persist the key index so the next --resume is O(1) per key, and
    # surface store health (truncation, reindexing, lookup counters) in
    # the supervisor registry + the manifest's store section.
    store.save_index()
    store_health = store.health()
    if store_health["truncated_records"]:
        supervisor.counter("campaign.store_corrupt_lines").inc(
            store_health["truncated_records"]
        )
    if store.lazy_reindexed:
        supervisor.counter("campaign.store_lazy_reindexed").inc(
            store.lazy_reindexed
        )
    if store.full_scans:
        supervisor.counter("campaign.store_full_scans").inc(store.full_scans)
    if store.record_reads:
        supervisor.counter("campaign.store_record_reads").inc(store.record_reads)

    return SweepRun(
        tasks=tasks,
        store=store,
        records=records,
        cached=len(cached_records),
        ran=len(pending),
        quarantined=quarantined,
        supervisor=supervisor,
        cancelled=cancelled,
        started_wall=started_wall,
        store_health=store_health,
    )


def run_campaign(
    spec: CampaignSpec,
    stream: Optional[TextIO] = None,
    progress: Union[bool, str] = True,
    trial_fn: str = TRIAL_FN,
    observer: Optional[Observer] = None,
    cancel_event: Optional[threading.Event] = None,
) -> CampaignResult:
    """Execute a campaign end-to-end; never aborts on individual trials.

    ``trial_fn`` is the worker-side function's import path; tests override
    it to inject hanging/crashing trials against a real campaign.
    ``progress`` is ``True`` (live meter), ``False`` (silent), or
    ``"quiet"`` (one final tally line).  A ``KeyboardInterrupt`` (or a set
    ``cancel_event``) cancels cleanly: the pool is drained, completed
    shards stay flushed, and a partial manifest marked ``cancelled: true``
    is written before returning.

    With ``spec.adaptive`` set, dispatch is handed to the sequential-CI
    planner (lazy import: the planner itself drives rounds through
    :func:`run_sweep`), which stops consuming seeds per preset the
    moment the target CI width is met.
    """
    if getattr(spec, "adaptive", False):
        from repro.analysis.planning.planner import run_adaptive_campaign

        return run_adaptive_campaign(
            spec,
            stream=stream,
            progress=progress,
            trial_fn=trial_fn,
            observer=observer,
            cancel_event=cancel_event,
        )
    sweep = run_sweep(
        spec, trial_fn,
        stream=stream, progress=progress,
        observer=observer, cancel_event=cancel_event,
    )
    rendered = render_campaign(
        spec, sweep.records,
        cached=sweep.cached, ran=sweep.ran, quarantined=sweep.quarantined,
    )
    if sweep.cancelled:
        rendered = (
            f"!! campaign cancelled — partial results "
            f"({len(sweep.records)}/{len(sweep.tasks)} trials)\n" + rendered
        )
    result = CampaignResult(
        spec=spec,
        total=len(sweep.tasks),
        records=sweep.records,
        cached=sweep.cached,
        ran=sweep.ran,
        quarantined=sweep.quarantined,
        rendered=rendered,
        cancelled=sweep.cancelled,
    )
    manifest = build_manifest(
        spec,
        result,
        wall_seconds=sweep.wall_seconds,
        supervisor_snapshot=sweep.supervisor.snapshot(),
        cancelled=sweep.cancelled,
        store_health=sweep.store_health,
    )
    result.manifest_path = write_manifest(sweep.store.directory, manifest)
    return result
