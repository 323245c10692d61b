"""Chaos sweeps: fault plans x seeds through the campaign pool.

``python -m repro chaos <scenario> --faults <plan> --seeds N --jobs N``
runs one hardened SATIN stack per ``(seed, fault_seed)`` pair with the
plan's faults injected, classifies every injection (detected /
degraded-but-correct / missed), and merges the per-trial results into a
**survival matrix** that lands in the rendered report, the campaign
manifest (``survival`` section, picked up by ``repro metrics``), and an
optional JSON artifact for CI.

Determinism: each trial's event timeline is digested through the
simulator's fire hook into an ``event_checksum``; the same
``(config_digest, fault_seed)`` pair yields the identical checksum and
alarm stream at any ``--jobs`` level, which the golden determinism test
pins.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from repro.analysis.tables import render_table
from repro.campaign.digest import CODE_VERSION, stable_digest
from repro.campaign.runner import CampaignResult, Observer, Sweep, run_sweep
from repro.config import DEFAULT_PRESET, preset_config
from repro.errors import CampaignError, FaultInjectionError
from repro.experiments.common import build_stack
from repro.faults.injector import OUTCOMES, FaultInjector
from repro.faults.plan import FaultPlan, plan_by_name
from repro.hw.platform import trial_scope
from repro.obs.metrics import use_registry
from repro.obs.scenarios import scenario_by_name
from repro.service.jobs import Execution

#: Import path of the worker-side chaos trial function.
CHAOS_TRIAL_FN = "repro.faults.chaos:run_chaos_trial"


@dataclass
class ChaosSpec:
    """Everything that defines a chaos sweep.

    :meth:`sweep` states what it shares with a campaign, so chaos runs go
    through the same sweep machinery and write first-class campaign
    manifests.
    """

    scenario: str
    seeds: Sequence[int]
    plan_name: str = "smoke"
    fault_seed_base: int = 0
    preset: str = DEFAULT_PRESET
    duration: Optional[float] = None
    execution: Execution = field(default_factory=Execution)

    def __post_init__(self) -> None:
        if not self.seeds:
            raise CampaignError("chaos sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignError("chaos sweep seeds must be unique")
        self.plan: FaultPlan = plan_by_name(self.plan_name)
        satin_scenario(self.scenario)  # fail fast on what the trial rejects

    @property
    def experiment_id(self) -> str:
        return f"CHAOS-{self.scenario.upper()}"

    def effective_duration(self) -> float:
        return self.duration if self.duration is not None else self.plan.duration

    def campaign_id(self) -> str:
        digest = stable_digest(
            {
                "experiment_id": self.experiment_id,
                "plan": self.plan.digest(),
                "preset": self.preset,
                "duration": self.effective_duration(),
                "code": CODE_VERSION,
            },
            length=12,
        )
        return f"{self.experiment_id}-{digest}"

    def fault_seed_for(self, seed: int) -> int:
        return self.fault_seed_base + int(seed)

    def trial_tasks(self) -> List[Dict[str, Any]]:
        tasks: List[Dict[str, Any]] = []
        duration = self.effective_duration()
        for seed in self.seeds:
            config = preset_config(self.preset, seed=int(seed))
            fault_seed = self.fault_seed_for(int(seed))
            tasks.append(
                {
                    "key": stable_digest(
                        {
                            "experiment_id": self.experiment_id,
                            "seed": int(seed),
                            "fault_seed": fault_seed,
                            "plan": self.plan.digest(),
                            "config": config.config_digest(),
                            "duration": duration,
                            "code": CODE_VERSION,
                        }
                    ),
                    "experiment_id": self.experiment_id,
                    "scenario": self.scenario,
                    "seed": int(seed),
                    "fault_seed": fault_seed,
                    "plan": self.plan.name,
                    "preset": self.preset,
                    "duration": duration,
                    "full": False,
                }
            )
        return tasks

    def sweep(self) -> Sweep:
        """The sweep over every seed: one preset, one (fast) scale."""
        return Sweep(
            experiment_id=self.experiment_id,
            campaign_id=self.campaign_id(),
            tasks=self.trial_tasks(),
            seeds=list(self.seeds),
            presets=(self.preset,),
            full=False,
            execution=self.execution,
        )


@dataclass
class ChaosResult(CampaignResult):
    """Outcome of one chaos sweep: a campaign result plus its survival."""

    #: aggregated survival matrix: ``{class: {injected, detected, ...}}``.
    survival: Dict[str, Dict[str, int]] = field(default_factory=dict)
    totals: Dict[str, int] = field(default_factory=dict)

    @property
    def missed(self) -> int:
        return self.totals.get("missed", 0)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def satin_scenario(name: str):
    """The named scenario, which must run SATIN: without it there is no
    degradation machinery to audit."""
    scenario = scenario_by_name(name)
    if not scenario.with_satin:
        raise FaultInjectionError(
            f"scenario {scenario.name!r} runs without SATIN; chaos needs the "
            "engine whose degradation is under test"
        )
    return scenario


def run_chaos_trial(task: Dict[str, Any]) -> Dict[str, Any]:
    """One seeded scenario run with fault injection; returns the record.

    Builds the scenario's stack under a scoped metrics registry and a
    trial scope (its memory is freed when the record is built), hardens
    SATIN, installs the injector, digests the event timeline through the
    simulator fire hook, runs the plan's horizon plus a drain window (so
    every consumed fault's watchdog check and alarm can land), and
    classifies the injections into the survival matrix.
    """
    plan = plan_by_name(task["plan"])
    duration = float(task.get("duration") or plan.duration)
    scenario = satin_scenario(task["scenario"])

    with use_registry() as registry, trial_scope():
        config = preset_config(task["preset"], seed=int(task["seed"]))
        if plan.needs_snapshot and not config.satin.use_snapshot:
            config.satin = replace(config.satin, use_snapshot=True)
        stack = build_stack(
            machine_config=config,
            with_satin=True,
            with_evader=scenario.with_evader,
        )
        satin = stack.satin
        watchdog = satin.harden()
        injector = FaultInjector(
            stack.machine, satin, plan, fault_seed=int(task["fault_seed"]),
            horizon=duration,
        ).install()

        checksum = hashlib.sha256()

        def fire_hook(now: float, seq: int) -> None:
            checksum.update(f"{now.hex()}|{seq};".encode("ascii"))

        stack.machine.sim.set_fire_hook(fire_hook)
        stack.machine.run(until=duration)
        injector.deactivate()
        max_delay = 0.0
        for spec in plan.specs:
            if spec.fault_class == "timer_late":
                max_delay = spec.param("max_delay", 1.0)
        drain = (
            watchdog.grace * (watchdog.max_retries + 2) + max_delay + 2.0
        )
        stack.machine.run(until=duration + drain)
        stack.machine.sim.set_fire_hook(None)

        survival = injector.classify()
        alarm_digest = hashlib.sha256()
        for alarm in satin.alarms.alarms:
            alarm_digest.update(
                f"{alarm.time.hex()}|{alarm.kind}|{alarm.severity}|"
                f"{alarm.core_index}|{alarm.area_index};".encode("ascii")
            )

        return {
            "scenario": scenario.name,
            "seed": int(task["seed"]),
            "fault_seed": int(task["fault_seed"]),
            "plan": plan.name,
            "plan_digest": plan.digest(),
            "duration": duration,
            "drain": drain,
            "survival": survival["classes"],
            "totals": survival["totals"],
            "injections": survival["injections"],
            "event_checksum": checksum.hexdigest(),
            "alarm_checksum": alarm_digest.hexdigest(),
            "alarm_severities": satin.alarms.severity_counts(),
            "rounds": satin.round_count,
            "watchdog": {
                "checks": watchdog.checks,
                "missed_wakes": watchdog.missed_wakes,
                "rearms": watchdog.rearms,
                "late_rounds": watchdog.late_rounds,
                "degraded_rounds": watchdog.degraded_rounds,
            },
            "queue": {
                "invalid_entries": satin.wakeup_queue.invalid_entries,
                "fallback_draws": satin.wakeup_queue.fallback_draws,
            },
            "checker": {
                "snapshot_reverifies": satin.checker.snapshot_reverifies,
                "snapshot_suspected": satin.checker.snapshot_suspected,
                "chunked_fallbacks": satin.checker.chunked_fallbacks,
            },
            "injector": injector.counters(),
            "metrics": registry.snapshot(),
        }


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

def empty_matrix(plan: FaultPlan) -> Dict[str, Dict[str, int]]:
    return {
        cls: {"injected": 0, "detected": 0, "degraded": 0, "missed": 0}
        for cls in plan.fault_classes
    }


def merge_survival(
    matrix: Dict[str, Dict[str, int]], trial_matrix: Dict[str, Dict[str, Any]]
) -> None:
    """Fold one trial's survival classes into the aggregate (in place)."""
    for cls, row in trial_matrix.items():
        agg = matrix.setdefault(
            cls, {"injected": 0, "detected": 0, "degraded": 0, "missed": 0}
        )
        for key in agg:
            agg[key] += int(row.get(key, 0))


def render_survival(
    matrix: Dict[str, Dict[str, int]], title: str
) -> str:
    rows = []
    totals = {key: 0 for key in ("injected",) + OUTCOMES}
    for cls, row in matrix.items():
        rows.append(
            [cls]
            + [str(row[key]) for key in ("injected",) + OUTCOMES]
        )
        for key in totals:
            totals[key] += row[key]
    rows.append(
        ["TOTAL"] + [str(totals[key]) for key in ("injected",) + OUTCOMES]
    )
    return render_table(
        ("fault class", "injected", "detected", "degraded", "missed"),
        rows,
        title=title,
    )


def render_chaos(spec: ChaosSpec, result_matrix, totals, records, cached, ran,
                 quarantined) -> str:
    lines = [
        f"# chaos {spec.experiment_id} — plan {spec.plan.name!r}, "
        f"{len(spec.seeds)} seed(s), horizon {spec.effective_duration():g}s",
        f"trials: {len(spec.seeds)} total, {ran} ran, {cached} cached, "
        f"{len(quarantined)} quarantined",
        "",
        render_survival(
            result_matrix,
            f"survival matrix — {totals.get('injected', 0)} faults injected",
        ),
    ]
    missed = totals.get("missed", 0)
    if missed:
        lines.append("")
        lines.append(f"!! {missed} fault(s) MISSED — silent divergence")
        for record in records:
            for injection in record["payload"].get("injections", []):
                if injection.get("outcome") == "missed":
                    lines.append(
                        f"  - seed={record['seed']} t={injection['time']:.6f}s "
                        f"{injection['class']}: {injection['note']}"
                    )
    else:
        lines.append("")
        lines.append(
            "all faults accounted for: detected or degraded-but-correct"
        )
    if quarantined:
        lines.append("")
        lines.append("quarantined trials (failed every attempt):")
        for item in quarantined:
            failures = "+".join(item.get("failures", []) + [item["status"]])
            lines.append(
                f"  - seed={item['seed']} [{failures}] "
                f"after {item['attempts']} attempt(s)"
            )
    return "\n".join(lines)


def run_chaos(
    spec: ChaosSpec,
    stream: Optional[TextIO] = None,
    progress: Union[bool, str] = True,
    trial_fn: str = CHAOS_TRIAL_FN,
    observer: Optional[Observer] = None,
    cancel_event: Optional[threading.Event] = None,
) -> ChaosResult:
    """Execute a chaos sweep end-to-end through the executor layer.

    Shares :func:`repro.campaign.runner.run_sweep` with campaigns, so
    every backend (inline/fork/queue), the cache, cancellation and
    quarantine behave identically; only the survival aggregation differs.
    """
    sweep = spec.sweep()
    run = run_sweep(
        sweep, trial_fn,
        stream=stream, progress=progress,
        observer=observer, cancel_event=cancel_event,
    )
    records = run.records

    matrix = empty_matrix(spec.plan)
    totals = {key: 0 for key in ("injected",) + OUTCOMES}
    for record in records:
        merge_survival(matrix, record["payload"].get("survival", {}))
    for row in matrix.values():
        for key in totals:
            totals[key] += row[key]

    rendered = render_chaos(
        spec, matrix, totals, records,
        cached=run.cached, ran=run.ran, quarantined=run.quarantined,
    )
    if run.cancelled:
        rendered = (
            f"!! chaos sweep cancelled — partial results "
            f"({len(records)}/{len(sweep.tasks)} trials)\n" + rendered
        )
    result = ChaosResult(
        spec=spec,
        total=len(sweep.tasks),
        records=records,
        cached=run.cached,
        ran=run.ran,
        quarantined=run.quarantined,
        rendered=rendered,
        survival=matrix,
        totals=totals,
        cancelled=run.cancelled,
    )
    return run.finish(sweep, result, survival={
        "scenario": spec.scenario,
        "plan": spec.plan.name,
        "plan_digest": spec.plan.digest(),
        "horizon": spec.effective_duration(),
        "classes": matrix,
        "totals": totals,
        "event_checksums": {
            str(record["seed"]): record["payload"].get("event_checksum")
            for record in records
        },
    })
