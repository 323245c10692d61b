"""Full reproduction report: run every experiment, render one document.

``generate_report`` regenerates every table and figure and assembles a
markdown document with the rendered tables and the paper-vs-measured
comparison rows — the programmatic source of EXPERIMENTS.md-style output,
also exposed through ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.ablations import run_ablations
from repro.experiments.common import ExperimentResult
from repro.experiments.detection import run_detection_experiment
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure7 import run_figure7
from repro.experiments.prober_comparison import run_prober_comparison
from repro.experiments.race_analysis import (
    run_escape_comparison,
    run_race_analysis,
)
from repro.experiments.recover_delay import run_recover_delay
from repro.experiments.switch_delay import run_switch_delay
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_single_core_ratio, run_table2
from repro.experiments.user_prober_eval import run_user_prober_eval
from repro.workloads.programs import UNIXBENCH_PROGRAMS


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: id, description, fast and full runners."""

    experiment_id: str
    title: str
    fast: Callable[[int], ExperimentResult]
    full: Callable[[int], ExperimentResult]


def _figure7_fast(seed: int) -> ExperimentResult:
    subset = [p for p in UNIXBENCH_PROGRAMS
              if p.name in ("dhrystone2", "syscall_overhead",
                            "file_copy_256B", "pipe_context_switching")]
    return run_figure7(seed=seed, duration=8.0, task_counts=(1,), programs=subset)


#: All experiments, in DESIGN.md index order.
EXPERIMENT_SPECS: List[ExperimentSpec] = [
    ExperimentSpec(
        "E1", "Table I: secure world introspection time",
        lambda seed: run_table1(seed=seed, repetitions=15),
        lambda seed: run_table1(seed=seed, repetitions=50),
    ),
    ExperimentSpec(
        "E2", "Ts_switch: world-switch delay",
        lambda seed: run_switch_delay(seed=seed, repetitions=25),
        lambda seed: run_switch_delay(seed=seed, repetitions=50),
    ),
    ExperimentSpec(
        "E3", "Tns_recover: trace recovery time",
        lambda seed: run_recover_delay(seed=seed, repetitions=25),
        lambda seed: run_recover_delay(seed=seed, repetitions=50),
    ),
    ExperimentSpec(
        "E4", "Table II: probing threshold vs period",
        lambda seed: run_table2(seed=seed, rounds=50),
        lambda seed: run_table2(seed=seed, rounds=50),
    ),
    ExperimentSpec(
        "E5", "Figure 4: threshold stability box plots",
        lambda seed: run_figure4(seed=seed, rounds=50),
        lambda seed: run_figure4(seed=seed, rounds=50),
    ),
    ExperimentSpec(
        "E6", "Single-core vs all-core probing ratio",
        lambda seed: run_single_core_ratio(seed=seed, rounds=200),
        lambda seed: run_single_core_ratio(seed=seed, rounds=400),
    ),
    ExperimentSpec(
        "E7", "Section IV-C race analysis",
        lambda seed: run_race_analysis(seed=seed, mc_trials=5_000),
        lambda seed: run_race_analysis(seed=seed, mc_trials=50_000),
    ),
    ExperimentSpec(
        "E8", "User-level prober vs whole-kernel check",
        lambda seed: run_user_prober_eval(seed=seed, introspection_rounds=5),
        lambda seed: run_user_prober_eval(seed=seed, introspection_rounds=10),
    ),
    ExperimentSpec(
        "E9", "Section VI-B1 detection campaign",
        lambda seed: run_detection_experiment(seed=seed, passes=2),
        lambda seed: run_detection_experiment(seed=seed, passes=10),
    ),
    ExperimentSpec(
        "E10", "Figure 7: UnixBench overhead",
        _figure7_fast,
        lambda seed: run_figure7(seed=seed, duration=16.0),
    ),
    ExperimentSpec(
        "E11", "Live escape-rate comparison",
        lambda seed: run_escape_comparison(seed=seed, rounds=5, mean_period=2.0),
        lambda seed: run_escape_comparison(seed=seed, rounds=12, mean_period=4.0),
    ),
    ExperimentSpec(
        "A1", "SATIN design-choice ablations",
        lambda seed: run_ablations(seed=seed, trace_scans_wanted=2),
        lambda seed: run_ablations(seed=seed, trace_scans_wanted=6),
    ),
    ExperimentSpec(
        "A2", "Prober comparison",
        lambda seed: run_prober_comparison(seed=seed, rounds=3),
        lambda seed: run_prober_comparison(seed=seed, rounds=8),
    ),
]


def spec_by_id(experiment_id: str) -> ExperimentSpec:
    for spec in EXPERIMENT_SPECS:
        if spec.experiment_id.lower() == experiment_id.lower():
            return spec
    known = ", ".join(s.experiment_id for s in EXPERIMENT_SPECS)
    raise KeyError(f"unknown experiment {experiment_id!r} (known: {known})")


def run_experiment(experiment_id: str, seed: int = 2019, full: bool = False) -> ExperimentResult:
    """Run one experiment by id at the chosen scale."""
    spec = spec_by_id(experiment_id)
    runner = spec.full if full else spec.fast
    return runner(seed)


def _format_comparison(result: ExperimentResult) -> str:
    if not result.comparisons:
        return ""
    lines = ["", "paper vs measured:"]
    for row in result.comparisons:
        lines.append(
            f"  - {row['quantity']}: paper={row['paper']} "
            f"measured={row['measured']}"
        )
    return "\n".join(lines)


def _run_specs_parallel(
    chosen: List[ExperimentSpec],
    seed: int,
    full: bool,
    jobs: int,
    progress: "Callable[[str], None] | None",
) -> Dict[str, ExperimentResult]:
    """Fan the chosen experiments out through the campaign task supervisor.

    Each experiment is one task (crash-isolated on the fork pool, retried
    once; ``jobs == 0`` runs inline), and results are reassembled in spec
    order, so the report text is byte-identical to the serial path for the
    same seed.
    """
    from repro.campaign.runner import TRIAL_FN
    from repro.service.executors import execute_tasks, make_executor

    tasks = [
        {
            "key": spec.experiment_id,
            "experiment_id": spec.experiment_id,
            "seed": seed,
            "full": full,
        }
        for spec in chosen
    ]

    def on_final(task, outcome) -> None:
        if progress is not None:
            state = "done" if outcome.ok else outcome.status
            progress(f"{task['experiment_id']}: {state}")

    executor = make_executor("auto", jobs=jobs)
    if progress is not None:
        progress(
            f"running {len(chosen)} experiments across {jobs or 1} worker(s) ..."
        )
    outcomes, cancelled = execute_tasks(tasks, TRIAL_FN, executor, on_final=on_final)
    if cancelled:
        raise KeyboardInterrupt
    results: Dict[str, ExperimentResult] = {}
    for spec in chosen:
        outcome = outcomes[spec.experiment_id]
        if not outcome.ok:
            raise RuntimeError(
                f"experiment {spec.experiment_id} failed in the worker pool:\n"
                f"{outcome.error}"
            )
        payload = outcome.payload
        results[spec.experiment_id] = ExperimentResult(
            experiment_id=spec.experiment_id,
            title=spec.title,
            rendered=payload["rendered"],
            values=payload["values"],
            comparisons=payload["comparisons"],
        )
    return results


def generate_report(
    seed: int = 2019,
    full: bool = False,
    only: "List[str] | None" = None,
    progress: "Callable[[str], None] | None" = None,
    jobs: "int | None" = None,
) -> str:
    """Run the experiment suite and return the assembled report text.

    ``jobs=None`` runs everything serially in-process (the historical
    behaviour); any integer routes the experiments through the campaign
    task supervisor (``jobs`` fork workers; 0 = its inline serial mode;
    negative raises :class:`~repro.errors.CampaignError`).  Both paths
    render identical text for the same seed.
    """
    chosen = (
        [spec_by_id(eid) for eid in only] if only else list(EXPERIMENT_SPECS)
    )
    parallel: Dict[str, ExperimentResult] = {}
    if jobs is not None:
        parallel = _run_specs_parallel(chosen, seed, full, jobs, progress)
    scale = "full (paper-scale)" if full else "fast"
    sections: List[str] = [
        "# SATIN reproduction report",
        "",
        f"seed={seed}, scale={scale}, {len(chosen)} experiments.",
        "",
    ]
    for spec in chosen:
        if spec.experiment_id in parallel:
            result = parallel[spec.experiment_id]
        else:
            if progress is not None:
                progress(f"running {spec.experiment_id}: {spec.title} ...")
            result = (spec.full if full else spec.fast)(seed)
        sections.append(f"## {spec.experiment_id} — {spec.title}")
        sections.append("")
        sections.append("```")
        sections.append(result.rendered)
        sections.append("```")
        comparison = _format_comparison(result)
        if comparison:
            sections.append(comparison)
        sections.append("")
    return "\n".join(sections)
