"""``repro plan`` — search SATIN parameters against an overhead budget.

The grid crosses platform presets (the core set: which cluster scans and
how fast), scan-period goals ``tgoal``, wake-up deviation fractions (the
wake-up law of Section V-C) and partition modes (the area count: one
area per System.map section, greedily packed areas, or the whole-kernel
baseline).  Every candidate is evaluated **analytically first** — the
real partitioner supplies exact area counts/sizes, the closed-form
solver supplies overhead and detection-latency envelopes — and a
candidate is feasible when

* every area respects the Eq. 2 safe-area bound the engine itself
  enforces at install time,
* one round's worst-case scan fits inside the round period, and
* the worst-case steady-state overhead stays inside the budget.

Feasible candidates are ranked by worst-case detection latency (then
worst-case overhead, then the candidate tuple, so ties break
deterministically).  Simulation enters only to split candidates whose
latency envelopes overlap the winner's: ``--tie-break-seeds N`` runs a
short E9 campaign per contested candidate and re-ranks them on the
measured mean area gap.  With ``N = 0`` (the default) the answer is
purely analytical and costs milliseconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.planning.solver import (
    Interval,
    RaceModel,
    detection_latency_bounds,
    scan_overhead_bounds,
)
from repro.config import MachineConfig, preset_config
from repro.core.race import RaceParameters, max_safe_area_size
from repro.core.areas import build_partition
from repro.errors import CampaignError
from repro.kernel.systemmap import SystemMap

#: Partition modes the search considers by default; "whole" is the
#: paper's losing baseline and is only included when asked for.
DEFAULT_PARTITIONS = ("sections", "packed")
DEFAULT_TGOALS = (76.0, 152.0)
DEFAULT_DEVIATIONS = (0.5, 1.0)
DEFAULT_PRESETS = ("juno_r1",)
DEFAULT_BUDGET = 0.002  # max secure-world CPU fraction


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the search grid."""

    preset: str
    tgoal: float
    deviation_fraction: float
    partition_mode: str

    def satin_overrides(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "tgoal": self.tgoal,
            "deviation_fraction": self.deviation_fraction,
            "partition_mode": self.partition_mode,
        }
        if self.partition_mode == "packed":
            # The engine refuses packed partitioning without an explicit
            # bound; pin it to the same Eq. 2 value the analytic
            # evaluation used, so simulation sees the evaluated areas.
            out["max_area_size"] = max_safe_area_size(RaceParameters())
        return out

    def label(self) -> str:
        return (
            f"{self.preset}/{self.partition_mode}"
            f"/tgoal={self.tgoal:g}/dev={self.deviation_fraction:g}"
        )


def evaluate_candidate(
    candidate: PlanCandidate,
    machine_cfg: MachineConfig,
    overhead_budget: float,
) -> Dict[str, Any]:
    """Solver verdict for one candidate — no simulation involved."""
    model = RaceModel.from_machine(machine_cfg)
    bound = max_safe_area_size(RaceParameters())
    system_map = SystemMap(
        total=machine_cfg.kernel.image_size,
        count=machine_cfg.kernel.section_count,
    )
    max_size = None if candidate.partition_mode == "whole" else bound
    areas = build_partition(
        system_map, mode=candidate.partition_mode, max_area_size=max_size
    )
    area_count = len(areas)
    largest_area = max(area.length for area in areas)
    tp = candidate.tgoal / area_count

    gap = detection_latency_bounds(
        model,
        area_count=area_count,
        tgoal=candidate.tgoal,
        deviation_fraction=candidate.deviation_fraction,
        area_size=largest_area,
    )
    overhead = scan_overhead_bounds(model, area_count, candidate.tgoal)

    _, t1b_hi = model.ts_1byte.support()
    _, sw_hi = model.ts_switch.support()
    scan_cost_hi = largest_area * t1b_hi + 2.0 * sw_hi

    reasons: List[str] = []
    if largest_area > bound:
        reasons.append(
            f"largest area {largest_area:,} B exceeds the Eq. 2 bound "
            f"{bound:,} B (attacker can hide mid-scan)"
        )
    if scan_cost_hi >= tp:
        reasons.append(
            f"worst-case round scan {scan_cost_hi:.3g}s overruns the "
            f"round period {tp:.3g}s"
        )
    if overhead.hi > overhead_budget:
        reasons.append(
            f"worst-case overhead {overhead.hi:.3g} exceeds budget "
            f"{overhead_budget:.3g}"
        )

    return {
        "candidate": {
            "preset": candidate.preset,
            "tgoal": candidate.tgoal,
            "deviation_fraction": candidate.deviation_fraction,
            "partition_mode": candidate.partition_mode,
        },
        "label": candidate.label(),
        "area_count": area_count,
        "largest_area": largest_area,
        "area_bound": bound,
        "round_period": tp,
        "feasible": not reasons,
        "infeasible_reasons": reasons,
        "detection_latency": gap.as_dict(),
        "expected_latency": area_count * tp,
        "overhead": overhead.as_dict(),
    }


def _rank_key(report: Dict[str, Any]):
    return (
        report["detection_latency"]["hi"],
        report["overhead"]["hi"],
        report["label"],
    )


def _contested_with(
    winner: Dict[str, Any], feasible: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Feasible candidates whose latency envelope overlaps the winner's."""
    w = Interval(**winner["detection_latency"])
    out = []
    for report in feasible:
        if report is winner:
            continue
        if w.overlaps(Interval(**report["detection_latency"])):
            out.append(report)
    return out


def _simulate_gap(
    candidate: Dict[str, Any],
    seeds: Sequence[int],
    cache_dir: str,
) -> Optional[float]:
    """Measured mean "avg area gap" from a short E9 campaign."""
    from repro.campaign.runner import CampaignSpec, run_campaign
    from repro.service.jobs import Execution

    spec = CampaignSpec(
        experiment_id="E9",
        seeds=list(seeds),
        presets=(candidate["preset"],),
        satin=PlanCandidate(
            candidate["preset"],
            candidate["tgoal"],
            candidate["deviation_fraction"],
            candidate["partition_mode"],
        ).satin_overrides(),
        execution=Execution(jobs=0, cache_dir=cache_dir, resume=True),
    )
    result = run_campaign(spec, progress=False)
    samples: List[float] = []
    for record in result.records:
        for row in record["payload"].get("comparisons", []):
            if row["quantity"] == "avg area gap":
                measured = row["measured"]
                if isinstance(measured, (int, float)):
                    samples.append(float(measured))
    if not samples:
        return None
    return sum(samples) / len(samples)


def search_plan(
    presets: Sequence[str] = DEFAULT_PRESETS,
    tgoals: Sequence[float] = DEFAULT_TGOALS,
    deviations: Sequence[float] = DEFAULT_DEVIATIONS,
    partitions: Sequence[str] = DEFAULT_PARTITIONS,
    overhead_budget: float = DEFAULT_BUDGET,
    tie_break_seeds: int = 0,
    tie_break_top: int = 3,
    seed_base: int = 2019,
    cache_dir: str = ".repro-cache",
) -> Dict[str, Any]:
    """Run the full search; returns a deterministic JSON-safe report."""
    if overhead_budget <= 0:
        raise CampaignError("overhead budget must be positive")
    candidates = [
        PlanCandidate(preset, tgoal, deviation, partition)
        for preset, tgoal, deviation, partition in itertools.product(
            presets, tgoals, deviations, partitions
        )
    ]
    if not candidates:
        raise CampaignError("plan search needs a non-empty grid")

    reports = []
    for candidate in candidates:
        machine_cfg = preset_config(candidate.preset, seed=seed_base)
        reports.append(
            evaluate_candidate(candidate, machine_cfg, overhead_budget)
        )
    reports.sort(key=_rank_key)

    feasible = [report for report in reports if report["feasible"]]
    out: Dict[str, Any] = {
        "grid": {
            "presets": list(presets),
            "tgoals": [float(t) for t in tgoals],
            "deviations": [float(d) for d in deviations],
            "partitions": list(partitions),
        },
        "overhead_budget": overhead_budget,
        "candidates": reports,
        "feasible": len(feasible),
        "winner": None,
        "contested": [],
        "tie_break": None,
    }
    if not feasible:
        return out

    winner = feasible[0]
    contested = _contested_with(winner, feasible)
    out["contested"] = [report["label"] for report in contested]

    if tie_break_seeds > 0 and contested:
        seeds = list(range(seed_base, seed_base + tie_break_seeds))
        measured: Dict[str, Optional[float]] = {}
        # Simulation is the expensive step: only the closest contenders
        # (by expected latency, then label for determinism) get seeds.
        closest = sorted(
            contested, key=lambda r: (r["expected_latency"], r["label"])
        )[: max(tie_break_top, 0)]
        pool = [winner] + closest
        for report in pool:
            measured[report["label"]] = _simulate_gap(
                report["candidate"], seeds, cache_dir
            )
        ranked = sorted(
            pool,
            key=lambda r: (
                measured[r["label"]] is None,  # unmeasured last
                measured[r["label"]] if measured[r["label"]] is not None else 0.0,
                r["label"],
            ),
        )
        winner = ranked[0]
        out["tie_break"] = {
            "seeds": seeds,
            "quantity": "avg area gap",
            "measured": measured,
        }
    out["winner"] = winner
    return out


def render_plan(report: Dict[str, Any]) -> str:
    """Human rendering of a search report."""
    lines = [
        f"# repro plan — {len(report['candidates'])} candidate(s), "
        f"overhead budget {report['overhead_budget']:g}",
    ]
    for entry in report["candidates"]:
        gap = entry["detection_latency"]
        ov = entry["overhead"]
        status = "ok " if entry["feasible"] else "INFEASIBLE"
        lines.append(
            f"  [{status}] {entry['label']}: {entry['area_count']} areas "
            f"(largest {entry['largest_area']:,} B), latency "
            f"[{gap['lo']:.4g}, {gap['hi']:.4g}]s "
            f"(expected {entry['expected_latency']:.4g}s), overhead "
            f"[{ov['lo']:.3g}, {ov['hi']:.3g}]"
        )
        for reason in entry["infeasible_reasons"]:
            lines.append(f"      - {reason}")
    if report["winner"] is None:
        lines.append("no feasible candidate — raise the overhead budget "
                     "or widen the grid")
        return "\n".join(lines)
    lines.append(f"winner: {report['winner']['label']}")
    if report["contested"]:
        lines.append(
            "contested (latency envelopes overlap the winner's): "
            + ", ".join(report["contested"])
        )
    tie = report.get("tie_break")
    if tie:
        lines.append(
            f"tie-break over {len(tie['seeds'])} seed(s) on "
            f"{tie['quantity']!r}:"
        )
        for label, value in tie["measured"].items():
            shown = "n/a" if value is None else f"{value:.4g}s"
            lines.append(f"  {label}: {shown}")
    return "\n".join(lines)
