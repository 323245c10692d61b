"""Adaptive campaign driver: sequential confidence intervals + importance
allocation.

``repro campaign --adaptive --ci-width W`` runs the campaign in rounds
instead of dispatching the whole seed grid up front.  After every round
the planner recomputes the 95% confidence interval of the campaign's
headline quantity per preset and stops dispatching seeds for any preset
whose interval is already narrower than the target.  Presets the
analytical solver flags as *contested* (their Eq. 2 envelope straddles
the decision threshold, so the closed form cannot settle the question)
receive double-sized rounds — the remaining budget concentrates where
simulation is actually needed.

Determinism contract: every stopping decision is a pure function of
(config, seed stream, CI target).  Rounds are barriers; seeds are
consumed as prefixes of the spec's seed list in spec order; widths are
computed from ok-records in parent task order.  A re-run — fresh cache,
warm cache, serial or ``--jobs N`` — therefore consumes the same seeds
and produces a byte-identical manifest fingerprint.  Planner provenance
(seeds saved, stopping round, contested set) is recorded in the
manifest's ``planner`` section, *outside* the fingerprint view.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from repro.analysis.planning.solver import DECISION_THRESHOLD, solve_preset
from repro.analysis.stats import mean_ci
from repro.config import build_trial_config
from repro.errors import CampaignError
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import merge_snapshots

#: Confidence level of the sequential intervals (matches the campaign
#: tables' ``95% ci`` column, so "same CI width" means the same thing).
CONFIDENCE = 0.95


class _TaskSlice:
    """A campaign-shaped proxy dispatching a subset of the parent's tasks.

    ``run_sweep`` only needs ``trial_tasks()``/``campaign_id()`` plus the
    spec's execution attributes, so delegating everything else to the
    parent lets each planner round run through the unmodified sweep
    machinery against one shared store.
    """

    def __init__(self, parent, tasks: Sequence[Dict[str, Any]]):
        self._parent = parent
        self._tasks = list(tasks)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._parent, name)

    def trial_tasks(self) -> List[Dict[str, Any]]:
        return [dict(task) for task in self._tasks]

    def campaign_id(self) -> str:
        return self._parent.campaign_id()


class _PlannedView(_TaskSlice):
    """The consumed slice of the grid, for rendering and the manifest.

    ``seeds`` shadows the parent's so the manifest's spec section and the
    rendered header describe what actually ran (the consumed prefix of
    the seed stream), and ``trial_tasks()`` returns exactly the consumed
    tasks in parent task order — the fingerprint view then covers the
    consumed trials and nothing else.
    """

    def __init__(self, parent, tasks: Sequence[Dict[str, Any]], seeds: Sequence[int]):
        super().__init__(parent, tasks)
        self.seeds = list(seeds)


def _samples_for(
    records: Sequence[Dict[str, Any]], quantity: str
) -> List[float]:
    out: List[float] = []
    for record in records:
        for row in record["payload"].get("comparisons", []):
            if row["quantity"] != quantity:
                continue
            measured = row["measured"]
            if isinstance(measured, (int, float)) and not isinstance(measured, bool):
                out.append(float(measured))
    return out


def _ci_width(records: Sequence[Dict[str, Any]], quantity: str) -> Optional[float]:
    """Width of the CONFIDENCE-level mean CI, or None below two samples."""
    samples = _samples_for(records, quantity)
    if len(samples) < 2:
        return None
    lo, hi = mean_ci(samples, confidence=CONFIDENCE)
    return hi - lo


def select_quantity(
    records: Sequence[Dict[str, Any]], explicit: Optional[str] = None
) -> Optional[str]:
    """The comparison quantity the sequential CI is computed on.

    Explicit names are validated against the records.  Otherwise the
    first quantity (in the experiment's own comparison order) with at
    least two numeric samples and nonzero spread wins — constants like a
    fixed round count would stop every preset instantly and teach
    nothing.  Falls back to the first numeric quantity, then ``None``.
    """
    ordered: List[str] = []
    for record in records:
        for row in record["payload"].get("comparisons", []):
            if row["quantity"] not in ordered:
                ordered.append(row["quantity"])
    if explicit is not None:
        if explicit not in ordered:
            raise CampaignError(
                f"--ci-quantity {explicit!r} is not a comparison quantity of "
                f"this experiment (have: {', '.join(ordered) or 'none'})"
            )
        return explicit
    fallback: Optional[str] = None
    for quantity in ordered:
        samples = _samples_for(records, quantity)
        if len(samples) >= 2 and fallback is None:
            fallback = quantity
        if len(samples) >= 2 and max(samples) > min(samples):
            return quantity
    return fallback


def _solve_contested(spec) -> Dict[str, Any]:
    """Solver verdict per preset: contested => spend seeds there.

    A preset whose machine config cannot be solved (exotic overrides,
    missing timing) is treated as contested — when the closed form is
    unavailable, simulation is by definition the only evidence.
    """
    verdicts: Dict[str, Any] = {}
    for preset in spec.presets:
        try:
            config = build_trial_config(
                int(spec.seeds[0]), preset=preset, satin=spec.satin
            )
            verdicts[preset] = solve_preset(preset, config)
        except Exception:  # pragma: no cover - defensive
            verdicts[preset] = None
    return verdicts


def run_adaptive_campaign(
    spec,
    stream: Optional[TextIO] = None,
    progress: Union[bool, str] = True,
    trial_fn: Optional[str] = None,
    observer=None,
    cancel_event: Optional[threading.Event] = None,
):
    """Run one campaign adaptively; returns a ``CampaignResult``.

    Drop-in replacement for the fixed-grid path of
    :func:`repro.campaign.runner.run_campaign` — same result type, same
    manifest location — but seed dispatch stops per preset the moment
    the target CI width is met (never before ``min_seeds``).
    """
    from repro.campaign.runner import (
        TRIAL_FN,
        CampaignResult,
        render_campaign,
        run_sweep,
    )

    if trial_fn is None:
        trial_fn = TRIAL_FN
    if spec.ci_width is None or spec.ci_width <= 0:
        raise CampaignError("adaptive campaign needs --ci-width > 0")

    started_wall = time.monotonic()
    out = stream if stream is not None else sys.stderr

    def note(message: str) -> None:
        if progress is not False:
            print(f"[plan] {message}", file=out, flush=True)

    parent_tasks = spec.trial_tasks()
    tasks_by_preset: Dict[str, List[Dict[str, Any]]] = {}
    for task in parent_tasks:
        tasks_by_preset.setdefault(task["preset"], []).append(task)

    solutions = _solve_contested(spec)
    contested = {
        preset: (solutions[preset].contested if solutions[preset] else True)
        for preset in spec.presets
    }
    if any(contested.values()):
        note(
            "solver: contested preset(s) "
            + ", ".join(p for p in spec.presets if contested[p])
            + " get double rounds"
        )

    # Per-preset progress.
    cursor = {preset: 0 for preset in spec.presets}
    stop_reason: Dict[str, Optional[str]] = {p: None for p in spec.presets}
    stop_round: Dict[str, Optional[int]] = {p: None for p in spec.presets}
    widths: Dict[str, Optional[float]] = {p: None for p in spec.presets}

    ok_by_key: Dict[str, Dict[str, Any]] = {}
    quarantined: List[Dict[str, Any]] = []
    quarantined_keys: set = set()
    supervisor_snapshots: List[Dict[str, Any]] = []
    cached = ran = 0
    cancelled = False
    store = None
    store_health = None
    quantity: Optional[str] = None  # resolved after round 1
    rounds = 0

    def preset_records(preset: str) -> List[Dict[str, Any]]:
        """Accumulated ok-records of one preset, in parent task order."""
        return [
            ok_by_key[task["key"]]
            for task in tasks_by_preset[preset]
            if task["key"] in ok_by_key
        ]

    while True:
        active = [
            preset
            for preset in spec.presets
            if stop_reason[preset] is None
            and cursor[preset] < len(tasks_by_preset[preset])
        ]
        if not active:
            break
        rounds += 1
        round_tasks: List[Dict[str, Any]] = []
        for preset in active:
            if rounds == 1:
                want = spec.min_seeds
            else:
                want = spec.round_size * (2 if contested[preset] else 1)
            take = tasks_by_preset[preset][cursor[preset]:cursor[preset] + want]
            cursor[preset] += len(take)
            round_tasks.extend(take)

        sweep = run_sweep(
            _TaskSlice(spec, round_tasks),
            trial_fn,
            stream=stream,
            progress=progress,
            observer=observer,
            cancel_event=cancel_event,
        )
        for record in sweep.records:
            ok_by_key[record["key"]] = record
        for entry in sweep.quarantined:
            if entry["key"] not in quarantined_keys:
                quarantined_keys.add(entry["key"])
                quarantined.append(entry)
        supervisor_snapshots.append(sweep.supervisor.snapshot())
        cached += sweep.cached
        ran += sweep.ran
        store = sweep.store
        store_health = sweep.store_health
        if sweep.cancelled:
            cancelled = True
            break

        if quantity is None:
            pool: List[Dict[str, Any]] = []
            for preset in spec.presets:
                pool.extend(preset_records(preset))
            quantity = select_quantity(pool, explicit=spec.ci_quantity)
            if quantity is None:
                for preset in active:
                    stop_reason[preset] = "no-ci-quantity"
                    stop_round[preset] = rounds
                note("no numeric comparison quantity — stopping after one round")
                break
            note(f"tracking 95% CI width of {quantity!r} (target {spec.ci_width:g})")

        for preset in active:
            consumed = cursor[preset]
            width = _ci_width(preset_records(preset), quantity)
            widths[preset] = width
            if (
                consumed >= spec.min_seeds
                and width is not None
                and width <= spec.ci_width
            ):
                stop_reason[preset] = "ci-met"
                stop_round[preset] = rounds
                note(
                    f"preset {preset}: width {width:g} <= {spec.ci_width:g} "
                    f"after {consumed} seed(s) — stopping"
                )
            elif consumed >= len(tasks_by_preset[preset]):
                stop_reason[preset] = "budget-exhausted"
                stop_round[preset] = rounds
                note(
                    f"preset {preset}: seed budget exhausted at {consumed} "
                    f"(width {width if width is None else round(width, 6)})"
                )

    # ------------------------------------------------------------------
    # Consumed view: exactly the dispatched tasks, in parent task order.
    consumed_keys = set()
    for preset in spec.presets:
        for task in tasks_by_preset[preset][: cursor[preset]]:
            consumed_keys.add(task["key"])
    consumed_tasks = [t for t in parent_tasks if t["key"] in consumed_keys]
    records = [ok_by_key[t["key"]] for t in consumed_tasks if t["key"] in ok_by_key]
    seeds_view = list(spec.seeds[: max(cursor.values()) if cursor else 0])
    view = _PlannedView(spec, consumed_tasks, seeds_view)

    budget = len(parent_tasks)
    planner = {
        "adaptive": True,
        "confidence": CONFIDENCE,
        "ci_width": spec.ci_width,
        "quantity": quantity,
        "min_seeds": spec.min_seeds,
        "round_size": spec.round_size,
        "rounds": rounds,
        "decision_threshold": DECISION_THRESHOLD,
        "budget_trials": budget,
        "consumed_trials": len(consumed_tasks),
        "seeds_saved": budget - len(consumed_tasks),
        "contested": [p for p in spec.presets if contested[p]],
        "presets": {
            preset: {
                "contested": contested[preset],
                "budget": len(tasks_by_preset[preset]),
                "consumed": cursor[preset],
                "ci_width": widths[preset],
                "stopped": stop_reason[preset],
                "stop_round": stop_round[preset],
                "solver": (
                    solutions[preset].as_dict() if solutions[preset] else None
                ),
            }
            for preset in spec.presets
        },
    }

    rendered = render_campaign(
        view, records, cached=cached, ran=ran, quarantined=quarantined
    )
    planner_lines = [
        "",
        f"adaptive planner: target {CONFIDENCE:.0%} CI width {spec.ci_width:g}"
        + (f" on {quantity!r}" if quantity else ""),
        f"  consumed {len(consumed_tasks)}/{budget} trials in {rounds} "
        f"round(s) ({budget - len(consumed_tasks)} saved)",
    ]
    for preset in spec.presets:
        entry = planner["presets"][preset]
        width = entry["ci_width"]
        planner_lines.append(
            f"  preset {preset}: {entry['consumed']}/{entry['budget']} seeds, "
            f"width {width if width is None else f'{width:g}'}, "
            f"stopped: {entry['stopped'] or 'cancelled'}"
            + (" [contested]" if entry["contested"] else "")
        )
    rendered += "\n".join(planner_lines)
    if cancelled:
        rendered = (
            f"!! campaign cancelled — partial results "
            f"({len(records)}/{len(consumed_tasks)} trials)\n" + rendered
        )

    result = CampaignResult(
        spec=spec,
        total=len(consumed_tasks),
        records=records,
        cached=cached,
        ran=ran,
        quarantined=quarantined,
        rendered=rendered,
        cancelled=cancelled,
    )
    manifest = build_manifest(
        view,
        result,
        wall_seconds=time.monotonic() - started_wall,
        supervisor_snapshot=merge_snapshots(supervisor_snapshots),
        cancelled=cancelled,
        store_health=store_health,
        planner=planner,
    )
    if store is not None:
        result.manifest_path = write_manifest(store.directory, manifest)
    return result
