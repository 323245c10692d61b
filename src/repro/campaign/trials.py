"""Worker-side trial execution: one seeded experiment -> one JSON record.

This module is addressed by its import path (``repro.campaign.trials:
run_experiment_trial``) so the pool can resolve it inside a worker
process.  A trial is fully described by its task dict::

    {"key": ..., "experiment_id": "E9", "seed": 17, "full": false,
     "preset": "juno_r1", "satin": {"tgoal": 76.0}}

and returns a JSON-serialisable payload: the experiment's rendered table,
its paper-vs-measured comparison rows, and the scalar subset of its raw
values.  Workers never touch the result store — records flow back to the
supervisor over the pool's queue.

Trials lean on one process-scoped content cache that is invisible to
simulated state: :data:`repro.kernel.image._CONTENT_CACHE` (generated
kernel image bytes, a pure function of image seed and size).  On
fork-based pools the supervisor's warm cache is inherited by every worker
for free; spawned workers warm their own on the first trial.  Trusted boot
always hashes the live image: a digest table is never reused.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.config import MachineConfig, SatinConfig, preset_config
from repro.errors import CampaignError

#: Experiments whose drivers accept a prebuilt stack, i.e. the ones a
#: campaign may run on non-default presets / SATIN variants.
STACK_AWARE_EXPERIMENTS = ("E9",)

#: The preset every experiment driver builds internally.
DEFAULT_PRESET = "juno_r1"


def jsonable_scalar(value: Any) -> bool:
    """True for values that survive a JSONL round trip unchanged."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return True
    return isinstance(value, float) and math.isfinite(value)


def scalar_values(values: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-safe subset of an ``ExperimentResult.values`` dict."""
    return {k: v for k, v in values.items() if jsonable_scalar(v)}


def sanitize_comparisons(comparisons) -> list:
    out = []
    for row in comparisons:
        out.append(
            {
                "quantity": str(row.get("quantity")),
                "paper": row.get("paper") if jsonable_scalar(row.get("paper")) else str(row.get("paper")),
                "measured": row.get("measured") if jsonable_scalar(row.get("measured")) else str(row.get("measured")),
            }
        )
    return out


def build_trial_config(
    seed: int,
    preset: str = DEFAULT_PRESET,
    satin: Optional[Dict[str, Any]] = None,
) -> MachineConfig:
    """The MachineConfig one trial runs under (also what gets digested)."""
    config = preset_config(preset, seed=seed)
    if satin:
        config.satin = SatinConfig(**satin)
    return config


def run_experiment_trial(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one experiment trial and distil a serialisable record.

    The whole trial runs under a scoped
    :class:`~repro.obs.metrics.MetricsRegistry` — every machine the
    experiment builds adopts it — and the registry's snapshot rides along
    in the payload.  All metered quantities are simulated-time or count
    based, so the snapshot is a pure function of the task: the campaign
    manifest can merge shard snapshots into a byte-reproducible rollup.
    """
    from repro.experiments.report import run_experiment, spec_by_id
    from repro.obs.metrics import use_registry

    experiment_id = task["experiment_id"]
    seed = task["seed"]
    full = bool(task.get("full", False))
    preset = task.get("preset", DEFAULT_PRESET)
    satin = task.get("satin") or None

    with use_registry() as registry:
        if preset == DEFAULT_PRESET and not satin:
            result = run_experiment(experiment_id, seed=seed, full=full)
        else:
            # Variant trials need a driver that accepts a prebuilt stack;
            # everything else hard-codes its own juno_r1 build.
            if experiment_id.upper() not in STACK_AWARE_EXPERIMENTS:
                raise CampaignError(
                    f"experiment {experiment_id} cannot run config variants "
                    f"(stack-aware: {', '.join(STACK_AWARE_EXPERIMENTS)})"
                )
            from repro.experiments.common import build_stack
            from repro.experiments.detection import run_detection_experiment

            spec = spec_by_id(experiment_id)
            config = build_trial_config(seed, preset=preset, satin=satin)
            stack = build_stack(
                machine_config=config, with_satin=True, with_evader=True
            )
            passes = 10 if full else 2
            result = run_detection_experiment(seed=seed, passes=passes, stack=stack)
            result.title = f"{spec.title} [{preset}]"

    return {
        "experiment_id": result.experiment_id,
        "seed": seed,
        "full": full,
        "preset": preset,
        "rendered": result.rendered,
        "comparisons": sanitize_comparisons(result.comparisons),
        "values": scalar_values(result.values),
        "metrics": registry.snapshot(),
    }
