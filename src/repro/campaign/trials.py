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

The module imports, at its top, everything a trial runs.  Executors
resolve it in the supervisor before they start workers, so a fork pool's
parent holds the whole trial path and its workers import nothing on their
first trial.  The light helpers the supervisor needs without running
trials (:data:`~repro.config.DEFAULT_PRESET`,
:func:`~repro.config.build_trial_config`) live in :mod:`repro.config`.

Trials lean on one process-scoped content cache that is invisible to
simulated state: :data:`repro.kernel.image._CONTENT_CACHE` (kernel image
template files, a pure function of image seed, image size, DRAM size and
image offset), which every new stack maps copy-on-write instead of copying
the image in.  A forked worker inherits the supervisor's cache, open files
included, but that cache is warm only if the supervisor itself built a
stack, as the benchmark harness's warm-up does.  The ``repro serve`` and
``repro campaign`` supervisors never build one, so each of their workers
(like a spawned one) builds the template on its first trial and imports
``numpy.random`` there (about 2 MiB resident and 10 ms).  The supervisor
does not pre-build it: that would hold ``numpy.random`` in the server
process, which already sets a service's peak RSS, and a worker's build
holds at most 1 MiB of generated image bytes at a time.  Trusted boot
always hashes the live image: a digest table is never reused, and the
scan hash reuses a digest only for a byte-identical input (the per-thread
memo in :mod:`repro.secure.hashes` compares every byte).

Nothing else outlives a trial: each machine it builds is closed when it
ends, which frees the machine's simulated memory (a DRAM mapping of the
image template with its file descriptor, and the secure SRAM) at once.
Left to the cyclic collector, a finished machine (a reference cycle)
kept ~1 MiB of touched pages per Table I trial until a full collection,
which runs about once per 100-150 such trials.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.config import DEFAULT_PRESET, build_trial_config
from repro.errors import CampaignError
from repro.experiments import report
from repro.experiments.common import build_stack
from repro.experiments.detection import run_detection_experiment
from repro.hw.platform import trial_scope
from repro.obs.metrics import use_registry

#: Experiments whose drivers accept a prebuilt stack, i.e. the ones a
#: campaign may run on non-default presets / SATIN variants.
STACK_AWARE_EXPERIMENTS = ("E9",)


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


def run_experiment_trial(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one experiment trial and distil a serialisable record.

    The whole trial runs under a scoped
    :class:`~repro.obs.metrics.MetricsRegistry` — every machine the
    experiment builds adopts it — and the registry's snapshot rides along
    in the payload.  All metered quantities are simulated-time or count
    based, so the snapshot is a pure function of the task: the campaign
    manifest can merge shard snapshots into a byte-reproducible rollup.

    It also runs under a :func:`~repro.hw.platform.trial_scope`: the
    payload is built first, then every machine the trial built is closed,
    also when the trial raises.
    """
    experiment_id = task["experiment_id"]
    seed = task["seed"]
    full = bool(task.get("full", False))
    preset = task.get("preset", DEFAULT_PRESET)
    satin = task.get("satin") or None

    with use_registry() as registry, trial_scope():
        if preset == DEFAULT_PRESET and not satin:
            result = report.run_experiment(experiment_id, seed=seed, full=full)
        else:
            # Variant trials need a driver that accepts a prebuilt stack;
            # everything else hard-codes its own juno_r1 build.
            if experiment_id.upper() not in STACK_AWARE_EXPERIMENTS:
                raise CampaignError(
                    f"experiment {experiment_id} cannot run config variants "
                    f"(stack-aware: {', '.join(STACK_AWARE_EXPERIMENTS)})"
                )

            spec = report.spec_by_id(experiment_id)
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
