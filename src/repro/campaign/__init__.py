"""Parallel Monte-Carlo campaign engine with a content-addressed cache.

Fans a grid of platform presets x seed ranges out through the task
supervisor (:mod:`repro.service.executors`), memoises completed trials in
JSONL shards under ``.repro-cache/`` (:mod:`repro.campaign.store`), and
merges the results through :mod:`repro.analysis.stats` into aggregate
paper-vs-measured tables (:mod:`repro.campaign.runner`).

Entry points::

    python -m repro campaign E9 --seeds 64 --jobs 4 --resume

    from repro.campaign import CampaignSpec, Execution, run_campaign
    spec = CampaignSpec("E9", seeds=range(64), execution=Execution(jobs=4))
    result = run_campaign(spec)
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "CODE_VERSION": "repro.campaign.digest",
    "canonical_form": "repro.campaign.digest",
    "stable_digest": "repro.campaign.digest",
    "trial_key": "repro.campaign.digest",
    "ProgressMeter": "repro.campaign.progress",
    "CampaignResult": "repro.campaign.runner",
    "CampaignSpec": "repro.campaign.runner",
    "Sweep": "repro.campaign.runner",
    "SweepRun": "repro.campaign.runner",
    "aggregate_records": "repro.campaign.runner",
    "run_campaign": "repro.campaign.runner",
    "run_sweep": "repro.campaign.runner",
    "ResultStore": "repro.campaign.store",
    "TrialOutcome": "repro.service.executors",
    "Execution": "repro.service.jobs",
})

__all__ = [
    "CODE_VERSION",
    "CampaignResult",
    "CampaignSpec",
    "Execution",
    "ProgressMeter",
    "ResultStore",
    "Sweep",
    "SweepRun",
    "TrialOutcome",
    "aggregate_records",
    "canonical_form",
    "run_campaign",
    "run_sweep",
    "stable_digest",
    "trial_key",
]
