"""Parallel Monte-Carlo campaign engine with a content-addressed cache.

Fans a grid of platform presets x seed ranges out through the task
supervisor (:mod:`repro.service.executors`), memoises completed trials in
JSONL shards under ``.repro-cache/`` (:mod:`repro.campaign.store`), and
merges the results through :mod:`repro.analysis.stats` into aggregate
paper-vs-measured tables (:mod:`repro.campaign.runner`).

Entry points::

    python -m repro campaign E9 --seeds 64 --jobs 4 --resume

    from repro.campaign import CampaignSpec, run_campaign
    result = run_campaign(CampaignSpec("E9", seeds=range(64), jobs=4))
"""

from repro.campaign.digest import (
    CODE_VERSION,
    canonical_form,
    stable_digest,
    trial_key,
)
from repro.campaign.progress import ProgressMeter
from repro.campaign.runner import (
    CampaignResult,
    CampaignSpec,
    SweepRun,
    aggregate_records,
    run_campaign,
    run_sweep,
)
from repro.campaign.store import ResultStore
from repro.service.executors import TrialOutcome

__all__ = [
    "CODE_VERSION",
    "CampaignResult",
    "CampaignSpec",
    "ProgressMeter",
    "ResultStore",
    "SweepRun",
    "TrialOutcome",
    "aggregate_records",
    "canonical_form",
    "run_campaign",
    "run_sweep",
    "stable_digest",
    "trial_key",
]
