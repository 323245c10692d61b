"""Clean cancellation: Ctrl-C or a service cancel must not lose work.

ISSUE satellite: a KeyboardInterrupt mid-campaign used to dump a
traceback and leave no manifest.  Now the pool is drained, completed
shards stay flushed, and a partial manifest marked ``cancelled: true``
is written before the run returns.
"""

import threading

from repro.campaign.runner import CampaignSpec, run_campaign
from repro.campaign.store import ResultStore
from repro.obs.manifest import load_manifest
from repro.service.jobs import Execution

HELPERS = "tests.campaign.pool_helpers"


def spec_for(tmp_path, jobs=0, resume=False, **kwargs):
    defaults = dict(
        experiment_id="E7",
        seeds=[1, 2, 3, 4],
        execution=Execution(jobs=jobs, resume=resume, cache_dir=str(tmp_path)),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def test_keyboard_interrupt_writes_partial_manifest(tmp_path):
    # interrupt_at_seed_3 completes seeds 1-2, then raises KeyboardInterrupt.
    result = run_campaign(
        spec_for(tmp_path), progress=False,
        trial_fn=f"{HELPERS}:interrupt_at_seed_3",
    )
    assert result.cancelled
    assert [r["seed"] for r in result.records] == [1, 2]
    assert result.rendered.startswith("!! campaign cancelled")
    assert "2/4 trials" in result.rendered

    manifest = load_manifest(result.manifest_path)
    assert manifest["cancelled"] is True
    statuses = [t["status"] for t in manifest["trials"]]
    assert statuses == ["ok", "ok", "missing", "missing"]


def test_interrupted_run_resumes_from_flushed_shards(tmp_path):
    spec = spec_for(tmp_path)
    run_campaign(
        spec, progress=False, trial_fn=f"{HELPERS}:interrupt_at_seed_3"
    )
    # the two completed trials were flushed before the interrupt
    store = ResultStore(spec.execution.cache_dir, spec.campaign_id())
    store.load()
    assert sum(1 for t in spec.trial_tasks() if store.ok_record(t["key"])) == 2

    # rerun with --resume under the real trial fn: only 3 and 4 execute
    finished = run_campaign(spec_for(tmp_path, resume=True), progress=False)
    assert not finished.cancelled
    assert finished.cached == 2 and finished.ran == 2
    manifest = load_manifest(finished.manifest_path)
    assert manifest["cancelled"] is False and len(manifest["trials"]) == 4


def test_cancel_event_before_start_runs_nothing(tmp_path):
    event = threading.Event()
    event.set()
    result = run_campaign(spec_for(tmp_path), progress=False, cancel_event=event)
    assert result.cancelled and result.records == []
    manifest = load_manifest(result.manifest_path)
    assert manifest["cancelled"] is True
    assert all(t["status"] == "missing" for t in manifest["trials"])


def test_cancelled_run_counts_in_supervisor_metrics(tmp_path):
    result = run_campaign(
        spec_for(tmp_path), progress=False,
        trial_fn=f"{HELPERS}:interrupt_at_seed_3",
    )
    manifest = load_manifest(result.manifest_path)
    assert manifest["supervisor"]["counters"]["campaign.cancelled"] == 1
