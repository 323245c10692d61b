"""Campaign runner: grid expansion, caching, aggregation, quarantine."""

import io

import pytest

from repro.campaign.runner import (
    CampaignSpec,
    aggregate_records,
    run_campaign,
)
from repro.errors import CampaignError
from repro.service.jobs import Execution

HELPERS = "tests.campaign.pool_helpers"


def spec_for(tmp_path, jobs=0, timeout=None, resume=False, **kwargs):
    defaults = dict(
        experiment_id="E7",
        seeds=[1, 2, 3, 4],
        execution=Execution(
            jobs=jobs, timeout=timeout, resume=resume, cache_dir=str(tmp_path)
        ),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def test_spec_validation(tmp_path):
    with pytest.raises(CampaignError):
        CampaignSpec("E7", seeds=[])
    with pytest.raises(CampaignError):
        CampaignSpec("E7", seeds=[1, 1])
    with pytest.raises(CampaignError):
        CampaignSpec("E7", seeds=[1], presets=())


def test_trial_tasks_are_deterministic_and_unique(tmp_path):
    spec = spec_for(tmp_path, presets=("juno_r1", "generic_octa"),
                    experiment_id="E9")
    tasks = spec.trial_tasks()
    assert len(tasks) == 8
    assert tasks == spec.trial_tasks()
    assert len({t["key"] for t in tasks}) == 8
    # preset-major then seed order
    assert [t["preset"] for t in tasks[:4]] == ["juno_r1"] * 4
    assert [t["seed"] for t in tasks[:4]] == [1, 2, 3, 4]


def test_campaign_id_ignores_seed_range(tmp_path):
    a = spec_for(tmp_path, seeds=[1, 2]).campaign_id()
    b = spec_for(tmp_path, seeds=[3, 4, 5]).campaign_id()
    assert a == b
    assert a.startswith("E7-")
    assert spec_for(tmp_path, full=True).campaign_id() != a


def test_campaign_runs_and_aggregates(tmp_path):
    result = run_campaign(spec_for(tmp_path), progress=False)
    assert result.total == 4 and result.ran == 4 and result.cached == 0
    assert len(result.records) == 4
    assert [r["seed"] for r in result.records] == [1, 2, 3, 4]
    assert "MC escape rate" in result.rendered
    assert "0 quarantined" in result.rendered


def test_resume_serves_from_cache(tmp_path):
    first = run_campaign(spec_for(tmp_path), progress=False)
    second = run_campaign(spec_for(tmp_path, resume=True), progress=False)
    assert second.cached == 4 and second.ran == 0
    assert second.cache_hit_ratio == 1.0
    # aggregate tables identical whether cached or computed
    assert first.rendered.split("\n", 2)[2] == second.rendered.split("\n", 2)[2]


def test_resume_extends_seed_range_incrementally(tmp_path):
    run_campaign(spec_for(tmp_path, seeds=[1, 2]), progress=False)
    grown = run_campaign(
        spec_for(tmp_path, seeds=[1, 2, 3], resume=True), progress=False
    )
    assert grown.cached == 2 and grown.ran == 1


def test_without_resume_cache_is_ignored(tmp_path):
    run_campaign(spec_for(tmp_path), progress=False)
    rerun = run_campaign(spec_for(tmp_path), progress=False)
    assert rerun.cached == 0 and rerun.ran == 4


def test_parallel_equals_serial_rendering(tmp_path):
    serial = run_campaign(spec_for(tmp_path / "a"), progress=False)
    parallel = run_campaign(spec_for(tmp_path / "b", jobs=2), progress=False)
    assert serial.rendered == parallel.rendered


def test_timeout_quarantine_does_not_abort_campaign(tmp_path):
    """The acceptance scenario: one worker killed mid-trial per attempt."""
    spec = spec_for(tmp_path, jobs=2, timeout=0.6, seeds=[0, 1, 2])
    stream = io.StringIO()

    # hang_on_flag hangs when the task carries hang=True; seed 0 never
    # finishes, seeds 1..2 are instant.
    tasks = spec.trial_tasks()
    tasks[0]["hang"] = True

    class HangSpec(CampaignSpec):
        def trial_tasks(self):
            return tasks

    hang_spec = HangSpec(**{**spec.__dict__})
    result = run_campaign(
        hang_spec, stream=stream, progress=True,
        trial_fn=f"{HELPERS}:hang_on_flag",
    )
    assert len(result.quarantined) == 1
    assert result.quarantined[0]["status"] == "timeout"
    assert result.quarantined[0]["attempts"] == 2  # retried once
    assert len(result.records) == 2  # the campaign finished anyway
    assert "quarantined trials (failed every attempt):" in result.rendered
    assert "seed=0" in result.rendered
    # the failure is also listed in the persistent quarantine log
    from repro.campaign.store import ResultStore

    store = ResultStore(spec.execution.cache_dir, spec.campaign_id())
    assert len(store.quarantined()) == 1


def test_aggregate_records_groups_by_preset():
    def record(preset, measured):
        return {
            "preset": preset,
            "payload": {
                "comparisons": [
                    {"quantity": "q", "paper": 1.0, "measured": measured}
                ]
            },
        }

    sections = aggregate_records(
        [record("juno_r1", 1.0), record("juno_r1", 3.0), record("octa", 5.0)]
    )
    assert len(sections) == 2
    assert "juno_r1 — 2 trials" in sections[0]
    assert "octa — 1 trials" in sections[1]


def test_aggregate_records_handles_non_numeric_measured():
    records = [
        {
            "preset": "juno_r1",
            "payload": {
                "comparisons": [
                    {"quantity": "verdict", "paper": "all fail", "measured": "ok"}
                ]
            },
        }
    ]
    sections = aggregate_records(records)
    assert "n/a" in sections[0]
