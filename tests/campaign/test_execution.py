"""One ``Execution`` value: validation, the specs that hold it, and the
identities (cache addresses, manifest spec sections) it must not move."""

import dataclasses
import json

import pytest

from repro.campaign.runner import CampaignSpec, run_campaign
from repro.errors import CampaignError, ServiceError, SettingsError
from repro.faults.chaos import ChaosSpec, run_chaos
from repro.obs.manifest import load_manifest
from repro.service.executors import make_executor
from repro.service.jobs import Execution, JobSpec


class TestExecution:
    def test_defaults(self):
        execution = Execution()
        assert (execution.jobs, execution.timeout, execution.max_attempts) == (
            1, None, 2,
        )
        assert execution.cache_dir == ".repro-cache"
        assert not execution.resume
        assert (execution.backend, execution.queue_dir) == ("auto", None)

    @pytest.mark.parametrize("changes, match", [
        ({"jobs": -1}, "jobs must be >= 0"),
        ({"jobs": "2"}, "jobs must be an int"),
        ({"jobs": 1.0}, "jobs must be an int"),
        ({"jobs": True}, "jobs must be an int"),
        ({"max_attempts": 0}, "max_attempts"),
        ({"max_attempts": "2"}, "max_attempts"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": -1.0}, "timeout"),
        ({"timeout": "5"}, "timeout"),
        ({"timeout": float("nan")}, "timeout"),
        ({"backend": "thread"}, "unknown executor backend 'thread'"),
        ({"backend": "queue"}, "queue directory"),
    ])
    def test_rejects(self, changes, match):
        with pytest.raises(SettingsError, match=match):
            Execution(**changes)

    def test_error_is_both_a_campaign_and_a_service_error(self):
        for error in (CampaignError, ServiceError):
            with pytest.raises(error):
                Execution(jobs=-1)

    def test_replace_revalidates(self):
        with pytest.raises(SettingsError):
            dataclasses.replace(Execution(), jobs=-1)

    def test_make_executor_resolves_auto_by_jobs(self):
        assert make_executor(Execution(jobs=0)).name == "inline"
        assert make_executor(Execution(jobs=3)).name == "fork"


def test_harness_shaped_flat_keywords_survive_replace(tmp_path):
    """The e2e harness builds its spec with flat keywords and resumes it
    with ``dataclasses.replace``; both must land in ``execution``."""
    cache = str(tmp_path)
    spec = CampaignSpec(experiment_id="E9", seeds=[1, 2], jobs=2, cache_dir=cache)
    resume = dataclasses.replace(spec, resume=True)
    assert spec.execution == Execution(jobs=2, cache_dir=cache)
    assert resume.execution == Execution(jobs=2, cache_dir=cache, resume=True)
    assert resume.campaign_id() == spec.campaign_id()


def test_flat_keywords_merge_into_execution():
    spec = CampaignSpec(experiment_id="E7", seeds=[1], resume=True,
                        execution=Execution(jobs=3, timeout=5.0))
    assert spec.execution == Execution(jobs=3, timeout=5.0, resume=True)
    assert spec.resume is None  # constructor-only: read spec.execution


def test_planner_settings_are_checked_once():
    for spec in (
        lambda **kw: CampaignSpec("E9", seeds=[0, 1], adaptive=True, **kw),
        lambda **kw: JobSpec(kind="campaign", target="E9", adaptive=True, **kw),
    ):
        with pytest.raises(SettingsError, match="ci_width"):
            spec()
        with pytest.raises(SettingsError, match="min_seeds"):
            spec(ci_width=1.0, min_seeds=1)
        with pytest.raises(SettingsError, match="round_size"):
            spec(ci_width=1.0, round_size=0)


#: Cache addresses recorded before execution settings became one value:
#: a spec that moves one of them orphans every existing cache entry.
CAMPAIGN_IDS = [
    (lambda: CampaignSpec(experiment_id="E9", seeds=[0]), "E9-4f56448d0a9e"),
    (lambda: CampaignSpec(experiment_id="e1", seeds=[3, 4], full=True),
     "E1-1bee75f6494f"),
    (lambda: CampaignSpec(experiment_id="E9", seeds=[0],
                          presets=("juno_r1", "generic_octa")),
     "E9-1ecdd0168369"),
    (lambda: CampaignSpec(experiment_id="E9", seeds=[0], satin={"tgoal": 152.0}),
     "E9-bb50036a564a"),
    (lambda: CampaignSpec(experiment_id="E9", seeds=[0],
                          execution=Execution(jobs=4, backend="fork", timeout=9.0)),
     "E9-4f56448d0a9e"),
    (lambda: ChaosSpec(scenario="figure4", seeds=[0]), "CHAOS-FIGURE4-53385f5adc6f"),
    (lambda: ChaosSpec(scenario="figure4", seeds=[0, 1], duration=15.0),
     "CHAOS-FIGURE4-3dc5b98b2248"),
    (lambda: ChaosSpec(scenario="baseline", seeds=[0], fault_seed_base=7),
     "CHAOS-BASELINE-ffa60b52f8c0"),
]

CONFIG_DIGESTS = [
    (dict(kind="campaign", target="E1", seeds=4, seed_base=2019), "72c96a1303c8118e"),
    (dict(kind="chaos", target="figure4", seeds=2, plan="smoke", duration=15.0),
     "a8b5c7b1242cf921"),
    (dict(kind="campaign", target="E9", seeds=64, adaptive=True, ci_width=75.0),
     "ef9a3faf025655c1"),
    (dict(kind="campaign", target="E1", seeds=4, seed_base=2019, jobs=3,
          backend="fork", max_attempts=5), "72c96a1303c8118e"),
]


@pytest.mark.parametrize("build, expected", CAMPAIGN_IDS)
def test_campaign_id_is_pinned(build, expected):
    assert build().campaign_id() == expected


@pytest.mark.parametrize("fields, expected", CONFIG_DIGESTS)
def test_config_digest_is_pinned(fields, expected):
    assert JobSpec(**fields).config_digest() == expected


#: The manifest ``spec`` section of three small runs, recorded before
#: execution settings became one value.
MANIFEST_SPECS = {
    "fixed": '{"full": false, "jobs": 0, "max_attempts": 3, "presets": '
             '["juno_r1"], "seed_range": [1, 3], "seeds": 3, "timeout": 30.0}',
    "adaptive": '{"full": false, "jobs": 0, "max_attempts": 2, "presets": '
                '["juno_r1"], "seed_range": [0, 1], "seeds": 2, "timeout": null}',
    "chaos": '{"full": false, "jobs": 0, "max_attempts": 2, "presets": '
             '["juno_r1"], "seed_range": [0, 1], "seeds": 2, "timeout": null}',
}


def test_manifest_spec_sections_are_unchanged(tmp_path):
    def execution(name, **changes):
        return Execution(jobs=0, cache_dir=str(tmp_path / name), **changes)

    results = {
        "fixed": run_campaign(CampaignSpec(
            experiment_id="E7", seeds=[1, 2, 3],
            execution=execution("fixed", timeout=30.0, max_attempts=3),
        ), progress=False),
        "adaptive": run_campaign(CampaignSpec(
            experiment_id="E7", seeds=list(range(10)), adaptive=True,
            ci_width=1e9, min_seeds=2, round_size=1,
            execution=execution("adaptive"),
        ), progress=False),
        "chaos": run_chaos(ChaosSpec(
            scenario="figure4", seeds=[0, 1], duration=15.0,
            execution=execution("chaos"),
        ), progress=False),
    }
    for name, result in results.items():
        manifest = load_manifest(result.manifest_path)
        assert json.dumps(manifest["spec"], sort_keys=True) == MANIFEST_SPECS[name]
