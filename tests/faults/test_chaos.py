"""Chaos sweep tests: determinism goldens and supervisor plumbing.

The golden determinism contract (ISSUE 5): the same
``(config_digest, fault_seed)`` pair must produce the identical
``(time, seq)`` event checksum and alarm stream on every run and at every
``--jobs`` level.
"""

import json

import pytest

from repro.errors import CampaignError, FaultInjectionError, FaultPlanError
from repro.faults.chaos import ChaosSpec, run_chaos, run_chaos_trial
from repro.service.jobs import Execution

#: Short injection horizon: enough simulated time for several faults of
#: every class without slowing the suite down.
_FAST_DURATION = 20.0


def _task(seed=0, fault_seed=0, scenario="baseline", plan="smoke",
          duration=_FAST_DURATION):
    return {
        "key": f"test-{scenario}-{seed}-{fault_seed}",
        "scenario": scenario,
        "seed": seed,
        "fault_seed": fault_seed,
        "plan": plan,
        "preset": "juno_r1",
        "duration": duration,
    }


def test_trial_is_bit_deterministic():
    first = run_chaos_trial(_task())
    second = run_chaos_trial(_task())
    assert first["event_checksum"] == second["event_checksum"]
    assert first["alarm_checksum"] == second["alarm_checksum"]
    assert first["survival"] == second["survival"]
    assert first["injections"] == second["injections"]


def test_fault_seed_changes_timeline():
    base = run_chaos_trial(_task(fault_seed=0))
    other = run_chaos_trial(_task(fault_seed=1))
    assert base["event_checksum"] != other["event_checksum"]


def test_trial_requires_a_satin_scenario():
    with pytest.raises(FaultInjectionError, match="without SATIN"):
        run_chaos_trial(_task(scenario="idle"))


def test_spec_validation():
    with pytest.raises(CampaignError, match="at least one seed"):
        ChaosSpec(scenario="baseline", seeds=[])
    with pytest.raises(CampaignError, match="unique"):
        ChaosSpec(scenario="baseline", seeds=[1, 1])
    with pytest.raises(FaultPlanError, match="unknown fault plan"):
        ChaosSpec(scenario="baseline", seeds=[1], plan_name="nope")
    with pytest.raises(FaultInjectionError, match="without SATIN"):
        ChaosSpec(scenario="idle", seeds=[1])


def test_spec_surface():
    spec = ChaosSpec(scenario="figure4", seeds=[0, 1], duration=15.0)
    assert spec.experiment_id == "CHAOS-FIGURE4"
    assert spec.sweep().presets == (spec.preset,)
    assert spec.effective_duration() == 15.0
    assert spec.campaign_id().startswith("CHAOS-FIGURE4-")
    assert spec.fault_seed_for(3) == 3
    keys = [t["key"] for t in spec.trial_tasks()]
    assert len(set(keys)) == len(keys) == 2
    # Same spec => same content addresses (cache stability).
    again = ChaosSpec(scenario="figure4", seeds=[0, 1], duration=15.0)
    assert [t["key"] for t in again.trial_tasks()] == keys


def test_jobs_level_does_not_change_results(tmp_path):
    results = []
    for jobs in (0, 2):
        spec = ChaosSpec(
            scenario="figure4",
            seeds=[0, 1],
            duration=_FAST_DURATION,
            execution=Execution(
                jobs=jobs, cache_dir=str(tmp_path / f"cache-jobs{jobs}")
            ),
        )
        results.append(run_chaos(spec, progress=False))
    serial, parallel = results
    assert serial.survival == parallel.survival
    assert serial.totals == parallel.totals
    checksums = [
        [r["payload"]["event_checksum"] for r in result.records]
        for result in results
    ]
    assert checksums[0] == checksums[1]


def test_manifest_carries_survival_section(tmp_path):
    spec = ChaosSpec(
        scenario="baseline",
        seeds=[0],
        duration=_FAST_DURATION,
        execution=Execution(jobs=0, cache_dir=str(tmp_path)),
    )
    result = run_chaos(spec, progress=False)
    assert result.manifest_path is not None
    with open(result.manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    survival = manifest["survival"]
    assert survival["plan"] == "smoke"
    assert survival["classes"] == result.survival
    assert survival["totals"] == result.totals
    assert survival["event_checksums"] == {
        "0": result.records[0]["payload"]["event_checksum"]
    }
    # The rollup renderer shows the matrix.
    from repro.obs.manifest import render_manifest

    rendered = render_manifest(manifest)
    assert "survival (plan 'smoke'" in rendered


def test_resume_serves_cached_chaos_trials(tmp_path):
    spec_kwargs = dict(scenario="baseline", seeds=[0], duration=_FAST_DURATION)
    cold = run_chaos(
        ChaosSpec(**spec_kwargs, execution=Execution(jobs=0, cache_dir=str(tmp_path))),
        progress=False,
    )
    warm = run_chaos(
        ChaosSpec(
            **spec_kwargs,
            execution=Execution(jobs=0, cache_dir=str(tmp_path), resume=True),
        ),
        progress=False,
    )
    assert cold.ran == 1 and cold.cached == 0
    assert warm.ran == 0 and warm.cached == 1
    assert warm.survival == cold.survival
