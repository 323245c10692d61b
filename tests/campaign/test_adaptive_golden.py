"""Golden determinism contract for ``--adaptive`` campaign dispatch.

The planner's promise (ISSUE acceptance): every stopping decision is a
pure function of (config, seed stream, CI target), so an adaptive run
consumes the same seed prefix and produces a byte-identical manifest
fingerprint on a fresh-cache re-run, a warm-cache resume, and under
``--jobs N`` — while the ``planner`` provenance section stays outside
the fingerprint view.
"""

import pytest

from repro.analysis.planning.planner import select_quantity
from repro.campaign.runner import CampaignSpec, run_campaign
from repro.errors import CampaignError
from repro.obs.manifest import load_manifest, manifest_fingerprint, render_manifest

HELPERS = "tests.campaign.pool_helpers"

#: Calibrated on the fixed E1 campaign over seeds 0..11: the "A53 hash
#: avg" CI width is 1.44e-10 after 4 seeds and 1.06e-10 after 8, so this
#: target stops the (contested, hence double-round) juno_r1 preset at
#: exactly 8 of the 12-seed budget on round 2.
E1_TARGET_WIDTH = 1.2e-10


def run_adaptive(tmp_path, label, seeds=range(12), ci_width=E1_TARGET_WIDTH,
                 experiment_id="E1", trial_fn=None, **kwargs):
    kwargs.setdefault("jobs", 0)
    kwargs.setdefault("cache_dir", str(tmp_path / f"cache-{label}"))
    spec = CampaignSpec(
        experiment_id=experiment_id,
        seeds=list(seeds),
        adaptive=True,
        ci_width=ci_width,
        min_seeds=kwargs.pop("min_seeds", 4),
        round_size=kwargs.pop("round_size", 2),
        **kwargs,
    )
    extra = {} if trial_fn is None else {"trial_fn": trial_fn}
    result = run_campaign(spec, progress=False, **extra)
    return result, load_manifest(result.manifest_path)


# ----------------------------------------------------------------------
# the headline golden: same seeds consumed, identical fingerprint
# ----------------------------------------------------------------------


def test_adaptive_stopping_is_deterministic(tmp_path):
    """Fresh cache, warm-cache resume, and --jobs 2 all consume the same
    8-seed prefix and fingerprint identically."""
    result, manifest = run_adaptive(tmp_path, "a")
    planner = manifest["planner"]
    assert planner["adaptive"] is True
    assert planner["consumed_trials"] == 8
    assert planner["budget_trials"] == 12
    assert planner["seeds_saved"] == 4
    assert planner["rounds"] == 2
    entry = planner["presets"]["juno_r1"]
    assert entry["stopped"] == "ci-met"
    assert entry["stop_round"] == 2
    assert entry["consumed"] == 8
    assert entry["ci_width"] <= E1_TARGET_WIDTH
    # juno_r1's Eq. 2 envelope straddles the 90% threshold => contested,
    # and the solver verdict rides along in the provenance.
    assert entry["contested"] is True
    assert entry["solver"]["escape"]["lo"] < 0.90 < entry["solver"]["escape"]["hi"]
    # the manifest's result view covers exactly the consumed trials
    assert manifest["spec"]["seeds"] == 8
    assert len(manifest["trials"]) == 8
    assert sorted(t["seed"] for t in manifest["trials"]) == list(range(8))

    reference = manifest_fingerprint(manifest)

    # fresh cache
    _, again = run_adaptive(tmp_path, "b")
    assert manifest_fingerprint(again) == reference
    assert again["planner"]["consumed_trials"] == 8

    # warm-cache resume over the same store
    _, resumed = run_adaptive(tmp_path, "a", resume=True)
    assert manifest_fingerprint(resumed) == reference

    # parallel dispatch must not change the stopping decision
    _, forked = run_adaptive(tmp_path, "jobs2", jobs=2, backend="fork")
    assert manifest_fingerprint(forked) == reference
    assert forked["planner"]["consumed_trials"] == 8


def test_planner_section_is_outside_the_fingerprint(tmp_path):
    result, manifest = run_adaptive(tmp_path, "fp")
    with_planner = manifest_fingerprint(manifest)
    stripped = dict(manifest)
    stripped.pop("planner")
    assert manifest_fingerprint(stripped) == with_planner


def test_adaptive_matches_fixed_run_over_consumed_prefix(tmp_path):
    """An adaptive run is indistinguishable (fingerprint-wise) from a
    fixed run over exactly the seeds it consumed — adaptivity changes
    which trials run, never what any trial produces."""
    _, adaptive = run_adaptive(tmp_path, "adaptive")
    consumed = sorted(t["seed"] for t in adaptive["trials"])
    fixed_spec = CampaignSpec(
        experiment_id="E1",
        seeds=consumed,
        jobs=0,
        cache_dir=str(tmp_path / "cache-fixed"),
    )
    fixed = load_manifest(run_campaign(fixed_spec, progress=False).manifest_path)
    assert manifest_fingerprint(fixed) == manifest_fingerprint(adaptive)


def test_adaptive_shares_the_fixed_runs_cache(tmp_path):
    """campaign_id excludes the planner knobs, so an adaptive run resumes
    straight from a fixed run's store and runs nothing."""
    fixed_spec = CampaignSpec(
        experiment_id="E1",
        seeds=list(range(12)),
        jobs=0,
        cache_dir=str(tmp_path / "shared"),
    )
    run_campaign(fixed_spec, progress=False)
    result, _ = run_adaptive(
        tmp_path.joinpath("unused"), "warm",
        cache_dir=str(tmp_path / "shared"), resume=True,
    )
    assert result.cached == 8 and result.ran == 0


# ----------------------------------------------------------------------
# stopping paths: budget exhaustion, no quantity, explicit quantity
# ----------------------------------------------------------------------


def test_budget_exhaustion_consumes_everything(tmp_path):
    """An unreachable width target spends the whole budget and says so."""
    result, manifest = run_adaptive(
        tmp_path, "exhaust", seeds=range(4), ci_width=1e-15,
        min_seeds=2, round_size=1, trial_fn=f"{HELPERS}:seeded_comparison",
    )
    planner = manifest["planner"]
    assert planner["consumed_trials"] == 4
    assert planner["seeds_saved"] == 0
    assert planner["presets"]["juno_r1"]["stopped"] == "budget-exhausted"
    assert result.total == 4


def test_no_comparisons_stops_after_one_round(tmp_path):
    result, manifest = run_adaptive(
        tmp_path, "noq", seeds=range(6), min_seeds=2, round_size=1,
        trial_fn=f"{HELPERS}:double_seed",
    )
    planner = manifest["planner"]
    assert planner["quantity"] is None
    assert planner["presets"]["juno_r1"]["stopped"] == "no-ci-quantity"
    assert planner["consumed_trials"] == 2  # exactly min_seeds


def test_explicit_constant_quantity_stops_at_min_seeds(tmp_path):
    """--ci-quantity pins the tracked quantity even when constant: the
    width is zero after round 1 and the run stops at min_seeds."""
    _, manifest = run_adaptive(
        tmp_path, "const", seeds=range(8), ci_width=1.0,
        ci_quantity="rounds", min_seeds=3, round_size=1,
        trial_fn=f"{HELPERS}:seeded_comparison",
    )
    planner = manifest["planner"]
    assert planner["quantity"] == "rounds"
    assert planner["consumed_trials"] == 3
    assert planner["presets"]["juno_r1"]["stopped"] == "ci-met"


def test_unknown_explicit_quantity_raises(tmp_path):
    with pytest.raises(CampaignError, match="not a comparison quantity"):
        run_adaptive(
            tmp_path, "bad", seeds=range(4), ci_quantity="nope",
            min_seeds=2, round_size=1,
            trial_fn=f"{HELPERS}:seeded_comparison",
        )


# ----------------------------------------------------------------------
# rendering and spec validation
# ----------------------------------------------------------------------


def test_rendered_report_and_manifest_carry_planner_summary(tmp_path):
    result, manifest = run_adaptive(tmp_path, "render")
    assert "adaptive planner: target 95% CI width" in result.rendered
    assert "consumed 8/12 trials" in result.rendered
    rendered = render_manifest(manifest)
    assert "adaptive planner: 8/12 trials" in rendered


def test_adaptive_spec_validation():
    with pytest.raises(CampaignError, match="ci-width"):
        CampaignSpec(experiment_id="E1", seeds=[0, 1], adaptive=True)
    with pytest.raises(CampaignError, match="min_seeds"):
        CampaignSpec(
            experiment_id="E1", seeds=[0, 1], adaptive=True,
            ci_width=1.0, min_seeds=1,
        )
    with pytest.raises(CampaignError, match="round_size"):
        CampaignSpec(
            experiment_id="E1", seeds=[0, 1], adaptive=True,
            ci_width=1.0, round_size=0,
        )


def test_select_quantity_prefers_spread_over_constant():
    records = [
        {"payload": {"comparisons": [
            {"quantity": "const", "paper": 1, "measured": 5.0},
            {"quantity": "varies", "paper": 1, "measured": float(i)},
        ]}}
        for i in range(3)
    ]
    assert select_quantity(records) == "varies"
    assert select_quantity([]) is None
    # all-constant records fall back to the first numeric quantity
    flat = [
        {"payload": {"comparisons": [
            {"quantity": "const", "paper": 1, "measured": 5.0},
        ]}}
        for _ in range(3)
    ]
    assert select_quantity(flat) == "const"
