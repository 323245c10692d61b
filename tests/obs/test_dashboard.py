"""Dashboard: deterministic data, HTML embedding, --follow robustness."""

import json
import os

import pytest

from repro.campaign.runner import CampaignSpec, run_campaign
from repro.obs.dashboard import (
    build_dashboard_data,
    dashboard_json,
    follow_campaign,
    lanes_from_trace,
    load_manifest_safe,
    render_dashboard_html,
    store_progress,
)
from repro.obs.dashboard.follow import snapshot_once
from repro.obs.manifest import MANIFEST_NAME
from repro.obs.scenarios import (
    build_scenario_stack,
    run_scenario,
    scenario_by_name,
    scenario_records,
)
from repro.obs.trace_export import machine_core_labels, perfetto_trace
from repro.service.jobs import Execution


def run_e7(tmp_path, name, jobs=0, seeds=(1, 2, 3)):
    cache = os.path.join(str(tmp_path), name)
    spec = CampaignSpec(
        "E7", seeds=list(seeds), execution=Execution(jobs=jobs, cache_dir=cache)
    )
    result = run_campaign(spec, progress=False)
    return os.path.join(cache, spec.campaign_id()), result


def run_e9(base, name, jobs=0, seeds=(1, 2)):
    cache = os.path.join(str(base), name)
    spec = CampaignSpec(
        "E9", seeds=list(seeds), execution=Execution(jobs=jobs, cache_dir=cache)
    )
    run_campaign(spec, progress=False)
    return os.path.join(cache, spec.campaign_id())


@pytest.fixture(scope="module")
def e9_dirs(tmp_path_factory):
    """One serial and one --jobs 2 E9 run (E9 trials merge rich metrics)."""
    base = tmp_path_factory.mktemp("e9-dash")
    return run_e9(base, "serial", jobs=0), run_e9(base, "jobs", jobs=2)


@pytest.fixture(scope="module")
def figure4_trace():
    scenario = scenario_by_name("figure4")
    stack = build_scenario_stack(scenario, seed=7, preset="juno_r1")
    run_scenario(stack, scenario, duration=None, rounds=2)
    return perfetto_trace(
        scenario_records(stack), machine_core_labels(stack.machine)
    )


# ---------------------------------------------------------------------------
# Deterministic data
# ---------------------------------------------------------------------------


def test_dashboard_json_byte_identical_serial_vs_jobs(e9_dirs):
    serial_dir, jobs_dir = e9_dirs
    serial = dashboard_json(build_dashboard_data(serial_dir))
    parallel = dashboard_json(build_dashboard_data(jobs_dir))
    assert serial == parallel


def test_dashboard_data_excludes_wall_clock(tmp_path):
    campaign_dir, _ = run_e7(tmp_path, "wall")
    data = build_dashboard_data(campaign_dir)
    blob = dashboard_json(data)
    assert "wall_seconds" not in blob
    assert "generated_unix" not in blob
    assert data["campaign"]["spec"].get("jobs") is None
    assert data["schema"] == "satin-dashboard/v1"
    assert data["store"]["available"] is True
    assert data["ok_trials"] == 3


def test_dashboard_top_trims_via_shared_rollup(e9_dirs):
    data = build_dashboard_data(e9_dirs[0], top=2)
    assert len(data["counters"]) == 2
    assert len(data["histograms"]) == 2


def test_histogram_panels_carry_percentiles(e9_dirs):
    data = build_dashboard_data(e9_dirs[0])
    panel = {h["name"]: h for h in data["histograms"]}
    assert panel, "expected merged histograms"
    for h in panel.values():
        if h["count"]:
            assert h["p50"] is not None
            assert h["p99"] is not None
            assert h["p50"] <= h["p99"]
            assert h["bars"] and all("le" in bar for bar in h["bars"])


def test_lanes_from_trace(figure4_trace):
    lanes = lanes_from_trace(figure4_trace)
    assert lanes["available"] and lanes["span_count"] > 0
    names = {t["track"] for t in lanes["tracks"]}
    assert {"world", "introspection"} <= names
    # deterministic ordering: tracks sorted by (pid, tid)
    order = [(t["pid"], t["tid"]) for t in lanes["tracks"]]
    assert order == sorted(order)
    span_names = {
        s["name"] for t in lanes["tracks"] for s in t["spans"]
    }
    assert any(name.startswith("scan area") for name in span_names)
    assert "secure world" in span_names


def test_dashboard_without_trace_marks_lanes_unavailable(tmp_path):
    campaign_dir, _ = run_e7(tmp_path, "notrace")
    data = build_dashboard_data(campaign_dir)
    assert data["lanes"] == {"available": False}


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------


def test_html_is_self_contained_and_embeds_data(tmp_path, figure4_trace):
    campaign_dir, _ = run_e7(tmp_path, "html")
    data = build_dashboard_data(campaign_dir, trace=figure4_trace)
    html = render_dashboard_html(data)
    assert "<script src" not in html and "fetch(" not in html
    assert "http-equiv" not in html and "@import" not in html
    assert "</" not in html.split("const DATA = ", 1)[1].split(";\n", 1)[0]
    start = html.index("const DATA = ") + len("const DATA = ")
    blob = html[start : html.index(";\n", start)]
    assert json.loads(blob.replace("<\\/", "</")) == data


# ---------------------------------------------------------------------------
# --follow robustness: partial/mid-write campaigns never crash the tailer
# ---------------------------------------------------------------------------


def test_load_manifest_safe_tolerates_truncation(tmp_path):
    campaign_dir = str(tmp_path / "c")
    os.makedirs(campaign_dir)
    assert load_manifest_safe(campaign_dir) is None  # absent
    path = os.path.join(campaign_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"schema": "satin-campaign-manifest/v1", "tot')
    assert load_manifest_safe(campaign_dir) is None  # mid-write
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('["not", "a", "manifest"]\n')
    assert load_manifest_safe(campaign_dir) is None  # wrong shape


def test_store_progress_reads_mid_write_shards(tmp_path):
    campaign_dir = str(tmp_path / "c")
    assert store_progress(campaign_dir) == {"available": False}
    os.makedirs(campaign_dir)
    with open(
        os.path.join(campaign_dir, "shard-0a.jsonl"), "w", encoding="utf-8"
    ) as handle:
        handle.write('{"key": "a1", "status": "ok"}\n')
        handle.write('{"key": "a2", "status"')  # torn tail mid-write
    with open(
        os.path.join(campaign_dir, "quarantine.jsonl"), "w", encoding="utf-8"
    ) as handle:
        handle.write('{"key": "b1", "status": "failed"}\n')
    progress = store_progress(campaign_dir)
    assert progress["records"] == 1
    assert progress["truncated_records"] == 1
    assert progress["quarantined"] == 1


def test_snapshot_once_states(tmp_path):
    campaign_dir = str(tmp_path / "c")
    data, state = snapshot_once(campaign_dir)
    assert state == "waiting" and data["partial"]

    os.makedirs(campaign_dir)
    with open(
        os.path.join(campaign_dir, "shard-0a.jsonl"), "w", encoding="utf-8"
    ) as handle:
        handle.write('{"key": "a1", "status": "ok"}\n')
    data, state = snapshot_once(campaign_dir)
    assert state == "running"
    assert data["progress"]["records"] == 1

    # a manifest missing its survival section must not crash anything
    with open(
        os.path.join(campaign_dir, MANIFEST_NAME), "w", encoding="utf-8"
    ) as handle:
        json.dump({"schema": "satin-campaign-manifest/v1"}, handle)
    data, state = snapshot_once(campaign_dir)
    assert state == "complete"
    assert data["survival"] == {"available": False}
    render_dashboard_html(data)  # renders without survival/store/metrics


def test_follow_exits_130_on_cancelled_manifest(tmp_path):
    campaign_dir = str(tmp_path / "c")
    os.makedirs(campaign_dir)
    with open(
        os.path.join(campaign_dir, MANIFEST_NAME), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {"schema": "satin-campaign-manifest/v1", "cancelled": True}, handle
        )
    out = str(tmp_path / "dash.html")
    code = follow_campaign(campaign_dir, out, interval=0, sleep=lambda _s: None)
    assert code == 130
    assert os.path.exists(out)


def test_follow_renders_final_dashboard_when_manifest_lands(tmp_path):
    campaign_dir, _ = run_e7(tmp_path, "follow")
    out = str(tmp_path / "dash.html")
    out_json = str(tmp_path / "dashboard.json")
    code = follow_campaign(
        campaign_dir, out, out_json=out_json, interval=0, sleep=lambda _s: None
    )
    assert code == 0
    with open(out_json, "r", encoding="utf-8") as handle:
        followed = handle.read()
    # the followed campaign's final data equals an after-the-fact render
    assert followed == dashboard_json(build_dashboard_data(campaign_dir))


def test_follow_gives_up_after_max_rounds(tmp_path):
    campaign_dir = str(tmp_path / "never-finishes")
    os.makedirs(campaign_dir)
    sleeps = []
    code = follow_campaign(
        campaign_dir,
        str(tmp_path / "dash.html"),
        interval=0.5,
        max_rounds=3,
        sleep=sleeps.append,
    )
    assert code == 3
    assert sleeps == [0.5, 0.5]
