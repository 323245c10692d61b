"""CLI integration for ``repro dash``, ``repro store``, ``repro metrics``."""

import json
import os

from repro.campaign.runner import CampaignSpec, run_campaign
from repro.campaign.store import ResultStore
from repro.cli import main


def run_small(tmp_path, experiment="E7", seeds=(1, 2)):
    cache = str(tmp_path / "cache")
    spec = CampaignSpec(experiment, seeds=list(seeds), jobs=0, cache_dir=cache)
    run_campaign(spec, progress=False)
    return cache, os.path.join(cache, spec.campaign_id())


# ---------------------------------------------------------------------------
# repro metrics --format/--top
# ---------------------------------------------------------------------------


def test_metrics_format_json_is_sorted_and_deterministic(tmp_path, capsys):
    cache, _ = run_small(tmp_path)
    assert main(["metrics", cache, "--format", "json"]) == 0
    first = capsys.readouterr().out
    rollup = json.loads(first)
    assert rollup["experiment_id"] == "E7"
    assert rollup["trial_status"] == {"ok": 2}
    assert json.dumps(rollup, indent=1, sort_keys=True) + "\n" == first
    assert main(["metrics", cache, "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_metrics_top_trims_counters(tmp_path, capsys):
    cache, _ = run_small(tmp_path, experiment="E9", seeds=(1,))
    assert main(["metrics", cache, "--format", "json", "--top", "2"]) == 0
    rollup = json.loads(capsys.readouterr().out)
    assert len(rollup["counters"]) == 2
    assert len(rollup["histograms"]) == 2
    assert main(["metrics", cache, "--top", "2"]) == 0
    table = capsys.readouterr().out
    assert "merged counters:" in table


# ---------------------------------------------------------------------------
# repro dash
# ---------------------------------------------------------------------------


def test_dash_writes_html_and_json(tmp_path, capsys):
    _, campaign_dir = run_small(tmp_path)
    out = str(tmp_path / "dash.html")
    out_json = str(tmp_path / "dashboard.json")
    assert main(["dash", campaign_dir, "--out", out, "--json", out_json]) == 0
    html = open(out, encoding="utf-8").read()
    assert "const DATA =" in html and "<script src" not in html
    data = json.loads(open(out_json, encoding="utf-8").read())
    assert data["schema"] == "satin-dashboard/v1"
    assert data["store"]["available"] is True


def test_dash_missing_campaign_errors(tmp_path, capsys):
    assert main(["dash", str(tmp_path / "nope")]) == 2
    assert "manifest" in capsys.readouterr().err


def test_dash_follow_completes_on_finished_campaign(tmp_path, capsys):
    _, campaign_dir = run_small(tmp_path)
    out = str(tmp_path / "dash.html")
    code = main([
        "dash", campaign_dir, "--out", out, "--follow",
        "--interval", "0.01", "--max-rounds", "3",
    ])
    assert code == 0
    assert os.path.exists(out)
    assert "complete" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro store
# ---------------------------------------------------------------------------


def test_store_gc_cli_compacts_and_reports(tmp_path, capsys):
    cache, campaign_dir = run_small(tmp_path)
    store = ResultStore(cache, os.path.basename(campaign_dir))
    store.load()
    key = sorted(k for k in store._entries)[0]
    store.put(dict(store.get(key), payload={"again": True}))  # supersede

    report_path = str(tmp_path / "gc.json")
    assert main(["store", "gc", cache, "--report", report_path]) == 0
    err = capsys.readouterr().err
    assert "dropped 1 superseded" in err
    report = json.loads(open(report_path, encoding="utf-8").read())
    campaign_id = os.path.basename(campaign_dir)
    assert report[campaign_id]["superseded_dropped"] == 1


def test_store_pin_cli(tmp_path, capsys):
    cache, campaign_dir = run_small(tmp_path)
    assert main(["store", "pin", campaign_dir, "--key", "deadbeef"]) == 0
    assert "pinned 1 key(s)" in capsys.readouterr().err
    store = ResultStore(cache, os.path.basename(campaign_dir))
    assert store.pinned_keys() == {"deadbeef"}
    assert main(["store", "pin", campaign_dir]) == 2  # no --key


def test_store_pin_rejects_missing_path_and_cache_root(tmp_path, capsys):
    cache, _ = run_small(tmp_path)
    missing = str(tmp_path / "nope")
    assert main(["store", "pin", missing, "--key", "deadbeef"]) == 2
    assert "no such directory" in capsys.readouterr().err
    assert not os.path.exists(missing)
    assert main(["store", "pin", cache, "--key", "deadbeef"]) == 2
    assert "not a campaign directory" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(cache, "pins.json"))


def test_store_gc_missing_dir(tmp_path, capsys):
    assert main(["store", "gc", str(tmp_path / "nope")]) == 2
