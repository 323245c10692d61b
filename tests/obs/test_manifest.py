"""Campaign manifests: writing, discovery, parallel/serial byte identity."""

import json
import os
import stat
import threading

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.errors import ObservabilityError
from repro.obs.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    find_manifest,
    load_manifest,
    render_histogram,
    render_manifest,
    write_manifest,
)


def small_spec(tmp_path, jobs=0, seeds=(0, 1), **overrides):
    params = dict(
        experiment_id="E1",
        seeds=list(seeds),
        jobs=jobs,
        cache_dir=str(tmp_path),
    )
    params.update(overrides)
    return CampaignSpec(**params)


def test_run_campaign_writes_manifest(tmp_path):
    result = run_campaign(small_spec(tmp_path), progress=False)
    assert result.manifest_path is not None
    assert os.path.basename(result.manifest_path) == MANIFEST_NAME
    manifest = load_manifest(result.manifest_path)
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["experiment_id"] == "E1"
    assert manifest["campaign_id"] == result.spec.campaign_id()
    assert manifest["totals"]["trials"] == 2
    assert manifest["totals"]["ran"] == 2
    assert [t["status"] for t in manifest["trials"]] == ["ok", "ok"]
    # Trials carry machine metrics; the supervisor carries wall-clock ones.
    assert manifest["metrics"]["counters"]
    assert "campaign.trial_wall_seconds" in manifest["supervisor"]["histograms"]


def test_parallel_and_serial_manifest_metrics_byte_identical(tmp_path):
    serial = run_campaign(small_spec(tmp_path / "s", jobs=0), progress=False)
    parallel = run_campaign(small_spec(tmp_path / "p", jobs=2), progress=False)
    serial_metrics = load_manifest(serial.manifest_path)["metrics"]
    parallel_metrics = load_manifest(parallel.manifest_path)["metrics"]
    assert json.dumps(serial_metrics, sort_keys=True) == json.dumps(
        parallel_metrics, sort_keys=True
    )


def test_find_manifest_resolves_file_dir_and_cache_root(tmp_path):
    result = run_campaign(small_spec(tmp_path), progress=False)
    path = result.manifest_path
    campaign_dir = os.path.dirname(path)
    assert find_manifest(path) == path
    assert find_manifest(campaign_dir) == path
    assert find_manifest(str(tmp_path)) == path  # cache root scan


def test_find_manifest_missing_raises(tmp_path):
    with pytest.raises(ObservabilityError):
        find_manifest(str(tmp_path))


def test_load_manifest_rejects_non_manifest_json(tmp_path):
    bogus = tmp_path / MANIFEST_NAME
    bogus.write_text("[1, 2]\n")
    with pytest.raises(ObservabilityError):
        load_manifest(str(bogus))


def test_render_manifest_rollup_sections(tmp_path):
    result = run_campaign(small_spec(tmp_path), progress=False)
    text = render_manifest(load_manifest(result.manifest_path))
    assert "# campaign E1" in text
    assert "merged counters:" in text
    assert "merged histograms:" in text
    assert "supervisor (wall-clock, not reproducible):" in text


def test_render_histogram_empty_and_bars():
    assert render_histogram("h", {"count": 0, "sum": 0.0, "buckets": {}}) == [
        "h: n=0 sum=0 min=None max=None"
    ]
    lines = render_histogram(
        "h", {"count": 3, "sum": 1.5, "min": 0.5, "max": 0.5, "buckets": {"34": 3}}
    )
    assert len(lines) == 2 and "#" in lines[1]


def test_cli_metrics_renders_rollup(tmp_path, capsys):
    from repro.cli import main

    run_campaign(small_spec(tmp_path), progress=False)
    assert main(["metrics", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "# campaign E1" in out and "merged counters:" in out


def test_cli_metrics_missing_manifest(tmp_path, capsys):
    from repro.cli import main

    assert main(["metrics", str(tmp_path)]) == 2
    assert MANIFEST_NAME in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fingerprints (the backend-equivalence contract)
# ---------------------------------------------------------------------------


def test_fingerprint_ignores_wall_clock_but_tracks_results(tmp_path):
    from repro.obs.manifest import manifest_fingerprint

    result = run_campaign(small_spec(tmp_path), progress=False)
    manifest = load_manifest(result.manifest_path)
    base = manifest_fingerprint(manifest)

    noisy = json.loads(json.dumps(manifest))
    noisy["generated_unix"] = 0.0
    noisy["totals"]["wall_seconds"] = 999.0
    noisy["totals"]["ran"], noisy["totals"]["cached"] = 0, 2  # cache split
    for trial in noisy["trials"]:
        trial["elapsed"], trial["attempts"] = 123.0, 7
    noisy["supervisor"] = {"counters": {"campaign.pool_dispatches": 99}}
    assert manifest_fingerprint(noisy) == base

    changed = json.loads(json.dumps(manifest))
    changed["trials"][0]["status"] = "timeout"
    assert manifest_fingerprint(changed) != base
    changed = json.loads(json.dumps(manifest))
    changed["cancelled"] = True
    assert manifest_fingerprint(changed) != base


def test_cached_rerun_fingerprint_matches_original(tmp_path):
    from repro.obs.manifest import manifest_fingerprint

    first = run_campaign(small_spec(tmp_path), progress=False)
    second = run_campaign(small_spec(tmp_path, resume=True), progress=False)
    assert second.ran == 0 and second.cached == 2
    assert manifest_fingerprint(
        load_manifest(first.manifest_path)
    ) == manifest_fingerprint(load_manifest(second.manifest_path))


def test_write_manifest_syncs_directory_after_rename(tmp_path, monkeypatch):
    path = str(tmp_path / MANIFEST_NAME)
    replaced = []
    synced = []
    real_replace, real_fsync = os.replace, os.fsync

    def spy_replace(src, dst):
        real_replace(src, dst)
        replaced.append((src, dst))

    def spy_fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append((is_dir, len(replaced)))
        real_fsync(fd)

    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(os, "fsync", spy_fsync)
    manifest = {"schema": MANIFEST_SCHEMA, "totals": {"trials": 2}, "b": [1.5, "x"]}
    assert write_manifest(str(tmp_path), manifest) == path
    # The tmp file is pid- and thread-unique, like the service's writers.
    [(tmp, dst)] = replaced
    assert dst == path
    assert tmp == f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    # File contents synced before the rename, the directory after it.
    assert synced == [(False, 0), (True, 1)]
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    assert os.listdir(tmp_path) == [MANIFEST_NAME]

    # The store's pin list goes through the same writer: gc must honour a
    # pin even after a host crash, so it may not ride a bare rename.
    from repro.campaign.store import PINS_NAME, ResultStore

    store = ResultStore(str(tmp_path / "cache"), "E7-test")
    replaced.clear()
    synced.clear()
    store.pin("k2")
    store.pin("k1")
    pins_path = os.path.join(store.directory, PINS_NAME)
    assert [dst for _, dst in replaced] == [pins_path, pins_path]
    assert all(
        tmp == f"{pins_path}.tmp.{os.getpid()}.{threading.get_ident()}"
        for tmp, _ in replaced
    )
    assert synced == [(False, 0), (True, 1), (False, 1), (True, 2)]
    with open(pins_path, encoding="utf-8") as handle:
        assert handle.read() == '[\n "k1",\n "k2"\n]\n'
    assert os.listdir(store.directory) == [PINS_NAME]
    assert store.pinned_keys() == {"k1", "k2"}
