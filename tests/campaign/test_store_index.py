"""Store index: O(1) warm resume, migration shim, gc + pins."""

import json
import os

import pytest

from repro.campaign.runner import CampaignSpec, run_campaign
from repro.campaign.store import INDEX_SCHEMA, ResultStore, campaign_dirs
from repro.service.jobs import Execution


def make_store(tmp_path, campaign_id="E7-test"):
    return ResultStore(str(tmp_path), campaign_id)


def record(key, **extra):
    body = {"key": key, "status": "ok", "payload": {}}
    body.update(extra)
    return body


# ---------------------------------------------------------------------------
# Index lifecycle
# ---------------------------------------------------------------------------


def test_put_saves_entries_and_save_index_persists(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111"))
    store.put(record("b222"))
    store.save_index()
    with open(store.index_path(), "r", encoding="utf-8") as handle:
        saved = json.load(handle)
    assert saved["schema"] == INDEX_SCHEMA
    assert set(saved["entries"]) == {"a111", "b222"}
    name, offset, length = saved["entries"]["a111"]
    assert name == "shard-0a.jsonl" and offset == 0 and length > 0


def test_indexed_reopen_reads_without_full_scan(tmp_path):
    store = make_store(tmp_path)
    for key in ("a111", "b222", "c333"):
        store.put(record(key, payload={"k": key}))
    store.save_index()

    warm = make_store(tmp_path)
    assert warm.get("b222")["key"] == "b222"
    assert warm.full_scans == 0
    assert warm.record_reads == 1
    assert len(warm) == 3


def test_warm_campaign_resume_performs_no_full_scan(tmp_path):
    spec = CampaignSpec(
        "E7", seeds=[1, 2, 3],
        execution=Execution(jobs=0, cache_dir=str(tmp_path), resume=True),
    )
    first = run_campaign(spec, progress=False)
    assert first.ran == 3

    second = run_campaign(spec, progress=False)
    assert second.ran == 0 and second.cached == 3
    health = second.manifest_path and json.load(
        open(second.manifest_path)
    ).get("store")
    assert health is not None
    # the acceptance criterion: indexed resume does zero full shard scans
    assert health["index"]["full_scans"] == 0
    assert health["index"]["record_reads"] >= 3
    assert health["records"] == 3


def test_pre_index_store_is_lazily_migrated(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111"))
    store.put(record("b222"))
    assert not os.path.exists(store.index_path())  # put() alone saves none

    legacy = make_store(tmp_path)
    assert not os.path.exists(legacy.index_path())
    assert legacy.get("a111") is not None
    assert legacy.lazy_reindexed == 1
    assert os.path.exists(legacy.index_path())  # saved on migration
    assert legacy.health()["index"]["lazy_reindexed"] == 1


def test_grown_shard_triggers_tail_scan_not_rebuild(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111"))
    store.save_index()
    # grow the shard behind the saved index
    with open(store.shard_path("a222"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record("a222"), sort_keys=True) + "\n")

    warm = make_store(tmp_path)
    assert warm.get("a222") is not None
    assert warm.tail_scans == 1
    assert warm.full_scans == 0 and warm.index_rebuilds == 0


def test_corrupt_index_rebuilds(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111"))
    store.save_index()
    with open(store.index_path(), "w", encoding="utf-8") as handle:
        handle.write("{ not json")

    reopened = make_store(tmp_path)
    assert reopened.get("a111") is not None
    assert reopened.index_rebuilds == 1


def test_shrunk_shard_rebuilds(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111"))
    store.put(record("a222"))
    store.save_index()
    # truncate the shard (external rewrite) — index offsets now lie
    path = store.shard_path("a111")
    with open(path, "r", encoding="utf-8") as handle:
        first_line = handle.readline()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(first_line)

    reopened = make_store(tmp_path)
    assert reopened.get("a111") is not None
    assert reopened.index_rebuilds == 1
    assert len(reopened) == 1


def test_stale_entry_falls_back_to_full_load(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111"))
    store.put(record("a222"))
    store.save_index()
    # corrupt the index entry's offset without touching shard sizes
    with open(store.index_path(), "r", encoding="utf-8") as handle:
        saved = json.load(handle)
    a, b = saved["entries"]["a111"], saved["entries"]["a222"]
    saved["entries"]["a111"], saved["entries"]["a222"] = b, a
    with open(store.index_path(), "w", encoding="utf-8") as handle:
        json.dump(saved, handle)

    reopened = make_store(tmp_path)
    assert reopened.get("a111")["key"] == "a111"  # corrected via full load
    assert reopened.full_scans == 1


# ---------------------------------------------------------------------------
# Truncated-line accounting (counted once per path)
# ---------------------------------------------------------------------------


def test_truncated_lines_counted_once_across_reloads(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111"))
    with open(store.shard_path("a111"), "a", encoding="utf-8") as handle:
        handle.write('{"key": "a222", "status"')  # torn mid-write

    reopened = make_store(tmp_path)
    with pytest.warns(RuntimeWarning):
        reopened.load()
    assert reopened.truncated_records == 1
    # re-loading must not double-count the same torn line (and must not
    # re-warn: the warning fires once per path)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened.load()
        reopened.load()
    assert reopened.truncated_records == 1
    assert reopened.health()["truncated_records"] == 1


# ---------------------------------------------------------------------------
# gc + pins
# ---------------------------------------------------------------------------


def _lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle if line.strip()]


def test_gc_drops_superseded_and_torn_lines(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111", payload={"v": 1}))
    store.put(record("a111", payload={"v": 2}))  # supersedes
    store.put(record("a222"))
    with open(store.shard_path("a111"), "a", encoding="utf-8") as handle:
        handle.write('{"torn')

    report = store.gc()
    assert report["superseded_dropped"] == 1
    assert report["truncated_dropped"] == 1
    assert report["records_kept"] == 2
    assert len(_lines(store.shard_path("a111"))) == 2
    # the surviving record is the latest
    fresh = make_store(tmp_path)
    assert fresh.get("a111")["payload"] == {"v": 2}
    assert fresh.truncated_records == 0


def test_gc_dry_run_touches_nothing(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111", payload={"v": 1}))
    store.put(record("a111", payload={"v": 2}))
    before = _lines(store.shard_path("a111"))
    report = store.gc(dry_run=True)
    assert report["dry_run"] and report["superseded_dropped"] == 1
    assert _lines(store.shard_path("a111")) == before


def test_gc_preserves_pinned_lines_verbatim(tmp_path):
    store = make_store(tmp_path)
    store.put(record("a111", payload={"v": 1}))
    store.put(record("a111", payload={"v": 2}))
    store.put(record("a222", payload={"v": 1}))
    store.put(record("a222", payload={"v": 2}))
    store.pin("a111")

    report = store.gc()
    assert report["pinned"] == 1
    lines = _lines(store.shard_path("a111"))
    keys = [json.loads(line)["key"] for line in lines]
    # both pinned lines survive; the unpinned key was compacted to one
    assert keys.count("a111") == 2 and keys.count("a222") == 1


def test_gc_resolves_quarantine_unless_pinned(tmp_path):
    store = make_store(tmp_path)
    store.quarantine({"key": "a111", "status": "failed", "attempts": 2})
    store.quarantine({"key": "b222", "status": "failed", "attempts": 2})
    store.put(record("a111"))  # retried ok -> quarantine entry resolved
    store.put(record("b222"))
    store.pin("b222")

    report = store.gc()
    assert report["quarantine_resolved"] == 1
    assert report["quarantine_kept"] == 1
    kept = [json.loads(line)["key"] for line in _lines(store.quarantine_path())]
    assert kept == ["b222"]


def test_campaign_dirs_finds_stores_and_skips_jobs(tmp_path):
    make_store(tmp_path, "E7-one").put(record("a111"))
    make_store(tmp_path, "E9-two").put(record("b222"))
    os.makedirs(os.path.join(str(tmp_path), "jobs", "job-0001"))
    os.makedirs(os.path.join(str(tmp_path), "unrelated"))
    found = [os.path.basename(p) for p in campaign_dirs(str(tmp_path))]
    assert found == ["E7-one", "E9-two"]
