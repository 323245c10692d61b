"""Content-addressed result store behaviour."""

import json
import os

from repro.campaign.store import ResultStore


def make_store(tmp_path):
    return ResultStore(str(tmp_path), "E7-test")


def test_put_get_roundtrip(tmp_path):
    store = make_store(tmp_path)
    record = {"key": "abc123", "status": "ok", "payload": {"x": 1.5}}
    store.put(record)
    assert store.get("abc123") == record
    assert "abc123" in store
    assert len(store) == 1


def test_records_persist_across_reopen(tmp_path):
    store = make_store(tmp_path)
    store.put({"key": "a1", "status": "ok", "payload": {}})
    store.put({"key": "b2", "status": "ok", "payload": {}})
    reopened = make_store(tmp_path)
    assert reopened.load() == 2
    assert reopened.get("a1") is not None and reopened.get("b2") is not None


def test_keys_route_to_shards_by_first_hex_digit(tmp_path):
    store = make_store(tmp_path)
    store.put({"key": "a111", "status": "ok"})
    store.put({"key": "a222", "status": "ok"})
    store.put({"key": "f333", "status": "ok"})
    names = sorted(os.path.basename(p) for p in store.shard_paths())
    assert names == ["shard-0a.jsonl", "shard-0f.jsonl"]


def test_corrupt_lines_are_skipped(tmp_path):
    store = make_store(tmp_path)
    store.put({"key": "a1", "status": "ok", "payload": {"v": 1}})
    # Simulate a run killed mid-write: torn JSON on the final line.
    with open(store.shard_path("a1"), "a", encoding="utf-8") as handle:
        handle.write('{"key": "a2", "status": "o')
    reopened = make_store(tmp_path)
    assert reopened.load() == 1
    assert reopened.get("a2") is None


def test_later_records_supersede_earlier(tmp_path):
    store = make_store(tmp_path)
    store.put({"key": "a1", "status": "ok", "payload": {"v": 1}})
    store.put({"key": "a1", "status": "ok", "payload": {"v": 2}})
    reopened = make_store(tmp_path)
    reopened.load()
    assert reopened.get("a1")["payload"]["v"] == 2


def test_quarantine_is_separate_from_cache(tmp_path):
    store = make_store(tmp_path)
    store.quarantine({"key": "bad1", "status": "timeout", "seed": 9})
    assert store.get("bad1") is None  # never served as a cache hit
    assert [q["key"] for q in store.quarantined()] == ["bad1"]


def test_shard_lines_are_valid_json(tmp_path):
    store = make_store(tmp_path)
    store.put({"key": "c9", "status": "ok", "payload": {"pi": 3.14}})
    with open(store.shard_path("c9"), encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert lines == [{"key": "c9", "status": "ok", "payload": {"pi": 3.14}}]


def test_corrupt_lines_are_counted_and_warned(tmp_path):
    store = make_store(tmp_path)
    store.put({"key": "a1", "status": "ok", "payload": {"v": 1}})
    store.put({"key": "b7", "status": "ok", "payload": {"v": 2}})
    with open(store.shard_path("a1"), "a", encoding="utf-8") as handle:
        handle.write('{"key": "a2", "status": "o')  # torn tail
    with open(store.shard_path("b7"), "a", encoding="utf-8") as handle:
        handle.write('[1, 2, 3]\n')  # valid JSON, not a record

    import pytest

    reopened = make_store(tmp_path)
    with pytest.warns(RuntimeWarning, match="corrupt record"):
        assert reopened.load() == 2
    assert reopened.truncated_records == 2
    # A clean reload resets the count.
    for path in reopened.shard_paths():
        lines = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "key" in record:
                    lines.append(line)
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
    assert reopened.load() == 2
    assert reopened.truncated_records == 0


def test_corrupt_quarantine_lines_are_tolerated(tmp_path):
    store = make_store(tmp_path)
    store.quarantine({"key": "bad1", "status": "timeout", "seed": 9})
    with open(store.quarantine_path(), "a", encoding="utf-8") as handle:
        handle.write('{"key": "bad2", "stat')

    import pytest

    with pytest.warns(RuntimeWarning, match="corrupt record"):
        assert [q["key"] for q in store.quarantined()] == ["bad1"]


def test_undecodable_bytes_do_not_abort_the_shard(tmp_path):
    store = make_store(tmp_path)
    store.put({"key": "a1", "status": "ok", "payload": {"v": 1}})
    with open(store.shard_path("a1"), "ab") as handle:
        handle.write(b'{"key": "a2"\xff\xfe')  # torn multi-byte tail

    import pytest

    reopened = make_store(tmp_path)
    with pytest.warns(RuntimeWarning, match="corrupt record"):
        assert reopened.load() == 1
    assert reopened.truncated_records == 1


def test_put_after_a_torn_tail_is_not_swallowed(tmp_path):
    import pytest

    store = make_store(tmp_path)
    store.put({"key": "a1", "status": "ok", "payload": {"v": 1}})
    with open(store.shard_path("a1"), "a", encoding="utf-8") as handle:
        handle.write('{"key": "a2", "status": "o')  # crash mid-append
    late = {"key": "a3", "status": "ok", "payload": {"v": 3}}
    with pytest.warns(RuntimeWarning, match="corrupt record"):
        make_store(tmp_path).put(late)

    assert make_store(tmp_path).get("a3") == late
    reopened = make_store(tmp_path)
    with pytest.warns(RuntimeWarning, match="corrupt record"):
        assert reopened.load() == 2
    assert reopened.get("a3") == late
    assert reopened.truncated_records == 1
    report = reopened.gc()
    assert report["truncated_dropped"] == 1 and report["records_kept"] == 2
    compacted = make_store(tmp_path)
    assert compacted.load() == 2 and compacted.get("a3") == late


def test_quarantine_after_a_torn_tail_is_not_swallowed(tmp_path):
    import pytest

    store = make_store(tmp_path)
    store.quarantine({"key": "bad1", "status": "timeout", "seed": 9})
    with open(store.quarantine_path(), "a", encoding="utf-8") as handle:
        handle.write('{"key": "bad2", "stat')  # crash mid-append
    make_store(tmp_path).quarantine({"key": "bad3", "status": "timeout", "seed": 3})

    reopened = make_store(tmp_path)
    with pytest.warns(RuntimeWarning, match="corrupt record"):
        assert [q["key"] for q in reopened.quarantined()] == ["bad1", "bad3"]
    assert reopened.truncated_records == 1
