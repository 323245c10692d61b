"""The shared record log: crash boundaries, atomic rewrites, on-disk bytes.

The crash-boundary tests are the append-only slice of an ALICE-style
harness (Pillai et al., OSDI 2014): the host dies mid-append at every byte
of the last two records, the log is reopened and appended to, and every
record that was complete before the crash must still read back.
"""

import json
import os
import shutil
import threading
import warnings

import pytest

from repro.campaign.digest import CODE_VERSION
from repro.campaign.store import ResultStore, campaign_dirs
from repro.durable import append_record, atomic_write_bytes, read_records
from repro.obs.dashboard.follow import store_progress
from repro.service.journal import JobJournal

CAMPAIGN = "E7-crash"


def shard_record(i):
    return {"key": f"a{i}", "status": "ok", "payload": {"v": i}}


def job_json(i):
    return {"job_id": f"job-{i:04d}-aa", "state": "done", "spec": {"seeds": i}}


def line_extents(path):
    """(start, end) byte extents of each line of ``path``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    extents, start = [], 0
    for line in blob.splitlines(keepends=True):
        extents.append((start, start + len(line)))
        start += len(line)
    return extents


def crash_cuts(path):
    """(k, indices of records complete before k, expected torn count).

    ``k`` runs from the start of the second-to-last line to the end of the
    file.  A line whose JSON ends before ``k`` survives even when only its
    newline was lost; any other cut inside a line leaves one torn line.
    """
    extents = line_extents(path)
    for k in range(extents[-2][0], extents[-1][1] + 1):
        complete = [i for i, (_, end) in enumerate(extents) if end - 1 <= k]
        inside = any(start < k < end - 1 for start, end in extents)
        yield k, complete, int(inside)


def crash_copy(src, dst, name, k):
    """Copy directory ``src`` to ``dst`` with file ``name`` cut to ``k`` bytes."""
    shutil.copytree(src, dst)
    with open(os.path.join(dst, name), "r+b") as handle:
        handle.truncate(k)


def test_store_shard_survives_a_crash_at_every_byte(tmp_path):
    base = ResultStore(str(tmp_path / "base"), CAMPAIGN)
    base.put(shard_record(0))
    base.put(shard_record(1))
    base.save_index()  # the saved index covers everything but the tail
    base.put(shard_record(2))
    base.put(shard_record(3))
    shard = os.path.basename(base.shard_path("a0"))
    new = shard_record(9)

    for k, complete, torn in crash_cuts(base.shard_path("a0")):
        root = str(tmp_path / f"k{k}")
        crash_copy(base.directory, os.path.join(root, CAMPAIGN), shard, k)
        expected = {f"a{i}": shard_record(i) for i in complete}
        expected[new["key"]] = new
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ResultStore(root, CAMPAIGN).put(new)

            # indexed reads from a fresh open, then the saved index itself
            indexed = ResultStore(root, CAMPAIGN)
            assert len(indexed) == len(expected), k
            for key, record in expected.items():
                assert indexed.get(key) == record, (k, key)
            indexed.save_index()
            with open(indexed.index_path(), encoding="utf-8") as handle:
                assert set(json.load(handle)["entries"]) == set(expected), k
            assert indexed.full_scans == 0

            # the full-scan path and the torn count
            loaded = ResultStore(root, CAMPAIGN)
            assert loaded.load() == len(expected), k
            assert {key: loaded.get(key) for key in expected} == expected
            assert loaded.truncated_records == torn, k

            # the dashboard tailer reads the same store and never raises
            progress = store_progress(loaded.directory)
            assert progress["records"] == len(expected), k
            assert progress["truncated_records"] == torn, k

            report = loaded.gc()
            assert report["truncated_dropped"] == torn, k
            assert report["records_kept"] == len(expected), k
            compacted = ResultStore(root, CAMPAIGN)
            assert compacted.load() == len(expected), k
            assert {key: compacted.get(key) for key in expected} == expected
            assert compacted.truncated_records == 0


def test_journal_survives_a_crash_at_every_byte(tmp_path):
    base = JobJournal(str(tmp_path / "base"))
    for i in range(4):
        base.append(job_json(i))
    new = job_json(9)

    for k, complete, torn in crash_cuts(base.path):
        root = tmp_path / f"k{k}"
        crash_copy(base.directory, str(root / "journal"), "journal.jsonl", k)
        JobJournal(str(root)).append(new)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            replay = JobJournal(str(root)).replay()
        assert replay.jobs == [job_json(i) for i in complete] + [new], k
        assert replay.truncated_records == torn, k


def test_append_record_ends_a_torn_tail_first(tmp_path):
    path = str(tmp_path / "log.jsonl")
    assert append_record(path, {"key": "a"}) == (0, 13)
    with open(path, "ab") as handle:
        handle.write(b'{"key": "b", "sta')  # torn tail, no newline
    offset, length = append_record(path, {"key": "c"})
    assert (offset, length) == (13 + 17 + 1, 13)
    entries, torn = read_records(path, "key")
    assert [(o, n, r["key"]) for o, n, r in entries] == [(0, 13, "a"), (31, 13, "c")]
    assert torn == 1
    assert read_records(str(tmp_path / "missing.jsonl"), "key") == ([], 0)


def test_read_records_reports_torn_lines_and_skips_blank_ones(tmp_path):
    path = str(tmp_path / "log.jsonl")
    with open(path, "wb") as handle:
        handle.write(b'{"key": 1}\n\n[1, 2]\n{"other": 2}\n\xff\xfe\n{"key": 3}\n')
    seen = []
    entries, torn = read_records(path, "key", on_torn=lambda o, n: seen.append((o, n)))
    assert [record["key"] for _, _, record in entries] == [1, 3]
    assert torn == 3
    assert seen == [(12, 3), (19, 4), (32, 5)]
    # a read from a later offset numbers its lines from there
    entries, torn = read_records(path, "key", start=12)
    assert [offset for offset, _, _ in entries] == [35] and torn == 3


def test_crash_before_rename_keeps_the_old_file(tmp_path, monkeypatch):
    store = ResultStore(str(tmp_path), CAMPAIGN)
    store.put(shard_record(0))
    path = store.shard_path("a0")
    with open(path, "rb") as handle:
        before = handle.read()

    def host_dies(src, dst):
        raise OSError("host died before the rename")

    monkeypatch.setattr(os, "replace", host_dies)
    with pytest.raises(OSError):
        atomic_write_bytes(path, b"")
    monkeypatch.undo()

    with open(path, "rb") as handle:
        assert handle.read() == before
    tmp = f"shard-0a.jsonl.tmp.{os.getpid()}.{threading.get_ident()}"
    assert tmp in os.listdir(store.directory)
    assert store.shard_paths() == [path]
    assert ResultStore(str(tmp_path), CAMPAIGN).load() == 1

    # a directory holding only stray tmp files is not a campaign
    stray = tmp_path / "E9-stray"
    stray.mkdir()
    (stray / "shard-0b.jsonl.tmp.1.2").write_bytes(b"")
    (stray / "quarantine.jsonl.tmp.1.2").write_bytes(b"")
    assert campaign_dirs(str(tmp_path)) == [store.directory]


def test_storage_bytes_match_the_established_format(tmp_path):
    """Shard, quarantine, journal and index bytes are fixed by the format."""
    store = ResultStore(str(tmp_path), CAMPAIGN)
    store.put({"status": "ok", "key": "a1", "payload": {"x": 1.5, "n": [1, 2]}})
    store.put({"key": "a2", "status": "ok", "payload": {"é": "ü"}})
    store.quarantine({"key": "b1", "status": "timeout", "seed": 9})
    store.save_index()
    journal = JobJournal(str(tmp_path))
    journal.append({"job_id": "job-0001-aa", "state": "pending", "spec": {"seeds": 2}})

    line1 = b'{"key": "a1", "payload": {"n": [1, 2], "x": 1.5}, "status": "ok"}\n'
    line2 = b'{"key": "a2", "payload": {"\\u00e9": "\\u00fc"}, "status": "ok"}\n'
    with open(store.shard_path("a1"), "rb") as handle:
        assert handle.read() == line1 + line2
    with open(store.quarantine_path(), "rb") as handle:
        assert handle.read() == b'{"key": "b1", "seed": 9, "status": "timeout"}\n'
    with open(journal.path, "rb") as handle:
        assert handle.read() == (
            b'{"job": {"job_id": "job-0001-aa", "spec": {"seeds": 2}, '
            b'"state": "pending"}, "v": 1}\n'
        )
    index = (
        '{"code_version":"%s","entries":{"a1":["shard-0a.jsonl",0,%d],'
        '"a2":["shard-0a.jsonl",%d,%d]},"schema":"satin-store-index/v1",'
        '"shards":{"shard-0a.jsonl":%d}}\n'
        % (CODE_VERSION, len(line1), len(line1), len(line2), len(line1 + line2))
    )
    with open(store.index_path(), "rb") as handle:
        assert handle.read() == index.encode("utf-8")
