"""The job journal: append/replay, compaction, torn-tail tolerance."""

import json
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.journal import JobJournal


def job_json(job_id, state="pending", **extra):
    return {
        "job_id": job_id,
        "state": state,
        "spec": {"kind": "campaign", "target": "E7", "seeds": 2},
        "digest": "d" * 16,
        **extra,
    }


class TestAppendReplay:
    def test_round_trip_latest_wins(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0001-aa", "pending"))
        journal.append(job_json("job-0002-bb", "pending"))
        journal.append(job_json("job-0001-aa", "running"))
        journal.append(job_json("job-0001-aa", "done"))
        journal.close()

        replay = JobJournal(str(tmp_path)).replay()
        assert replay.replayed_records == 4
        assert replay.truncated_records == 0
        assert [j["job_id"] for j in replay.jobs] == [
            "job-0001-aa", "job-0002-bb",
        ]  # submission order preserved
        assert replay.jobs[0]["state"] == "done"
        assert replay.jobs[1]["state"] == "pending"

    def test_empty_journal_replays_to_nothing(self, tmp_path):
        replay = JobJournal(str(tmp_path)).replay()
        assert replay.jobs == [] and replay.replayed_records == 0

    def test_appends_survive_without_close(self, tmp_path):
        # fsync-per-append means a SIGKILL'd writer loses nothing.
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0001-aa"))
        # no close() — simulated crash
        replay = JobJournal(str(tmp_path)).replay()
        assert len(replay.jobs) == 1


class TestTornTail:
    def test_truncated_final_line_skipped_and_counted(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0001-aa", "done"))
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "job": {"job_id": "job-0002-')  # torn

        fresh = JobJournal(str(tmp_path), registry=MetricsRegistry())
        with pytest.warns(RuntimeWarning, match="torn journal record"):
            replay = fresh.replay()
        assert [j["job_id"] for j in replay.jobs] == ["job-0001-aa"]
        assert replay.truncated_records == 1
        assert fresh.registry.snapshot()["counters"][
            "journal.truncated_records"
        ] == 1

    def test_mid_file_garbage_does_not_stop_replay(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0001-aa"))
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0003-cc"))
        journal.close()

        with pytest.warns(RuntimeWarning):
            replay = JobJournal(str(tmp_path)).replay()
        assert [j["job_id"] for j in replay.jobs] == [
            "job-0001-aa", "job-0003-cc",
        ]
        assert replay.truncated_records == 1


    def test_append_after_torn_tail_is_not_swallowed(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0001-aa", "done"))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "job": {"job_id": "job-0002-')  # crash
        JobJournal(str(tmp_path)).append(job_json("job-0003-cc", "pending"))

        with pytest.warns(RuntimeWarning, match="torn journal record"):
            replay = JobJournal(str(tmp_path)).replay()
        assert [j["job_id"] for j in replay.jobs] == [
            "job-0001-aa", "job-0003-cc",
        ]
        assert replay.truncated_records == 1


class TestCompaction:
    def test_compact_truncates_journal_into_snapshot(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        for state in ("pending", "running", "done"):
            journal.append(job_json("job-0001-aa", state))
        journal.compact([job_json("job-0001-aa", "done")])
        assert os.path.getsize(journal.path) == 0
        assert journal.records_since_compact == 0

        replay = JobJournal(str(tmp_path)).replay()
        assert len(replay.jobs) == 1 and replay.jobs[0]["state"] == "done"
        assert replay.replayed_records == 0  # everything came from snapshot

    def test_appends_after_compact_supplement_snapshot(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0001-aa", "done"))
        journal.compact([job_json("job-0001-aa", "done")])
        journal.append(job_json("job-0002-bb", "pending"))
        journal.append(job_json("job-0001-aa", "done", recoveries=1))
        journal.close()

        replay = JobJournal(str(tmp_path)).replay()
        assert [j["job_id"] for j in replay.jobs] == [
            "job-0001-aa", "job-0002-bb",
        ]
        assert replay.jobs[0]["recoveries"] == 1  # journal beats snapshot

    def test_maybe_compact_honours_threshold(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        jobs = [job_json("job-0001-aa")]
        for _ in range(3):
            journal.append(jobs[0])
        assert not journal.maybe_compact(jobs, every=5)
        for _ in range(2):
            journal.append(jobs[0])
        assert journal.maybe_compact(jobs, every=5)
        assert journal.compactions == 1

    def test_corrupt_snapshot_falls_back_to_journal(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append(job_json("job-0001-aa", "done"))
        journal.compact([job_json("job-0001-aa", "done")])
        journal.append(job_json("job-0002-bb", "pending"))
        journal.close()
        with open(journal.snapshot_path, "w", encoding="utf-8") as handle:
            handle.write('{"jobs": [{"job_id"')  # torn snapshot

        with pytest.warns(RuntimeWarning, match="corrupt journal snapshot"):
            replay = JobJournal(str(tmp_path)).replay()
        assert replay.snapshot_fallback
        # the snapshot's jobs are gone, but the journal tail still replays
        assert [j["job_id"] for j in replay.jobs] == ["job-0002-bb"]

    def test_snapshot_is_valid_json(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.compact([job_json("job-0001-aa", "done")])
        with open(journal.snapshot_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["v"] == 1 and len(snapshot["jobs"]) == 1
