"""Durable job journal: the write-ahead log behind ``repro serve --recover``.

Every :class:`~repro.service.jobs.JobState` transition the service makes
is appended — as one fsync'd JSONL line — to ``<cache>/journal/
journal.jsonl`` *before* the transition is considered committed.  On
restart the service replays the journal (latest record per job wins,
submission order preserved) and reconstructs every job: terminal jobs are
served straight from the replayed state plus the content-addressed store,
in-flight jobs are reset to ``pending`` and re-dispatched through the
campaign ``resume`` path, which re-serves completed trials from the store
and therefore converges to byte-identical manifests.

Growth is bounded by *compaction*: periodically the full job table is
written to ``snapshot.json`` and the journal is emptied, each by an
atomic rewrite.  The journal is a :mod:`repro.durable` record log, like
the result store's shards, so replay is tolerant the same way:

* a torn/truncated journal line — the signature of a crash mid-append —
  is skipped with a warning and counted (``journal.truncated_records``);
  the next append ends it with a newline first, so it never swallows a
  later record;
* a corrupt snapshot falls back to replaying the full journal.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durable import (
    append_record,
    atomic_write_bytes,
    atomic_write_json,
    read_records,
)

#: Journal directory name under the service cache root.
JOURNAL_DIRNAME = "journal"
JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"

#: Journal appends between automatic compactions.
DEFAULT_COMPACT_EVERY = 256


@dataclass
class ReplayResult:
    """What :meth:`JobJournal.replay` reconstructed.

    ``jobs`` is the latest JSON state per job, in original submission
    order (snapshot order first, then first-appearance order in the
    journal tail).
    """

    jobs: List[Dict[str, Any]] = field(default_factory=list)
    #: journal records applied (snapshot entries excluded).
    replayed_records: int = 0
    #: torn JSONL lines skipped (crash mid-append).
    truncated_records: int = 0
    #: True when snapshot.json existed but could not be parsed.
    snapshot_fallback: bool = False


class JobJournal:
    """Append-only JSONL write-ahead log + snapshot for job states.

    Thread-safe: appends and compactions serialize on an internal lock.
    Every append is fsync'd before returning, so a record the caller saw
    committed survives SIGKILL.
    """

    def __init__(self, root: str, registry: Optional[Any] = None) -> None:
        self.directory = os.path.join(root, JOURNAL_DIRNAME)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, JOURNAL_NAME)
        self.snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        self.registry = registry
        self._lock = threading.Lock()
        #: appends since the last compaction (drives auto-compaction).
        self.records_since_compact = 0
        self.truncated_records = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None and amount:
            self.registry.counter(name).inc(amount)

    def append(self, job_json: Dict[str, Any]) -> None:
        """Durably record one job state (called on every transition)."""
        with self._lock:
            append_record(self.path, {"v": 1, "job": job_json})
            self.records_since_compact += 1
        self._count("journal.records")

    def compact(self, jobs: List[Dict[str, Any]]) -> None:
        """Fold the journal into ``snapshot.json`` and truncate the log.

        ``jobs`` is the authoritative job table (submission order).  The
        snapshot lands atomically *before* the journal is truncated, so a
        crash between the two steps merely replays records the snapshot
        already holds — latest-wins replay makes that harmless.
        """
        with self._lock:
            atomic_write_json(self.snapshot_path, {"v": 1, "jobs": jobs})
            atomic_write_bytes(self.path, b"")
            self.records_since_compact = 0
            self.compactions += 1
        self._count("journal.compactions")

    def maybe_compact(
        self, jobs: List[Dict[str, Any]], every: int = DEFAULT_COMPACT_EVERY
    ) -> bool:
        """Compact when the journal has grown past ``every`` appends."""
        if every < 1 or self.records_since_compact < every:
            return False
        self.compact(jobs)
        return True

    def close(self) -> None:
        """Nothing to release: every append opens, fsyncs and closes."""

    # ------------------------------------------------------------------
    # Replay side
    # ------------------------------------------------------------------

    def _load_snapshot(self, result: ReplayResult) -> List[Dict[str, Any]]:
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
            jobs = snapshot["jobs"]
            if not isinstance(jobs, list):
                raise ValueError("snapshot jobs is not a list")
            return [job for job in jobs if isinstance(job, dict)]
        except FileNotFoundError:
            return []
        except (ValueError, KeyError, TypeError, OSError):
            result.snapshot_fallback = True
            self._count("journal.snapshot_fallbacks")
            warnings.warn(
                f"corrupt journal snapshot at {self.snapshot_path}; "
                "falling back to full journal replay",
                RuntimeWarning,
                stacklevel=3,
            )
            return []

    def replay(self) -> ReplayResult:
        """Reconstruct the latest state of every journaled job."""
        result = ReplayResult()
        order: List[str] = []
        latest: Dict[str, Dict[str, Any]] = {}

        def apply(job_json: Dict[str, Any]) -> None:
            job_id = job_json.get("job_id")
            if not isinstance(job_id, str):
                return
            if job_id not in latest:
                order.append(job_id)
            latest[job_id] = job_json

        for job_json in self._load_snapshot(result):
            apply(job_json)

        def torn(_offset: int, number: int) -> None:
            result.truncated_records += 1
            warnings.warn(
                f"skipping torn journal record at {self.path}:{number} "
                "(truncated write from an interrupted serve?)",
                RuntimeWarning,
                stacklevel=4,
            )

        entries, _ = read_records(self.path, "job", on_torn=torn)
        for offset, _length, record in entries:
            job_json = record["job"]
            if isinstance(job_json, dict):
                apply(job_json)
                result.replayed_records += 1
            else:  # a JSON object, but not one this journal wrote
                with open(self.path, "rb") as handle:
                    torn(offset, handle.read(offset).count(b"\n") + 1)

        self.truncated_records += result.truncated_records
        self._count("journal.truncated_records", result.truncated_records)
        result.jobs = [latest[job_id] for job_id in order]
        return result
