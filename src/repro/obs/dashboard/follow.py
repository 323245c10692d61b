"""``--follow``: tail a running campaign into a live-refreshing dashboard.

A campaign only writes ``manifest.json`` when it finishes, so mid-run the
tailer reads what *is* on disk — the store's JSONL shards, which the
supervisor appends and fsyncs record by record — and renders a partial
dashboard with a progress section.  Every read path here is tolerant of
concurrent writes: a manifest caught mid-write (truncated JSON), a shard
with a torn trailing line, or a directory that does not exist yet all
degrade to "less data", never to an exception: shards are read with the
store's own :func:`repro.durable.read_records`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, IO, Optional, Tuple

from repro.campaign.store import QUARANTINE_NAME, is_shard_name
from repro.obs.dashboard.data import (
    dashboard_data_from_manifest,
    dashboard_json,
)
from repro.durable import atomic_write_bytes, read_records
from repro.obs.dashboard.html import render_dashboard_html
from repro.obs.manifest import MANIFEST_NAME

#: exit codes follow_campaign returns (mirrors the campaign CLI: a
#: cancelled run exits 130, a tailer that gave up while the campaign was
#: still running exits 3).
FOLLOW_COMPLETE = 0
FOLLOW_STILL_RUNNING = 3
FOLLOW_CANCELLED = 130


def load_manifest_safe(campaign_dir: str) -> Optional[Dict[str, Any]]:
    """The campaign's manifest, or None if absent / mid-write / not one.

    Unlike :func:`~repro.obs.manifest.load_manifest` this never raises:
    a truncated JSON file (the writer got killed mid-dump) or a JSON body
    that is not a manifest (missing ``schema``) both read as "no manifest
    yet".
    """
    path = os.path.join(campaign_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or "schema" not in manifest:
        return None
    return manifest


def store_progress(campaign_dir: str) -> Dict[str, Any]:
    """Read-only record counts from a (possibly mid-write) store.

    Deliberately does NOT go through :class:`ResultStore` — the tailer
    must never create directories or write ``index.json`` into a campaign
    the supervisor owns.  Torn trailing lines are counted, not raised.
    """
    if not os.path.isdir(campaign_dir):
        return {"available": False}
    records: Dict[str, str] = {}
    truncated = 0
    quarantined = 0
    try:
        names = sorted(os.listdir(campaign_dir))
    except OSError:
        return {"available": False}
    for name in names:
        path = os.path.join(campaign_dir, name)
        is_shard = is_shard_name(name)
        if not is_shard and name != QUARANTINE_NAME:
            continue
        try:
            entries, torn = read_records(path, "key")
        except OSError:
            continue
        truncated += torn
        if not is_shard:
            quarantined += len(entries)
            continue
        for _offset, _length, record in entries:
            records[record["key"]] = str(record.get("status", "ok"))
    statuses: Dict[str, int] = {}
    for status in records.values():
        statuses[status] = statuses.get(status, 0) + 1
    return {
        "available": True,
        "records": len(records),
        "statuses": dict(sorted(statuses.items())),
        "quarantined": quarantined,
        "truncated_records": truncated,
    }


def snapshot_once(
    campaign_dir: str,
    trace: Optional[Dict[str, Any]] = None,
    top: Optional[int] = None,
) -> Tuple[Dict[str, Any], str]:
    """One tail round: (dashboard data, state).

    ``state`` is ``"complete"`` / ``"cancelled"`` once the manifest
    exists, ``"running"`` while only shards exist, ``"waiting"`` before
    the campaign directory appears.  When the manifest exists the data is
    exactly what a non-follow render would produce, so the final write of
    a followed campaign equals ``repro dash`` run after the fact.
    """
    manifest = load_manifest_safe(campaign_dir)
    if manifest is not None:
        data = dashboard_data_from_manifest(manifest, trace=trace, top=top)
        state = "cancelled" if manifest.get("cancelled") else "complete"
        return data, state
    data = dashboard_data_from_manifest({}, trace=trace, top=top, partial=True)
    progress = store_progress(campaign_dir)
    data["progress"] = progress
    state = "running" if progress.get("available") else "waiting"
    return data, state


def follow_campaign(
    campaign_dir: str,
    out_html: str,
    out_json: Optional[str] = None,
    trace: Optional[Dict[str, Any]] = None,
    top: Optional[int] = None,
    interval: float = 2.0,
    max_rounds: Optional[int] = None,
    stream: Optional[IO[str]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Re-render ``out_html`` until the campaign's manifest lands.

    Returns 0 when the manifest reports a completed run, 130 when it
    reports a cancelled one, and 3 if ``max_rounds`` elapsed with the
    campaign still running (the dashboard on disk is the latest partial).
    """
    rounds = 0
    while True:
        rounds += 1
        data, state = snapshot_once(campaign_dir, trace=trace, top=top)
        atomic_write_bytes(out_html, render_dashboard_html(data).encode("utf-8"))
        if out_json:
            atomic_write_bytes(out_json, dashboard_json(data).encode("utf-8"))
        if stream is not None:
            progress = data.get("progress", {})
            detail = (
                f"{progress.get('records', 0)} record(s), "
                f"{progress.get('quarantined', 0)} quarantined"
                if state in ("running", "waiting")
                else f"{data.get('ok_trials', 0)} ok trial(s)"
            )
            stream.write(f"[dash] round {rounds}: {state} — {detail}\n")
            stream.flush()
        if state == "complete":
            return FOLLOW_COMPLETE
        if state == "cancelled":
            return FOLLOW_CANCELLED
        if max_rounds is not None and rounds >= max_rounds:
            return FOLLOW_STILL_RUNNING
        sleep(interval)
