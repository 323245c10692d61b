"""Campaign run manifests: attestable evidence beside the result cache.

Every campaign run writes ``manifest.json`` into its cache directory
(``.repro-cache/<campaign_id>/``), recording what ran, under which code
version and config digest, how each trial fared (wall time, attempts,
cache hit, quarantine), and — the part that must be bit-reproducible —
the **merged deterministic metrics** of every trial, folded in task
order through :func:`repro.obs.metrics.merge_snapshots`.  A ``--jobs 4``
run and a ``--jobs 0`` run over the same grid therefore render identical
``metrics`` sections; only the wall-clock ``supervisor`` section may
differ.

``python -m repro metrics <campaign-dir>`` renders the rollup.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.durable import atomic_write_json
from repro.errors import ObservabilityError
from repro.obs.metrics import bucket_bound, merge_snapshots

MANIFEST_NAME = "manifest.json"

#: Bumped when the manifest layout changes shape.
MANIFEST_SCHEMA = "satin-campaign-manifest/v1"


def build_manifest(
    spec,
    result,
    wall_seconds: float,
    supervisor_snapshot: Optional[Dict[str, Any]] = None,
    cancelled: bool = False,
    store_health: Optional[Dict[str, Any]] = None,
    planner: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest for one finished campaign run.

    ``spec``/``result`` are the campaign's
    :class:`~repro.campaign.runner.CampaignSpec` and
    :class:`~repro.campaign.runner.CampaignResult` (typed loosely to keep
    this module import-light for the CLI's ``metrics`` command).
    """
    from repro.campaign.digest import CODE_VERSION

    by_key = {record["key"]: record for record in result.records}
    quarantined = {item["key"]: item for item in result.quarantined}
    trials: List[Dict[str, Any]] = []
    metric_snapshots: List[Dict[str, Any]] = []
    for task in spec.trial_tasks():  # task order => deterministic merge
        key = task["key"]
        record = by_key.get(key)
        if record is not None:
            payload = record.get("payload", {})
            trials.append(
                {
                    "seed": task["seed"],
                    "preset": task["preset"],
                    "status": "ok",
                    "elapsed": record.get("elapsed", 0.0),
                    "attempts": record.get("attempts", 1),
                }
            )
            metric_snapshots.append(payload.get("metrics") or {})
        elif key in quarantined:
            item = quarantined[key]
            trials.append(
                {
                    "seed": task["seed"],
                    "preset": task["preset"],
                    "status": item.get("status", "failed"),
                    "elapsed": 0.0,
                    "attempts": item.get("attempts", 0),
                }
            )
        else:
            trials.append(
                {
                    "seed": task["seed"],
                    "preset": task["preset"],
                    "status": "missing",
                    "elapsed": 0.0,
                    "attempts": 0,
                }
            )
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "campaign_id": spec.campaign_id(),
        "experiment_id": spec.experiment_id.upper(),
        "code_version": CODE_VERSION,
        "cancelled": cancelled,
        "generated_unix": time.time(),
        "spec": {
            "seeds": len(spec.seeds),
            "seed_range": [min(spec.seeds), max(spec.seeds)],
            "presets": list(spec.presets),
            "full": spec.full,
            "jobs": spec.jobs,
            "timeout": spec.timeout,
            "max_attempts": spec.max_attempts,
        },
        "totals": {
            "trials": result.total,
            "ran": result.ran,
            "cached": result.cached,
            "quarantined": len(result.quarantined),
            "cache_hit_ratio": result.cache_hit_ratio,
            "wall_seconds": wall_seconds,
        },
        "trials": trials,
        "metrics": merge_snapshots(metric_snapshots),
        "supervisor": supervisor_snapshot or {},
    }
    if store_health is not None:
        # Store health (record/shard counts, truncation, index counters).
        # Derived from record counts only — no byte sizes or wall clock —
        # so it stays identical between serial and --jobs N runs; still
        # outside the fingerprint view because cache state (hits, reads)
        # legitimately differs between a cold and a resumed run.
        manifest["store"] = store_health
    if planner is not None:
        # Adaptive-dispatch provenance (seeds saved, stopping round and
        # reason per preset, contested set, solver envelopes).  OUTSIDE
        # the fingerprint view: the fingerprint covers the *consumed*
        # trials and their results — which an adaptive and a fixed run
        # over the same consumed seed set agree on — while the planner
        # section explains why dispatch stopped where it did.
        manifest["planner"] = planner
    return manifest


def write_manifest(directory: str, manifest: Dict[str, Any]) -> str:
    """Write ``manifest.json`` into ``directory``; returns the path.

    Crash-atomic (tmp-file + fsync + rename + directory fsync): a
    campaign killed mid-write leaves either the previous manifest or the
    new one, never a torn JSON document, and a host crash cannot roll
    back the rename — the service's crash recovery reads manifests from
    resumed runs and must be able to trust them.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    atomic_write_json(path, manifest)
    return path


def manifest_fingerprint(manifest: Dict[str, Any]) -> str:
    """Canonical JSON of the manifest's deterministic sections.

    Two runs of the same campaign must produce identical fingerprints no
    matter which executor backend ran the trials, how many workers were
    used, or whether results came from the content-addressed store — so
    everything wall-clock-dependent (elapsed, attempts, supervisor
    metrics, ran/cached split, timestamps) is excluded, and everything
    result-bearing (merged metrics, per-trial status, survival matrix) is
    kept.  The service uses the fingerprint to prove a cache-served job
    equals the job that originally computed it; the backend-equivalence
    golden test byte-compares it across backends.
    """
    view: Dict[str, Any] = {
        "schema": manifest.get("schema"),
        "campaign_id": manifest.get("campaign_id"),
        "experiment_id": manifest.get("experiment_id"),
        "code_version": manifest.get("code_version"),
        "cancelled": bool(manifest.get("cancelled", False)),
        "trials": [
            {
                "seed": trial.get("seed"),
                "preset": trial.get("preset"),
                "status": trial.get("status"),
            }
            for trial in manifest.get("trials", [])
        ],
        "totals": {
            "trials": manifest.get("totals", {}).get("trials"),
            "quarantined": manifest.get("totals", {}).get("quarantined"),
        },
        "metrics": manifest.get("metrics", {}),
    }
    if "survival" in manifest:
        view["survival"] = manifest["survival"]
    return json.dumps(view, sort_keys=True, separators=(",", ":"))


def find_manifest(path: str) -> str:
    """Resolve a manifest path from a file, campaign dir, or cache root.

    Accepts the manifest file itself, the campaign directory containing
    it, or a cache root holding campaign directories — the most recently
    written manifest wins in the last case.
    """
    if os.path.isfile(path):
        return path
    direct = os.path.join(path, MANIFEST_NAME)
    if os.path.isfile(direct):
        return direct
    candidates = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            nested = os.path.join(path, name, MANIFEST_NAME)
            if os.path.isfile(nested):
                candidates.append(nested)
    if not candidates:
        raise ObservabilityError(
            f"no {MANIFEST_NAME} under {path!r} (run a campaign first)"
        )
    return max(candidates, key=os.path.getmtime)


def load_manifest(path: str) -> Dict[str, Any]:
    with open(find_manifest(path), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or "schema" not in manifest:
        raise ObservabilityError(f"{path!r} is not a campaign manifest")
    return manifest


# ---------------------------------------------------------------------------
# Rollup rendering (``python -m repro metrics``)
# ---------------------------------------------------------------------------

_BAR_WIDTH = 32


def _fmt_bound(index_key: str) -> str:
    bound = bucket_bound(int(index_key))
    return "inf" if bound is None else f"{bound:.3g}"


def render_histogram(name: str, histogram: Dict[str, Any]) -> List[str]:
    """ASCII rendering of one snapshot histogram."""
    count = histogram.get("count", 0)
    lines = [
        f"{name}: n={count} sum={histogram.get('sum', 0.0):.6g} "
        f"min={histogram.get('min')} max={histogram.get('max')}"
    ]
    buckets = histogram.get("buckets", {})
    if not buckets or not count:
        return lines
    top = max(buckets.values())
    for key in sorted(buckets, key=int):
        n = buckets[key]
        bar = "#" * max(1, round(n / top * _BAR_WIDTH))
        lines.append(f"  <= {_fmt_bound(key):>8}  {n:>8}  {bar}")
    return lines


def histogram_quantiles(
    histogram: Dict[str, Any], quantiles: Sequence[float] = (0.5, 0.9, 0.99)
) -> Dict[str, Optional[float]]:
    """Bucket-resolution quantile estimates for one snapshot histogram.

    The estimate for quantile ``q`` is the upper bound of the first bucket
    whose cumulative count reaches ``q * count`` (the overflow bucket
    reports the observed maximum).  Resolution is the shared log-bucket
    table — coarse but fully deterministic, so dashboards rendered from a
    serial and a ``--jobs N`` manifest agree byte for byte.
    """
    count = int(histogram.get("count") or 0)
    out: Dict[str, Optional[float]] = {}
    buckets = histogram.get("buckets", {})
    indices = sorted(buckets, key=int)
    for q in quantiles:
        label = f"p{q * 100:g}".replace(".", "_")
        if not count or not indices:
            out[label] = None
            continue
        rank = max(1, math.ceil(q * count))
        cumulative = 0
        value: Optional[float] = None
        for index_key in indices:
            cumulative += int(buckets[index_key])
            if cumulative >= rank:
                bound = bucket_bound(int(index_key))
                value = bound if bound is not None else histogram.get("max")
                break
        out[label] = value
    return out


def manifest_rollup(
    manifest: Dict[str, Any], top: Optional[int] = None
) -> Dict[str, Any]:
    """Machine-readable rollup of one manifest — the single aggregation
    path shared by ``repro metrics --format json`` and the dashboard.

    Every histogram gains ``mean``/``p50``/``p90``/``p99`` estimates.
    ``top`` keeps only the N largest counters (by value) and histograms
    (by count); gauges are never trimmed (there are few).  The result is
    JSON-safe and renders deterministically under ``sort_keys=True``.
    """
    metrics = manifest.get("metrics", {})
    counters = dict(metrics.get("counters", {}))
    histograms = {}
    for name, histogram in metrics.get("histograms", {}).items():
        entry = dict(histogram)
        count = int(histogram.get("count") or 0)
        entry["mean"] = (
            float(histogram.get("sum", 0.0)) / count if count else None
        )
        entry.update(histogram_quantiles(histogram))
        histograms[name] = entry
    if top is not None and top >= 0:
        keep = sorted(counters, key=lambda n: (-counters[n], n))[:top]
        counters = {name: counters[name] for name in keep}
        keep = sorted(
            histograms, key=lambda n: (-(histograms[n].get("count") or 0), n)
        )[:top]
        histograms = {name: histograms[name] for name in keep}
    rollup: Dict[str, Any] = {
        "schema": manifest.get("schema"),
        "campaign_id": manifest.get("campaign_id"),
        "experiment_id": manifest.get("experiment_id"),
        "code_version": manifest.get("code_version"),
        "cancelled": bool(manifest.get("cancelled", False)),
        "spec": manifest.get("spec", {}),
        "totals": manifest.get("totals", {}),
        "counters": counters,
        "gauges": dict(metrics.get("gauges", {})),
        "histograms": histograms,
        "trial_status": _status_counts(manifest),
    }
    for section in ("survival", "store", "planner"):
        if section in manifest:
            rollup[section] = manifest[section]
    return rollup


def _status_counts(manifest: Dict[str, Any]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for trial in manifest.get("trials", []):
        status = str(trial.get("status", "missing"))
        counts[status] = counts.get(status, 0) + 1
    return dict(sorted(counts.items()))


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Human rollup of one manifest (the ``repro metrics`` output)."""
    spec = manifest.get("spec", {})
    totals = manifest.get("totals", {})
    lines = [
        f"# campaign {manifest.get('experiment_id')} — "
        f"{manifest.get('campaign_id')}",
        f"code={manifest.get('code_version')} schema={manifest.get('schema')}",
        f"grid: {spec.get('seeds')} seeds x {len(spec.get('presets', []))} "
        f"preset(s), scale={'full' if spec.get('full') else 'fast'}, "
        f"jobs={spec.get('jobs')}",
        f"trials: {totals.get('trials')} total, {totals.get('ran')} ran, "
        f"{totals.get('cached')} cached, {totals.get('quarantined')} "
        f"quarantined, cache-hit {100.0 * totals.get('cache_hit_ratio', 0.0):.1f}%, "
        f"wall {totals.get('wall_seconds', 0.0):.2f}s",
        "",
    ]
    if manifest.get("cancelled"):
        lines.insert(-1, "!! CANCELLED — partial results only")
    planner = manifest.get("planner")
    if planner:
        lines.insert(
            -1,
            f"adaptive planner: {planner.get('consumed_trials')}/"
            f"{planner.get('budget_trials')} trials in "
            f"{planner.get('rounds')} round(s), "
            f"{planner.get('seeds_saved')} saved "
            f"(target width {planner.get('ci_width')} on "
            f"{planner.get('quantity')!r})",
        )
    failed = [t for t in manifest.get("trials", []) if t["status"] not in ("ok",)]
    if failed:
        lines.append("non-ok trials:")
        for trial in failed:
            lines.append(
                f"  - seed={trial['seed']} preset={trial['preset']} "
                f"status={trial['status']} attempts={trial['attempts']}"
            )
        lines.append("")
    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("merged counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name.ljust(width)}  {value}")
        lines.append("")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("merged gauges (max across trials):")
        width = max(len(name) for name in gauges)
        for name, gauge in gauges.items():
            lines.append(
                f"  {name.ljust(width)}  value={gauge['value']:.6g} "
                f"peak={gauge['peak']:.6g}"
            )
        lines.append("")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("merged histograms:")
        for name, histogram in histograms.items():
            lines.extend("  " + line for line in render_histogram(name, histogram))
        lines.append("")
    survival = manifest.get("survival")
    if survival:
        s_totals = survival.get("totals", {})
        lines.append(
            f"survival (plan {survival.get('plan')!r}, "
            f"horizon {survival.get('horizon')}s): "
            f"{s_totals.get('injected', 0)} injected, "
            f"{s_totals.get('detected', 0)} detected, "
            f"{s_totals.get('degraded', 0)} degraded, "
            f"{s_totals.get('missed', 0)} missed"
        )
        classes = survival.get("classes", {})
        if classes:
            width = max(len(name) for name in classes)
            for name in sorted(classes):
                row = classes[name]
                lines.append(
                    f"  {name.ljust(width)}  injected={row.get('injected', 0)} "
                    f"detected={row.get('detected', 0)} "
                    f"degraded={row.get('degraded', 0)} "
                    f"missed={row.get('missed', 0)}"
                )
        lines.append("")
    store = manifest.get("store")
    if store:
        index = store.get("index", {})
        lines.append(
            f"store health: {store.get('records', 0)} live records in "
            f"{len(store.get('shards', {}))} shard(s), "
            f"{store.get('quarantined', 0)} quarantined, "
            f"{store.get('truncated_records', 0)} truncated, "
            f"{store.get('pinned', 0)} pinned"
        )
        lines.append(
            f"  index: {index.get('record_reads', 0)} keyed reads, "
            f"{index.get('full_scans', 0)} full scan(s), "
            f"{index.get('tail_scans', 0)} tail scan(s), "
            f"{index.get('rebuilds', 0)} rebuild(s)"
            + (" [migrated pre-index store]" if index.get("lazy_reindexed") else "")
        )
        lines.append("")
    supervisor = manifest.get("supervisor", {})
    sup_hists = supervisor.get("histograms", {})
    if sup_hists:
        lines.append("supervisor (wall-clock, not reproducible):")
        for name, histogram in sup_hists.items():
            lines.extend("  " + line for line in render_histogram(name, histogram))
    return "\n".join(lines).rstrip() + "\n"
