"""Telemetry subsystem: metrics registry, trace export, run manifests.

Three pillars (docs/observability.md has the operator's view):

* :mod:`repro.obs.metrics` — counters, gauges, fixed-log-bucket
  histograms and timers with deterministic snapshot/merge, emitted by the
  simulator loop, the world-switch path, introspection rounds, the attack
  state machines, and the campaign supervisor;
* :mod:`repro.obs.trace_export` — :class:`~repro.sim.tracing.TraceRecorder`
  records streamed to JSONL and rendered as Chrome/Perfetto
  ``trace_event`` JSON (``python -m repro trace ...``);
* :mod:`repro.obs.manifest` — per-campaign ``manifest.json`` evidence
  files and their rollup (``python -m repro metrics ...``).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "MetricsRegistry": "repro.obs.metrics",
    "active_registry": "repro.obs.metrics",
    "merge_snapshots": "repro.obs.metrics",
    "use_registry": "repro.obs.metrics",
    "JsonlTraceWriter": "repro.obs.trace_export",
    "PerfettoExporter": "repro.obs.trace_export",
    "perfetto_trace": "repro.obs.trace_export",
    "validate_trace_event_json": "repro.obs.trace_export",
    "write_jsonl": "repro.obs.trace_export",
    "write_perfetto": "repro.obs.trace_export",
    "build_manifest": "repro.obs.manifest",
    "load_manifest": "repro.obs.manifest",
    "render_manifest": "repro.obs.manifest",
    "write_manifest": "repro.obs.manifest",
})

__all__ = [
    "MetricsRegistry",
    "active_registry",
    "merge_snapshots",
    "use_registry",
    "JsonlTraceWriter",
    "PerfettoExporter",
    "perfetto_trace",
    "validate_trace_event_json",
    "write_jsonl",
    "write_perfetto",
    "build_manifest",
    "load_manifest",
    "render_manifest",
    "write_manifest",
]
