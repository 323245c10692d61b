"""Campaign dashboard: deterministic ``dashboard.json`` + static HTML.

``python -m repro dash <campaign-dir>`` renders what the obs subsystem
already emits — the survival matrix, per-core Gantt lanes from a Perfetto
span export, latency histograms with p50/p90/p99, and store health — as a
zero-dependency static HTML page (inline JS/SVG, no network fetches).

All chart data is first materialized as :func:`build_dashboard_data` —
sorted keys, derived only from the manifest + store (+ an optional trace
file) — so a serial and a ``--jobs N`` run of the same campaign produce
byte-identical ``dashboard.json``, and the HTML is just a template around
it.  ``--follow`` tails a running campaign by re-reading the manifest and
shards incrementally (:func:`follow_campaign`).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "DASHBOARD_SCHEMA": "repro.obs.dashboard.data",
    "build_dashboard_data": "repro.obs.dashboard.data",
    "dashboard_json": "repro.obs.dashboard.data",
    "lanes_from_trace": "repro.obs.dashboard.data",
    "follow_campaign": "repro.obs.dashboard.follow",
    "load_manifest_safe": "repro.obs.dashboard.follow",
    "store_progress": "repro.obs.dashboard.follow",
    "render_dashboard_html": "repro.obs.dashboard.html",
})

__all__ = [
    "DASHBOARD_SCHEMA",
    "build_dashboard_data",
    "dashboard_json",
    "follow_campaign",
    "lanes_from_trace",
    "load_manifest_safe",
    "render_dashboard_html",
    "store_progress",
]
