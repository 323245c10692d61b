"""Statistics, table rendering, and order-statistics helpers."""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "expected_max_quantile": "repro.analysis.orderstats",
    "sample_max_of_n": "repro.analysis.orderstats",
    "sample_maxima": "repro.analysis.orderstats",
    "BoxplotStats": "repro.analysis.stats",
    "Summary": "repro.analysis.stats",
    "boxplot_stats": "repro.analysis.stats",
    "geometric_mean": "repro.analysis.stats",
    "percentile": "repro.analysis.stats",
    "ratios_within": "repro.analysis.stats",
    "relative_error": "repro.analysis.stats",
    "pct": "repro.analysis.tables",
    "render_comparison": "repro.analysis.tables",
    "render_table": "repro.analysis.tables",
    "sci": "repro.analysis.tables",
    "TimelineEvent": "repro.analysis.timeline",
    "build_timeline": "repro.analysis.timeline",
    "render_timeline": "repro.analysis.timeline",
    "round_timeline": "repro.analysis.timeline",
})

__all__ = [
    "BoxplotStats",
    "Summary",
    "TimelineEvent",
    "boxplot_stats",
    "build_timeline",
    "expected_max_quantile",
    "geometric_mean",
    "pct",
    "percentile",
    "ratios_within",
    "relative_error",
    "render_comparison",
    "render_table",
    "render_timeline",
    "round_timeline",
    "sample_max_of_n",
    "sample_maxima",
    "sci",
]
