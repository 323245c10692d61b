"""Perf-smoke microbenchmarks (``python -m pytest benchmarks/perf``).

These are the CI-facing wrappers around :mod:`repro.bench`.  Nothing here
times anything — the only failures are **deterministic** regressions: a
different ``(time, seq)`` firing sequence, a diverged fused-scan timeline,
a changed experiment table, or the scan-coalescing machinery silently
turning itself off.

The full gate (``python -m repro bench --check
benchmarks/perf/expected_determinism.json``) runs the same checks at
production event counts; these wrappers use smaller workloads where the
pinned value allows it, so the smoke job stays under a minute.
"""

import hashlib
import json
import os

from repro.bench import bench_scan_coalescing, engine_equivalence

_EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_determinism.json")


def _load_expected():
    with open(_EXPECTED, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_engine_fires_identical_time_seq_sequence():
    result = engine_equivalence(n_events=8_000)
    assert result["optimized_checksum"] == result["reference_checksum"]


def test_engine_checksum_matches_pinned_value():
    # The pinned checksum is computed at the full bench's n_events; this
    # wrapper re-runs at that size because the checksum covers every firing.
    result = engine_equivalence()
    assert result["optimized_checksum"] == _load_expected()["engine_sequence_checksum"]


def test_fused_scan_timeline_matches_per_chunk():
    result = bench_scan_coalescing(passes=1)
    expected = _load_expected()
    assert result["timeline_identical"], "fused scan diverged from per-chunk"
    assert result["events_fired"] == result["events_fired_chunked"]
    assert result["rounds"] // result["passes"] == expected["scan_rounds_per_pass"]
    # The whole point of coalescing: far fewer heap entries for the same
    # logical timeline.  A 2x guard catches the optimization silently
    # disabling itself without being sensitive to exact event counts.
    assert result["events_scheduled"] * 2 < result["events_scheduled_chunked"]


def test_experiment_tables_match_pinned_hashes():
    from repro.experiments.report import run_experiment

    expected = _load_expected()
    for experiment_id, key in (("E1", "e1_table_sha256"), ("E9", "e9_table_sha256")):
        result = run_experiment(experiment_id, seed=2019)
        sha = hashlib.sha256(result.rendered.encode()).hexdigest()
        assert sha == expected[key], f"{experiment_id} table changed: {sha}"
