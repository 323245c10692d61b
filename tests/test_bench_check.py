"""Failure paths of ``repro bench --check`` (the determinism gate).

The gate compares a run's determinism block against a pinned baseline
file.  These tests fabricate results and baselines to pin every way the
comparison can fail: value drift, a baseline key the run no longer
produces, a stale ``bench_version`` baseline, and the engine or scan
equivalence flags turning false.  The happy path and the repo's own
pinned file are covered too, and so is the ``repro bench --check`` CLI
path on both sides of the gate.
"""

import json
import os

import pytest

import repro.bench
from repro.bench import BENCH_VERSION, check_determinism
from repro.cli import main

REPO_PINNED = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "perf", "expected_determinism.json",
)


def fake_results(determinism=None):
    block = {
        "engine_sequences_match": True,
        "engine_sequence_checksum": "abc123",
        "scan_rounds_per_pass": 19,
        "scan_events_fired": 6082,
        "scan_events_fired_chunked": 6082,
        "scan_timeline_identical": True,
        "scan_timeline_signature": "def456",
        "e1_table_sha256": "e1hash",
        "e9_table_sha256": "e9hash",
    }
    block.update(determinism or {})
    return {"bench_version": BENCH_VERSION, "determinism": block}


def write_baseline(tmp_path, payload):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def matching_baseline():
    return {
        "bench_version": BENCH_VERSION,
        "engine_sequence_checksum": "abc123",
        "scan_rounds_per_pass": 19,
        "e1_table_sha256": "e1hash",
    }


def test_happy_path_reports_no_problems(tmp_path):
    path = write_baseline(tmp_path, matching_baseline())
    assert check_determinism(fake_results(), path) == []


def test_checksum_mismatch_is_reported(tmp_path):
    baseline = matching_baseline()
    baseline["engine_sequence_checksum"] = "different"
    path = write_baseline(tmp_path, baseline)
    problems = check_determinism(fake_results(), path)
    assert len(problems) == 1
    assert "engine_sequence_checksum" in problems[0]
    assert "different" in problems[0] and "abc123" in problems[0]


def test_missing_baseline_key_is_reported(tmp_path):
    """A key pinned in the baseline that the run no longer produces must
    fail loudly (got None), not silently pass."""
    baseline = matching_baseline()
    baseline["some_retired_invariant"] = 42
    path = write_baseline(tmp_path, baseline)
    problems = check_determinism(fake_results(), path)
    assert len(problems) == 1
    assert "some_retired_invariant" in problems[0] and "None" in problems[0]


def test_stale_bench_version_is_reported(tmp_path):
    baseline = matching_baseline()
    baseline["bench_version"] = BENCH_VERSION - 3
    path = write_baseline(tmp_path, baseline)
    problems = check_determinism(fake_results(), path)
    assert len(problems) == 1
    assert "stale bench_version" in problems[0]
    assert str(BENCH_VERSION - 3) in problems[0] and str(BENCH_VERSION) in problems[0]


def test_stale_version_and_drift_both_reported(tmp_path):
    baseline = matching_baseline()
    baseline["bench_version"] = 1
    baseline["e1_table_sha256"] = "old"
    path = write_baseline(tmp_path, baseline)
    problems = check_determinism(fake_results(), path)
    assert len(problems) == 2
    assert any("stale bench_version" in p for p in problems)
    assert any("e1_table_sha256" in p for p in problems)


def test_baseline_without_version_skips_staleness(tmp_path):
    """Pre-v7 baselines carry no version key; they still key-compare."""
    baseline = matching_baseline()
    del baseline["bench_version"]
    path = write_baseline(tmp_path, baseline)
    assert check_determinism(fake_results(), path) == []


def test_engine_divergence_fails_even_without_pinned_key(tmp_path):
    path = write_baseline(tmp_path, {"bench_version": BENCH_VERSION})
    results = fake_results(determinism={"engine_sequences_match": False})
    problems = check_determinism(results, path)
    assert any("different (time, seq) sequence" in p for p in problems)


def test_scan_timeline_divergence_fails(tmp_path):
    path = write_baseline(tmp_path, {"bench_version": BENCH_VERSION})
    results = fake_results(determinism={"scan_timeline_identical": False})
    problems = check_determinism(results, path)
    assert any("fused scan timeline" in p for p in problems)


def test_repo_pinned_baseline_carries_current_version():
    with open(REPO_PINNED, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert pinned["bench_version"] == BENCH_VERSION, (
        "benchmarks/perf/expected_determinism.json must be regenerated for "
        f"bench_version {BENCH_VERSION}"
    )


def all_keys(value):
    if isinstance(value, dict):
        for key, child in value.items():
            yield key
            yield from all_keys(child)


def test_cli_check_passes_against_repo_pinned_file(capsys):
    assert main(["bench", "--check", REPO_PINNED]) == 0
    captured = capsys.readouterr()
    results = json.loads(captured.out)
    assert results["bench_version"] == BENCH_VERSION
    assert results["determinism"]["engine_sequences_match"] is True
    wall_keys = {"wall_seconds", "speedup", "event_engine", "schedule_batch"}
    assert not wall_keys & set(all_keys(results))
    assert "determinism block matches" in captured.err


def test_cli_check_fails_and_names_the_drifted_key(tmp_path, capsys, monkeypatch):
    with open(REPO_PINNED, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    block = {key: value for key, value in pinned.items() if key != "bench_version"}
    monkeypatch.setattr(
        repro.bench, "run_bench",
        lambda progress=None: {"bench_version": BENCH_VERSION, "determinism": block},
    )
    drifted = dict(pinned, scan_rounds_per_pass=pinned["scan_rounds_per_pass"] + 1)
    assert main(["bench", "--check", write_baseline(tmp_path, drifted)]) == 1
    err = capsys.readouterr().err
    assert "deterministic regression detected" in err
    assert "scan_rounds_per_pass" in err
