"""Tests of the end-to-end benchmark harness: ``python -m pytest benchmarks/e2e``.

They stay outside tier-1's ``testpaths``: the traced-workload tests run
real trials, campaigns and a service (about a minute in all).
"""

from __future__ import annotations

import json
import sys

import pytest

import compare
import harness
from tracer import SELF, Tracer

sys.path.insert(0, str(harness.ROOT / "src"))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Tracing arithmetic
# ----------------------------------------------------------------------


def test_self_time_subtracts_nested_spans_and_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer._timed(lambda: clock.advance(2.0), "rng", "sample")

    def middle() -> None:
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)

    hot_middle = tracer._timed(middle, "sched", "wake")
    with tracer.span("unit", "trial", unit=True) as unit:
        clock.advance(0.25)
        with tracer.span("build", "build_stack") as build:
            clock.advance(3.0)
            leaf()
        hot_middle()

    assert unit[SELF] == pytest.approx(0.25)
    assert build[SELF] == pytest.approx(3.0)
    table = tracer.layer_table([unit])
    assert table["build"]["build_stack"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0, "bytes": 0}
    assert table["rng"]["sample"]["calls"] == 2
    assert table["rng"]["sample"]["self_s"] == pytest.approx(4.0)
    assert table["sched"]["wake"]["total_s"] == pytest.approx(3.5)
    assert table["sched"]["wake"]["self_s"] == pytest.approx(1.5)
    assert tracer.unattributed_share([unit]) == pytest.approx(0.25 / 8.75)


def test_spans_on_other_threads_join_the_open_unit():
    import threading

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("unit", "job", unit=True) as unit:
        clock.advance(1.0)

        def serve() -> None:
            with tracer.span("http", "request"):
                clock.advance(2.0)

        thread = threading.Thread(target=serve)
        thread.start()
        thread.join(timeout=10)
        clock.advance(1.0)
    assert not thread.is_alive()
    request = next(s for s in tracer.spans() if s[1] == "request")
    assert request[5] == unit[0] and request[6] == unit[0]  # parent, trace
    assert tracer.unattributed_share([unit]) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        harness.tail_percentile([float(i) for i in range(99)], 90)
    assert harness.tail_percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)
    extra = {}
    harness.add_tail(extra, "job_s.cold.p80", [1.0] * 49, 80)
    assert extra == {}


# ----------------------------------------------------------------------
# Output gate
# ----------------------------------------------------------------------


def _phase(tables, output="abc", pinned_ops=1):
    return harness.Phase(tables=tables, output_sha256=output, pinned_ops=pinned_ops)


def test_gate_accepts_pinned_digests_and_rejects_tampered_ones(tmp_path):
    workload = harness.WORKLOADS["e1_trial"]
    good = harness.golden_table_sha256("E1")
    phases = [_phase([[2019, good]])]
    assert harness.gate(workload, 7, phases, {}) == []

    tampered = tmp_path / "expected_determinism.json"
    tampered.write_text(json.dumps({"e1_table_sha256": "0" * 64}))
    problems = harness.gate(workload, 7, phases, {}, expected_path=tampered)
    assert len(problems) == 1 and "table sha256" in problems[0]

    pinned = {"e1_trial": {"ops": 1, "output_sha256": "f" * 64}}
    problems = harness.gate(workload, harness.DEFAULT_SEED, phases, pinned)
    assert len(problems) == 1 and "pinned" in problems[0]
    assert harness.gate(workload, 7, phases, pinned) == []  # pins apply at the default seed

    traced = [phases[0], _phase([[2019, good]], output="abd")]
    problems = harness.gate(workload, 7, traced, {})
    assert len(problems) == 1 and "traced" in problems[0]


def test_gate_checks_a_table_from_the_store_against_a_direct_run():
    # service and campaign tables come from fork workers and the store;
    # away from seed 2019 the first one is re-run directly
    workload = harness.WORKLOADS["service_mix"]
    assert not workload.direct_tables
    good = [_phase([[7, harness.table_sha256("E1", 7)], [8, "1" * 64]])]
    assert harness.gate(workload, 7, good, {}) == []
    tampered = [_phase([[7, "0" * 64], [8, "1" * 64]])]
    problems = harness.gate(workload, 7, tampered, {})
    assert len(problems) == 1 and "direct run" in problems[0]
    assert harness.gate(workload, 7, [_phase([])], {}) == ["no trial table was measured"]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_verdict_unchanged_regressed_improved():
    same = compare.verdict(PARENT, [v * 1.01 for v in PARENT], "lower", 0.1)
    assert same["verdict"] == "unchanged"
    slower = compare.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1)
    assert slower["verdict"] == "regressed"
    faster = compare.verdict(PARENT, [v * 0.8 for v in PARENT], "lower", 0.1)
    assert faster["verdict"] == "improved" and faster["wins"] == 10
    higher_is_better = compare.verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1)
    assert higher_is_better["verdict"] == "regressed"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy_parent = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    noisy_change = [v * 1.12 for v in reversed(noisy_parent)]
    row = compare.verdict(noisy_parent, noisy_change, "lower", 0.1)
    assert row["spread"] > 0.1 and row["verdict"] == "unresolved"


def test_improvement_needs_ten_pairs():
    row = compare.verdict(PARENT[:5], [v * 0.8 for v in PARENT[:5]], "lower", 0.1)
    assert row["verdict"] == "unchanged"


def _write_run(tmp_path, name, metrics):
    path = tmp_path / name
    path.write_text(json.dumps({"workload": "e9_trial", "metrics": metrics}))
    return str(path)


def test_fail_ratio_flags_any_increase(tmp_path):
    parents = [_write_run(tmp_path, f"p{i}.json", {"fail_ratio": 0.0, "trial_s.p50": 2.0})
               for i in range(3)]
    changes = [_write_run(tmp_path, f"c{i}.json", {"fail_ratio": 0.25 if i == 0 else 0.0,
                                                   "trial_s.p50": 2.0})
               for i in range(3)]
    rows = {r["metric"]: r for r in compare.compare(parents, changes)}
    assert rows["fail_ratio"]["verdict"] == "regressed"
    assert rows["trial_s.p50"]["verdict"] == "unchanged"


def test_gated_metrics_are_judged_at_the_claim_bound(tmp_path):
    gate_bound = next(m["bound"] for m in harness.spec()["end_to_end"] if m["name"] == "trial_s.p25")
    assert gate_bound > compare.CLAIM_BOUND
    parents = [_write_run(tmp_path, f"p{i}.json", {"trial_s.p25": v}) for i, v in enumerate(PARENT)]
    changes = [_write_run(tmp_path, f"c{i}.json", {"trial_s.p25": v * 1.15})
               for i, v in enumerate(PARENT)]
    (row,) = compare.compare(parents, changes)
    assert row["bound"] == compare.CLAIM_BOUND and row["verdict"] == "regressed"


# ----------------------------------------------------------------------
# The wrappers on real code
# ----------------------------------------------------------------------


def test_pinned_tables_hold_with_every_wrapper_installed():
    tracer = Tracer().install()
    try:
        e1 = harness.table_sha256("E1", harness.DEFAULT_SEED)
        e9 = harness.table_sha256("E9", harness.DEFAULT_SEED)
    finally:
        tracer.uninstall()
    assert e1 == harness.golden_table_sha256("E1")
    assert e9 == harness.golden_table_sha256("E9")
    calls = {layer for (_sid, layer, _name) in tracer.aggregates()}
    assert {"sim", "rng", "hash", "sched", "prober"} <= calls


def _small(workload: harness.Workload, min_ops: int) -> harness.Workload:
    workload.min_ops = min_ops
    return workload


@pytest.fixture(scope="module")
def traced_runs():
    """One traced run of every workload, at the smallest sizes."""
    workloads = [
        _small(harness.E1Trial(), 2),
        _small(harness.E9Trial(), 1),
        harness.CampaignE9(),  # one second: a 2-seed cold pass
        _small(harness.ServiceMix(), 2),
    ]
    return {w.name: harness.run_workload(w, harness.DEFAULT_SEED, 1.0, trace=True) for w in workloads}


def test_traced_runs_pass_the_gate_and_report_every_layer_metric(traced_runs):
    names = [m["name"] for m in harness.spec()["per_layer"]]
    for name, record in traced_runs.items():
        assert record["correct"], (name, record["problems"])
        assert sorted(record["per_layer"]) == sorted(names)
        assert record["per_layer"]["trace.overhead"] > 0


def test_hash_calls_count_hasher_updates_only(traced_runs):
    record = traced_runs["e1_trial"]
    updates = record["layers"]["hash"]["update"]["calls"]
    trials = len(record["op_walls"][1])
    assert record["per_layer"]["hash.calls"] * trials == pytest.approx(updates)


def test_each_wrapper_fires_on_the_workload_it_is_mapped_to(traced_runs):
    for layer, workloads in harness.spec()["wrappers"].items():
        for workload in workloads:
            rows = traced_runs[workload]["layers"].get(layer, {})
            assert sum(row["calls"] for row in rows.values()) > 0, (layer, workload)
