"""Smoke tests of ``benchmarks/planner_bench.py`` (fixed vs adaptive campaign).

The script is not a package module, so it is loaded from its path.  E7 is
the cheap experiment with a numeric comparison quantity (its Monte-Carlo
escape rate); a generous CI target lets the adaptive run stop after its
first round.
"""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "planner_bench.py",
)


@pytest.fixture(scope="module")
def planner_bench():
    spec = importlib.util.spec_from_file_location("planner_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adaptive_run_stops_short_of_the_fixed_budget(planner_bench):
    out = planner_bench.bench_planner(
        6, 1.0, experiment_id="E7", min_seeds=2, round_size=2
    )
    assert out["experiment_id"] == "E7"
    assert out["quantity"] == "MC escape rate"
    assert out["fixed"]["seeds"] == 6
    assert out["adaptive"]["seeds_used"] == 2
    assert out["seeds_saved"] == 4
    assert out["seed_reduction"] == 3.0
    assert out["both_within_target"] is True


def test_main_passes_seeds_and_width_and_prints_json(planner_bench, monkeypatch, capsys):
    calls = []

    def fake(seeds_count, ci_width):
        calls.append((seeds_count, ci_width))
        return {"seed_reduction": 2.0}

    monkeypatch.setattr(planner_bench, "bench_planner", fake)
    assert planner_bench.main(["--seeds", "12", "--ci-width", "0.5"]) == 0
    assert calls == [(12, 0.5)]
    assert json.loads(capsys.readouterr().out) == {"seed_reduction": 2.0}
