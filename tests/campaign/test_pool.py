"""Worker-pool robustness through the task supervisor: timeout, crash
isolation, retry, inline mode and respawn backoff.

Every test drives :func:`~repro.service.executors.execute_tasks` over the
executor ``make_executor("auto", jobs=...)`` picks — the fork pool, or
inline when ``jobs == 0`` — the same path campaigns and the report use.
"""

import pytest

from repro.errors import CampaignError
from repro.obs.metrics import MetricsRegistry
from repro.service import executors
from repro.service.executors import (
    TrialOutcome,
    _respawn_backoff,
    execute_tasks,
    make_executor,
    resolve_function,
)

HELPERS = "tests.campaign.pool_helpers"


def run(tasks, fn, jobs=1, timeout=None, metrics=None, **kwargs):
    """Run ``tasks`` to completion; returns ``key -> TrialOutcome``."""
    outcomes, cancelled = execute_tasks(
        tasks,
        f"{HELPERS}:{fn}",
        make_executor("auto", jobs=jobs, timeout=timeout, metrics=metrics),
        **kwargs,
    )
    assert not cancelled
    return outcomes


@pytest.fixture
def short_backoff(monkeypatch):
    """Shrink the respawn cooldown so crash tests stay fast."""
    monkeypatch.setattr(executors, "DEFAULT_RESPAWN_BACKOFF_BASE", 0.05)
    monkeypatch.setattr(executors, "DEFAULT_RESPAWN_BACKOFF_CAP", 0.2)


def test_resolve_function_roundtrip():
    fn = resolve_function(f"{HELPERS}:double_seed")
    assert fn({"key": "k", "seed": 21}) == {"value": 42}


def test_resolve_function_bad_paths():
    with pytest.raises(CampaignError):
        resolve_function("no-colon")
    with pytest.raises(CampaignError):
        resolve_function(f"{HELPERS}:missing_fn")


def test_empty_task_list():
    assert run([], "double_seed", jobs=2) == {}


def test_duplicate_keys_rejected():
    with pytest.raises(CampaignError):
        run([{"key": "a"}, {"key": "a"}], "double_seed")


def test_parallel_success():
    tasks = [{"key": f"k{i}", "seed": i} for i in range(6)]
    outcomes = run(tasks, "double_seed", jobs=3, timeout=30)
    assert all(outcomes[f"k{i}"].ok for i in range(6))
    assert all(outcomes[f"k{i}"].payload == {"value": i * 2} for i in range(6))
    assert all(outcomes[f"k{i}"].attempts == 1 for i in range(6))


def test_timeout_retries_then_quarantines_without_aborting():
    """A hung worker is killed; the trial retried once, then reported."""
    tasks = [
        {"key": "hung", "seed": 0, "hang": True},
        {"key": "fine1", "seed": 1},
        {"key": "fine2", "seed": 2},
    ]
    outcomes = run(tasks, "hang_on_flag", jobs=2, timeout=0.6)
    hung = outcomes["hung"]
    assert hung.status == "timeout"
    assert hung.attempts == 2  # first run + one retry
    assert hung.failures == ["timeout"]
    assert outcomes["fine1"].ok and outcomes["fine2"].ok


def test_worker_crash_is_isolated():
    tasks = [
        {"key": "boom", "seed": 0, "crash": True},
        {"key": "fine", "seed": 1},
    ]
    outcomes = run(tasks, "exit_on_flag", jobs=2, timeout=30)
    assert outcomes["boom"].status == "crashed"
    assert "exitcode" in outcomes["boom"].error
    assert outcomes["fine"].ok


def test_transient_failure_recovers_on_retry(tmp_path):
    marker = str(tmp_path / "marker")
    outcomes = run([{"key": "flaky", "marker": marker}], "fail_once", timeout=30)
    assert outcomes["flaky"].ok
    assert outcomes["flaky"].attempts == 2
    assert outcomes["flaky"].failures == ["error"]


def test_exceptions_carry_tracebacks():
    outcomes = run([{"key": "bad"}], "always_raise", timeout=30)
    assert outcomes["bad"].status == "error"
    assert "ValueError" in outcomes["bad"].error


def test_on_final_and_on_retry_callbacks(tmp_path):
    finals, retries = [], []
    marker = str(tmp_path / "m")
    run(
        [{"key": "flaky", "marker": marker}],
        "fail_once",
        timeout=30,
        on_final=lambda task, outcome: finals.append((task["key"], outcome.status)),
        on_retry=lambda task, kind: retries.append((task["key"], kind)),
    )
    assert finals == [("flaky", "ok")]
    assert retries == [("flaky", "error")]


def test_inline_mode_matches_pool_payloads():
    tasks = [{"key": f"k{i}", "seed": i} for i in range(4)]
    inline = run(tasks, "double_seed", jobs=0)
    pooled = run(tasks, "double_seed", jobs=2, timeout=30)
    assert {k: v.payload for k, v in inline.items()} == {
        k: v.payload for k, v in pooled.items()
    }


def test_inline_mode_retries_and_reports(tmp_path):
    marker = str(tmp_path / "m")
    outcomes = run([{"key": "f", "marker": marker}], "fail_once", jobs=0)
    assert outcomes["f"].ok and outcomes["f"].attempts == 2

    outcomes = run([{"key": "b"}], "always_raise", jobs=0)
    assert outcomes["b"].status == "error" and outcomes["b"].attempts == 2


def test_invalid_arguments():
    for backend in ("auto", "inline", "thread", "fork"):
        with pytest.raises(CampaignError, match="jobs must be >= 0"):
            make_executor(backend, jobs=-1)
    with pytest.raises(CampaignError):
        run([{"key": "a"}], "double_seed", max_attempts=0)


def test_outcome_ok_property():
    assert TrialOutcome(key="k", status="ok").ok
    assert not TrialOutcome(key="k", status="timeout").ok


# ---------------------------------------------------------------------------
# Respawn backoff
# ---------------------------------------------------------------------------

def test_respawn_backoff_is_deterministic_and_capped():
    a = _respawn_backoff("key1", 1, base=0.25, cap=10.0)
    b = _respawn_backoff("key1", 1, base=0.25, cap=10.0)
    assert a == b  # jitter is derived, not drawn
    assert _respawn_backoff("key2", 1, base=0.25, cap=10.0) != a
    # Exponential growth until the cap.
    delays = [
        _respawn_backoff("key1", n, base=0.25, cap=10.0) for n in range(1, 12)
    ]
    assert delays[0] >= 0.25
    assert all(d <= 10.0 for d in delays)
    assert delays[-1] == 10.0  # saturated
    raw = [min(10.0, 0.25 * 2 ** (n - 1)) for n in range(1, 12)]
    for delay, base_delay in zip(delays, raw):
        assert base_delay <= delay <= min(10.0, base_delay * 1.25)


def test_crashes_apply_backoff_counters(short_backoff):
    metrics = MetricsRegistry()
    tasks = [
        {"key": "boom", "seed": 0, "crash": True},
        {"key": "fine", "seed": 1},
    ]
    outcomes = run(tasks, "exit_on_flag", jobs=2, timeout=30, metrics=metrics)
    assert outcomes["boom"].status == "crashed"
    assert outcomes["fine"].ok
    snapshot = metrics.snapshot()
    # One backoff per kill: first attempt + one retry.
    assert snapshot["counters"]["campaign.respawn_backoffs"] == 2
    assert snapshot["counters"]["campaign.worker_respawns"] == 2
    hist = snapshot["histograms"]["campaign.respawn_backoff_seconds"]
    assert hist["count"] == 2
    assert hist["max"] <= 0.2


def test_cooling_slot_does_not_wedge_the_run(short_backoff):
    """With one worker and a crash, the cooldown delays but never blocks."""
    tasks = [
        {"key": "boom", "seed": 0, "crash": True},
        {"key": "fine", "seed": 1},
    ]
    outcomes = run(tasks, "exit_on_flag", jobs=1, timeout=30)
    assert outcomes["boom"].status == "crashed"
    assert outcomes["fine"].ok
