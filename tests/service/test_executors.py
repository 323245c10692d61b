"""Executor backends + the backend-agnostic supervision loop."""

import threading

import pytest

from repro.errors import CampaignError, ServiceError
from repro.service.executors import (
    ExecMessage,
    ForkExecutor,
    InlineExecutor,
    execute_tasks,
    make_executor,
)
from repro.service.jobs import Execution
from repro.service.queue import FileQueueExecutor

HELPERS = "tests.campaign.pool_helpers"


def tasks_for(seeds, **extra):
    return [{"key": f"t{seed}", "seed": seed, **extra} for seed in seeds]


@pytest.fixture(params=["inline", "fork"])
def executor(request):
    if request.param == "inline":
        return InlineExecutor()
    return ForkExecutor(jobs=2, timeout=10.0)


class TestBackends:
    def test_success_all_backends(self, executor):
        outcomes, cancelled = execute_tasks(
            tasks_for([1, 2, 3]), f"{HELPERS}:double_seed", executor
        )
        assert not cancelled
        assert {k: o.payload["value"] for k, o in outcomes.items()} == {
            "t1": 2, "t2": 4, "t3": 6,
        }
        assert all(o.ok and o.attempts == 1 for o in outcomes.values())

    def test_error_exhausts_attempts_all_backends(self, executor):
        outcomes, cancelled = execute_tasks(
            tasks_for([1]), f"{HELPERS}:always_raise", executor, max_attempts=2
        )
        assert not cancelled
        outcome = outcomes["t1"]
        assert not outcome.ok and outcome.status == "error"
        assert outcome.attempts == 2
        assert "is broken" in outcome.error

    def test_retry_recovers_all_backends(self, executor, tmp_path):
        marker = str(tmp_path / "marker")
        retried = []
        outcomes, _ = execute_tasks(
            [{"key": "t1", "seed": 1, "marker": marker}],
            f"{HELPERS}:fail_once",
            executor,
            max_attempts=2,
            on_retry=lambda task, kind: retried.append((task["key"], kind)),
        )
        assert outcomes["t1"].ok
        assert outcomes["t1"].payload == {"value": "recovered"}
        assert retried == [("t1", "error")]


class TestTrialExceptions:
    """What a trial's exception becomes, backend by backend.

    A worker process only runs trials, so every exception there is the
    trial's ``error``; inline, ``KeyboardInterrupt`` cancels the run and
    ``SystemExit`` leaves it.
    """

    @pytest.fixture(params=["inline", "fork", "queue"])
    def backend(self, request, tmp_path, queue_worker):
        if request.param == "inline":
            return InlineExecutor()
        if request.param == "fork":
            return ForkExecutor(jobs=1, timeout=30.0)
        queue_dir = str(tmp_path / "q")
        queue_worker(queue_dir)
        return FileQueueExecutor(queue_dir)

    @pytest.mark.parametrize(
        "exception", ["Exception", "KeyboardInterrupt", "SystemExit"]
    )
    def test_trial_exception_outcome(self, backend, exception):
        tasks = tasks_for([1], raise_exception=exception)

        def run():
            return execute_tasks(
                tasks, f"{HELPERS}:raise_named", backend, max_attempts=1
            )

        if backend.name == "inline" and exception == "SystemExit":
            with pytest.raises(SystemExit):
                run()
            return
        outcomes, cancelled = run()
        if backend.name == "inline" and exception == "KeyboardInterrupt":
            assert cancelled and outcomes == {}
            return
        assert not cancelled
        assert outcomes["t1"].status == "error"
        assert exception in outcomes["t1"].error


class TestForkSpecifics:
    def test_timeout_kills_worker(self):
        executor = ForkExecutor(jobs=1, timeout=0.5)
        outcomes, _ = execute_tasks(
            tasks_for([1], hang=True), f"{HELPERS}:hang_on_flag", executor,
            max_attempts=1,
        )
        assert outcomes["t1"].status == "timeout"

    def test_crash_detected(self):
        executor = ForkExecutor(jobs=1, timeout=30.0)
        outcomes, _ = execute_tasks(
            tasks_for([1], crash=True), f"{HELPERS}:exit_on_flag", executor,
            max_attempts=1,
        )
        assert outcomes["t1"].status == "crashed"
        assert "exitcode" in outcomes["t1"].error


class TestSupervisionLoop:
    def test_rejects_duplicate_keys(self):
        with pytest.raises(CampaignError, match="duplicate task keys"):
            execute_tasks(
                [{"key": "x", "seed": 1}, {"key": "x", "seed": 2}],
                f"{HELPERS}:double_seed", InlineExecutor(),
            )

    def test_rejects_zero_attempts(self):
        with pytest.raises(CampaignError, match="max_attempts"):
            execute_tasks(
                tasks_for([1]), f"{HELPERS}:double_seed", InlineExecutor(),
                max_attempts=0,
            )

    def test_empty_task_list(self):
        outcomes, cancelled = execute_tasks(
            [], f"{HELPERS}:double_seed", InlineExecutor()
        )
        assert outcomes == {} and not cancelled

    def test_keyboard_interrupt_cancels(self):
        finalized = []
        outcomes, cancelled = execute_tasks(
            tasks_for([1, 2, 3, 4]),
            f"{HELPERS}:interrupt_at_seed_3",
            InlineExecutor(),
            on_final=lambda task, outcome: finalized.append(task["key"]),
        )
        assert cancelled
        # seeds 1 and 2 completed before the interrupt; 3 and 4 never did.
        assert sorted(outcomes) == ["t1", "t2"]
        assert sorted(finalized) == ["t1", "t2"]

    def test_preset_cancel_event_runs_nothing(self):
        event = threading.Event()
        event.set()
        outcomes, cancelled = execute_tasks(
            tasks_for([1, 2]), f"{HELPERS}:double_seed", InlineExecutor(),
            cancel_event=event,
        )
        assert cancelled and outcomes == {}

    def test_cancel_event_mid_run(self):
        event = threading.Event()
        seen = []

        def on_final(task, outcome):
            seen.append(task["key"])
            event.set()  # cancel as soon as the first trial lands

        outcomes, cancelled = execute_tasks(
            tasks_for([1, 2, 3, 4, 5, 6], delay=0.05),
            f"{HELPERS}:slow_double_seed",
            InlineExecutor(),
            on_final=on_final,
            cancel_event=event,
        )
        assert cancelled
        assert len(outcomes) < 6


class TestMakeExecutor:
    def test_auto_resolution(self):
        assert make_executor(Execution(jobs=0)).name == "inline"
        assert make_executor(Execution(jobs=2)).name == "fork"

    def test_explicit_backends(self, tmp_path):
        assert make_executor(Execution(backend="inline")).name == "inline"
        assert make_executor(Execution(backend="fork", jobs=2)).name == "fork"
        queue_exec = make_executor(
            Execution(backend="queue", queue_dir=str(tmp_path / "q"))
        )
        assert isinstance(queue_exec, FileQueueExecutor)

    def test_queue_requires_directory(self):
        with pytest.raises(ServiceError, match="queue directory"):
            Execution(backend="queue")

    def test_unknown_backend(self):
        with pytest.raises(ServiceError, match="unknown executor backend"):
            Execution(backend="carrier-pigeon")
        with pytest.raises(ServiceError, match="unknown executor backend 'thread'"):
            Execution(backend="thread", jobs=2)
