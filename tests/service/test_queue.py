"""File-queue primitives, the worker loop, and the queue executor."""

import json
import os
import threading
import time

import pytest

from repro.durable import tmp_path_for
from repro.obs.metrics import MetricsRegistry
from repro.service.executors import execute_tasks
from repro.service.queue import (
    FileQueueExecutor,
    claim_next,
    clear_lease,
    clear_stop,
    enqueue_task,
    ensure_queue,
    lease_path,
    read_lease,
    run_worker,
    stop_workers,
    write_lease,
    write_result,
)

HELPERS = "tests.campaign.pool_helpers"
FN = f"{HELPERS}:double_seed"
FN_SLOW = f"{HELPERS}:slow_double_seed"


def task_for(seed, **extra):
    return {"key": f"t{seed}", "seed": seed, **extra}


class TestPrimitives:
    def test_ensure_queue_layout(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        for sub in ("tasks", "claimed", "results", "control"):
            assert os.path.isdir(os.path.join(queue_dir, sub))
        ensure_queue(queue_dir)  # idempotent

    def test_enqueue_and_claim(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        enqueue_task(queue_dir, task_for(1), FN)
        claimed = claim_next(queue_dir)
        assert claimed and claimed.endswith("t1.json")
        assert os.path.dirname(claimed).endswith("claimed")
        with open(claimed, encoding="utf-8") as handle:
            entry = json.load(handle)
        assert entry["task"]["seed"] == 1 and entry["fn_path"] == FN
        # the task is gone: a second claim finds nothing
        assert claim_next(queue_dir) is None

    def test_claims_oldest_first(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        for seed in (2, 1, 3):
            enqueue_task(queue_dir, task_for(seed), FN)
        order = [os.path.basename(claim_next(queue_dir)) for _ in range(3)]
        assert order == ["t1.json", "t2.json", "t3.json"]  # sorted by key

    def test_stop_marker_round_trip(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        stop_workers(queue_dir)
        assert run_worker(queue_dir) == 0  # exits immediately
        clear_stop(queue_dir)
        clear_stop(queue_dir)  # idempotent


class TestWorker:
    def test_drains_tasks_and_writes_results(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        for seed in (1, 2):
            enqueue_task(queue_dir, task_for(seed), FN)
        done = run_worker(queue_dir, max_idle=0.2)
        assert done == 2
        results = sorted(os.listdir(os.path.join(queue_dir, "results")))
        assert results == ["t1.json", "t2.json"]
        with open(os.path.join(queue_dir, "results", "t2.json")) as handle:
            message = json.load(handle)
        assert message["ok"] and message["payload"] == {"value": 4}
        assert os.listdir(os.path.join(queue_dir, "claimed")) == []

    def test_max_tasks_one_is_repro_worker_once(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        for seed in (1, 2):
            enqueue_task(queue_dir, task_for(seed), FN)
        assert run_worker(queue_dir, max_tasks=1) == 1
        assert len(os.listdir(os.path.join(queue_dir, "tasks"))) == 1

    def test_trial_exception_becomes_error_result(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        enqueue_task(queue_dir, task_for(1), f"{HELPERS}:always_raise")
        assert run_worker(queue_dir, max_tasks=1) == 1
        with open(os.path.join(queue_dir, "results", "t1.json")) as handle:
            message = json.load(handle)
        assert not message["ok"] and "is broken" in message["error"]

    def test_stop_event_stops_in_process_worker(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        event = threading.Event()
        event.set()
        assert run_worker(queue_dir, stop_event=event) == 0


class TestFileQueueExecutor:
    def test_local_workers_complete_a_run(self, tmp_path):
        executor = FileQueueExecutor(str(tmp_path / "q"), local_workers=2)
        outcomes, cancelled = execute_tasks(
            [task_for(s) for s in (1, 2, 3, 4)], FN, executor
        )
        assert not cancelled
        assert {k: o.payload["value"] for k, o in outcomes.items()} == {
            "t1": 2, "t2": 4, "t3": 6, "t4": 8,
        }

    def test_external_worker_drains_supervised_queue(self, tmp_path):
        """Supervisor with no local workers + a separate worker thread."""
        queue_dir = str(tmp_path / "q")
        executor = FileQueueExecutor(queue_dir, local_workers=0)
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker, args=(queue_dir,), kwargs={"stop_event": stop},
            daemon=True,
        )
        worker.start()
        try:
            outcomes, cancelled = execute_tasks(
                [task_for(s) for s in (1, 2)], FN, executor
            )
        finally:
            stop.set()
            worker.join(timeout=5.0)
        assert not cancelled and all(o.ok for o in outcomes.values())

    def test_stale_claim_reclaimed_as_timeout(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        executor = FileQueueExecutor(queue_dir, timeout=0.1, claim_grace=0.1)
        executor.start(FN)
        executor.submit(task_for(1))
        # nobody drains the queue; after timeout+grace the claim is abandoned
        messages = []
        deadline = 50
        while not messages and deadline:
            messages = executor.poll(0.1)
            deadline -= 1
        assert messages and messages[0].kind == "timeout"
        assert "reclaimed" in messages[0].error
        assert os.listdir(os.path.join(queue_dir, "tasks")) == []

    def test_cancel_withdraws_own_tasks_only(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        enqueue_task(queue_dir, task_for(99), FN)  # someone else's work
        executor = FileQueueExecutor(queue_dir)
        executor.start(FN)
        executor.submit(task_for(1))
        executor.cancel()
        remaining = os.listdir(os.path.join(queue_dir, "tasks"))
        assert remaining == ["t99.json"]


class TestLeases:
    def test_lease_round_trip(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        assert read_lease(queue_dir, "t1") is None
        write_lease(queue_dir, "t1", ttl=5.0, worker=123)
        lease = read_lease(queue_dir, "t1")
        assert lease["worker"] == 123 and lease["ttl"] == 5.0
        assert lease["expires_unix"] > time.time()
        clear_lease(queue_dir, "t1")
        assert read_lease(queue_dir, "t1") is None
        clear_lease(queue_dir, "t1")  # idempotent

    def test_worker_heartbeat_renews_lease(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        enqueue_task(queue_dir, task_for(1, delay=0.6), FN_SLOW)
        seen = []

        def watch():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                lease = read_lease(queue_dir, "t1")
                if lease is not None:
                    seen.append(lease["renewed_unix"])
                    if len(set(seen)) >= 2:
                        return
                time.sleep(0.02)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        assert run_worker(queue_dir, max_tasks=1, lease_ttl=0.3) == 1
        watcher.join(timeout=10.0)
        assert len(set(seen)) >= 2  # renewed at least once mid-trial
        assert read_lease(queue_dir, "t1") is None  # cleared on completion

    def test_expired_lease_is_reclaimed_without_retry_charge(self, tmp_path):
        registry = MetricsRegistry()
        queue_dir = str(tmp_path / "q")
        executor = FileQueueExecutor(
            queue_dir, timeout=60.0, lease_ttl=0.2, metrics=registry
        )
        executor.start(FN)
        executor.submit(task_for(1))
        # simulate a worker that claimed, leased, then died (SIGKILL)
        claimed = claim_next(queue_dir)
        assert claimed
        write_lease(queue_dir, "t1", ttl=0.05)
        time.sleep(0.1)

        assert executor.poll(timeout=0.2) == []  # reclaim, not a timeout
        assert os.path.exists(os.path.join(queue_dir, "tasks", "t1.json"))
        assert not os.path.exists(claimed)
        assert read_lease(queue_dir, "t1") is None
        counters = registry.snapshot()["counters"]
        assert counters["queue.leases_reclaimed"] == 1
        # the re-enqueued task completes normally on a healthy worker
        assert run_worker(queue_dir, max_tasks=1) == 1
        messages = executor.poll(timeout=5.0)
        assert [m.kind for m in messages] == ["ok"]

    def test_claim_without_lease_reclaimed_by_age(self, tmp_path):
        """Worker died between the claim rename and its first lease write."""
        registry = MetricsRegistry()
        queue_dir = str(tmp_path / "q")
        executor = FileQueueExecutor(
            queue_dir, timeout=60.0, lease_ttl=0.2, metrics=registry
        )
        executor.start(FN)
        executor.submit(task_for(1))
        assert claim_next(queue_dir)  # no lease ever written
        time.sleep(0.3)  # claim mtime now older than the lease TTL
        executor.poll(timeout=0.1)
        assert os.path.exists(os.path.join(queue_dir, "tasks", "t1.json"))
        assert registry.snapshot()["counters"]["queue.leases_reclaimed"] == 1

    def test_claim_of_long_queued_task_not_reclaimed_before_lease(self, tmp_path):
        """The lease clock starts at the claim, not when the task was queued."""
        registry = MetricsRegistry()
        queue_dir = str(tmp_path / "q")
        executor = FileQueueExecutor(
            queue_dir, timeout=60.0, lease_ttl=0.2, metrics=registry
        )
        executor.start(FN)
        executor.submit(task_for(1))
        task = os.path.join(queue_dir, "tasks", "t1.json")
        stale = time.time() - 10.0
        os.utime(task, (stale, stale))  # waited in tasks/ past the lease TTL
        claimed = claim_next(queue_dir)
        assert claimed
        executor._reclaim_expired_leases()  # before the worker's first lease
        assert os.path.exists(claimed)
        assert not os.path.exists(task)
        assert "queue.leases_reclaimed" not in registry.snapshot()["counters"]

    def test_reclaim_removes_temp_file_of_killed_lease_write(self, tmp_path):
        """Worker killed between the lease temp-file write and its rename."""
        registry = MetricsRegistry()
        queue_dir = str(tmp_path / "q")
        executor = FileQueueExecutor(
            queue_dir, timeout=60.0, lease_ttl=0.2, metrics=registry
        )
        executor.start(FN)
        executor.submit(task_for(1))
        claimed = claim_next(queue_dir)
        claimed_dir = os.path.dirname(claimed)
        torn = tmp_path_for(lease_path(queue_dir, "t1"))
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write('{"worker": 42')
        stale = time.time() - 10.0
        os.utime(claimed, (stale, stale))  # claim older than the lease TTL
        assert executor.poll(timeout=0.1) == []
        assert os.path.exists(os.path.join(queue_dir, "tasks", "t1.json"))
        assert registry.snapshot()["counters"]["queue.leases_reclaimed"] == 1
        assert os.listdir(claimed_dir) == []
        # withdrawing a task clears a torn lease write too
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write("{")
        executor._remove_queue_files("t1")
        assert os.listdir(claimed_dir) == []
        assert not os.path.exists(os.path.join(queue_dir, "tasks", "t1.json"))

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        registry = MetricsRegistry()
        queue_dir = str(tmp_path / "q")
        executor = FileQueueExecutor(
            queue_dir, timeout=60.0, lease_ttl=0.2, metrics=registry
        )
        executor.start(FN)
        executor.submit(task_for(1))
        claim_next(queue_dir)
        write_lease(queue_dir, "t1", ttl=60.0)  # healthy heartbeat
        executor.poll(timeout=0.1)
        assert not os.path.exists(os.path.join(queue_dir, "tasks", "t1.json"))
        assert "queue.leases_reclaimed" not in registry.snapshot()["counters"]

    def test_duplicate_late_result_dropped_and_counted(self, tmp_path):
        registry = MetricsRegistry()
        queue_dir = str(tmp_path / "q")
        executor = FileQueueExecutor(queue_dir, metrics=registry)
        executor.start(FN)
        executor.submit(task_for(1))
        assert run_worker(queue_dir, max_tasks=1) == 1
        assert [m.kind for m in executor.poll(timeout=5.0)] == ["ok"]
        # a presumed-dead worker finishes after all and writes again
        assert not write_result(
            queue_dir, "t1", {"key": "t1", "ok": True, "payload": {}}
        )
        executor.poll(timeout=0.1)
        assert os.listdir(os.path.join(queue_dir, "results")) == []
        counters = registry.snapshot()["counters"]
        assert counters["queue.duplicate_results"] == 1

    def test_write_result_reports_existing_file(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        message = {"key": "t1", "ok": True, "payload": {}}
        assert not write_result(queue_dir, "t1", message)
        assert write_result(queue_dir, "t1", message)  # duplicate attempt


class TestStaleStop:
    def test_stale_stop_sentinel_cleared_with_warning(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        stop_workers(queue_dir)
        stop_path = os.path.join(queue_dir, "control", "stop")
        old = time.time() - 3600
        os.utime(stop_path, (old, old))
        with pytest.warns(RuntimeWarning, match="stale stop sentinel"):
            ensure_queue(queue_dir, stale_stop_after=600.0)
        assert not os.path.exists(stop_path)

    def test_fresh_stop_sentinel_is_honoured(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        stop_workers(queue_dir)
        ensure_queue(queue_dir, stale_stop_after=600.0)
        assert os.path.exists(os.path.join(queue_dir, "control", "stop"))

    def test_worker_startup_clears_stale_stop(self, tmp_path):
        queue_dir = ensure_queue(str(tmp_path / "q"))
        stop_workers(queue_dir)
        stop_path = os.path.join(queue_dir, "control", "stop")
        old = time.time() - 3600
        os.utime(stop_path, (old, old))
        enqueue_task(queue_dir, task_for(1), FN)
        with pytest.warns(RuntimeWarning):
            done = run_worker(queue_dir, max_tasks=1)
        assert done == 1  # the stale sentinel did not brick the queue
