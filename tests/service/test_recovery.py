"""Crash recovery: journal replay in-process and kill -9 end-to-end."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.service import client
from repro.service.journal import JobJournal
from repro.service.queue import FileQueueExecutor, run_worker
from repro.service.server import JobManager

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

SPEC = {"kind": "campaign", "target": "E7", "seeds": 2, "jobs": 0,
        "backend": "inline"}


def run_to_done(manager, spec, timeout=60.0):
    job, _ = manager.submit(spec)
    deadline = time.monotonic() + timeout
    while not job.terminal and time.monotonic() < deadline:
        time.sleep(0.02)
    assert job.state == "done"
    return job


def frozen_manager(cache_dir, **kwargs):
    """A JobManager whose workers have exited: submissions stay pending."""
    manager = JobManager(cache_dir=cache_dir, max_workers=1, **kwargs)
    manager._stopping.set()
    for thread in manager._threads:
        thread.join(timeout=5.0)
    return manager


class TestManagerRecovery:
    def test_terminal_job_restored_verbatim(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = JobManager(cache_dir=cache, max_workers=1)
        job = run_to_done(first, SPEC)
        fingerprint = job.result["fingerprint_sha256"]
        # simulated crash: no shutdown(), just abandon the manager
        first._journal.close()

        second = JobManager(cache_dir=cache, max_workers=1)
        try:
            recovered = second.get(job.job_id)
            assert recovered.state == "done"
            assert recovered.recoveries == 0  # terminal: not re-dispatched
            assert recovered.result["fingerprint_sha256"] == fingerprint
            # manifest + rendered result still served from the store
            manifest = second.manifest(job.job_id)
            assert len(manifest["trials"]) == SPEC["seeds"]
            assert second.read_artifact(job.job_id, "result.txt")
            # the id counter continues past recovered ids
            fresh, _ = second.submit(dict(SPEC, seeds=3))
            assert int(fresh.job_id.split("-")[1]) > int(job.job_id.split("-")[1])
        finally:
            second.shutdown()

    def test_inflight_job_recovered_and_rerun(self, tmp_path):
        cache = str(tmp_path / "cache")
        crashed = frozen_manager(cache)
        job, _ = crashed.submit(SPEC)
        assert job.state == "pending"
        crashed._journal.close()

        # reference fingerprint from an uninterrupted run on a fresh cache
        reference = JobManager(cache_dir=str(tmp_path / "ref"), max_workers=1)
        try:
            expected = run_to_done(reference, SPEC).result["fingerprint_sha256"]
        finally:
            reference.shutdown()

        second = JobManager(cache_dir=cache, max_workers=1)
        try:
            recovered = second.get(job.job_id)
            deadline = time.monotonic() + 60
            while not recovered.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert recovered.state == "done"
            assert recovered.recoveries == 1
            assert recovered.result["fingerprint_sha256"] == expected
            counters = second.registry.snapshot()["counters"]
            assert counters["service.jobs_recovered"] == 1
        finally:
            second.shutdown()

    def test_partial_progress_resumes_warm(self, tmp_path):
        """A re-run after a crash serves finished trials from the store."""
        cache = str(tmp_path / "cache")
        first = JobManager(cache_dir=cache, max_workers=1)
        run_to_done(first, SPEC)  # populates the content-addressed store
        # same grid, wider sweep, crashed while pending
        crashed = frozen_manager(cache)
        job, _ = crashed.submit(dict(SPEC, seeds=4))
        crashed._journal.close()
        first._journal.close()

        second = JobManager(cache_dir=cache, max_workers=1)
        try:
            recovered = second.get(job.job_id)
            deadline = time.monotonic() + 60
            while not recovered.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert recovered.state == "done"
            assert recovered.result["cached"] == SPEC["seeds"]  # warm resume
            manifest = second.manifest(job.job_id)
            assert manifest["store"]["index"]["full_scans"] == 0
        finally:
            second.shutdown()

    def test_recover_false_starts_empty(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = frozen_manager(cache)
        first.submit(SPEC)
        first._journal.close()
        second = frozen_manager(cache, recover=False)
        assert second.list() == []

    def test_recovery_emits_lifecycle_event(self, tmp_path):
        cache = str(tmp_path / "cache")
        crashed = frozen_manager(cache)
        job, _ = crashed.submit(SPEC)
        crashed._journal.close()
        second = frozen_manager(cache)
        events = second.events(job.job_id)["events"]
        assert any(e["event"] == "recovered" for e in events)
        assert second.readiness()["ready"]  # replay finished


# ---------------------------------------------------------------------------
# Subprocess kill -9 tests: the real thing, no simulated crashes.
# ---------------------------------------------------------------------------


def _env_with_src():
    env = dict(os.environ)
    parts = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def start_serve(cache_dir, timeout=30.0):
    """Launch ``repro serve --port 0``; returns (process, base_url)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--cache-dir", cache_dir, "--workers", "1"],
        stderr=subprocess.PIPE, cwd=REPO_ROOT, env=_env_with_src(), text=True,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if "listening on http://" in line:
            address = line.split("listening on ")[1].split()[0]
            return process, address
        if process.poll() is not None:
            break
    process.kill()
    raise AssertionError("repro serve did not announce its port")


def http_json(url, path):
    with urllib.request.urlopen(url + path, timeout=30.0) as response:
        return json.loads(response.read().decode("utf-8"))


class TestServeKillRecovery:
    def test_sigkill_mid_campaign_recovers_byte_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        spec = dict(SPEC, seeds=150)

        # Reference: the fingerprint an uninterrupted run produces.
        reference = JobManager(cache_dir=str(tmp_path / "ref"), max_workers=1)
        try:
            expected = run_to_done(
                reference, spec, timeout=120.0
            ).result["fingerprint_sha256"]
        finally:
            reference.shutdown()

        process, url = start_serve(cache)
        try:
            state = client.submit_job(url, spec)
            job_id = state["job_id"]
            # Let a few trials land so the re-run has something to resume.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                state = client.job_status(url, job_id)
                if state["progress"]["done"] >= 3 or state["state"] == "done":
                    break
                time.sleep(0.02)
            assert state["state"] in ("running", "done")
            killed_mid_run = state["state"] == "running"
        finally:
            process.kill()  # SIGKILL: no drain, no journal flush
            process.wait(timeout=30)
            process.stderr.close()

        process, url = start_serve(cache)
        try:
            final = client.wait_for_job(url, job_id, timeout=120.0, poll=0.1)
            assert final["state"] == "done"
            assert final["recoveries"] == (1 if killed_mid_run else 0)
            assert final["result"]["fingerprint_sha256"] == expected
            manifest = client.fetch_manifest(url, job_id)
            assert manifest["store"]["index"]["full_scans"] == 0
            # SIGTERM now: graceful drain must exit 0
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
            process.stderr.close()


class TestWorkerKillRecovery:
    FN = "tests.campaign.pool_helpers:slow_double_seed"

    def test_sigkill_worker_reclaims_lease_and_reruns(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        queue_dir = str(tmp_path / "queue")
        registry = MetricsRegistry()
        executor = FileQueueExecutor(
            queue_dir, timeout=60.0, lease_ttl=0.5, metrics=registry
        )
        executor.start(self.FN)
        executor.submit({"key": "t1", "seed": 5, "delay": 30.0})

        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--queue", queue_dir,
             "--lease-ttl", "0.5", "--max-idle", "30"],
            cwd=REPO_ROOT, env=_env_with_src(),
        )
        claim = os.path.join(queue_dir, "claimed", "t1.json")
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(claim) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert os.path.exists(claim), "worker never claimed the task"
        finally:
            worker.kill()  # mid-lease, mid-trial
            worker.wait(timeout=30)

        # Supervisor notices the dead lease and re-enqueues the task.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            assert executor.poll(timeout=0.2) == []
            if os.path.exists(os.path.join(queue_dir, "tasks", "t1.json")):
                break
        counters = registry.snapshot()["counters"]
        assert counters["queue.leases_reclaimed"] == 1

        # A healthy worker re-runs it to completion (fast this time).
        executor._remove_queue_files("t1")
        executor.submit({"key": "t1", "seed": 5, "delay": 0.0})
        assert run_worker(queue_dir, max_tasks=1, lease_ttl=0.5) == 1
        messages = executor.poll(timeout=10.0)
        assert [m.kind for m in messages] == ["ok"]
        assert messages[0].payload == {"value": 10}
        # no stranded leases or claims
        assert os.listdir(os.path.join(queue_dir, "claimed")) == []

        # if the killed worker's attempt had landed late after all, it
        # would be deduped: stage that late result and count it
        from repro.service.queue import write_result

        write_result(queue_dir, "t1", {"key": "t1", "ok": True,
                                       "payload": {"value": 10}})
        executor.poll(timeout=0.2)
        counters = registry.snapshot()["counters"]
        assert counters["queue.duplicate_results"] == 1
        assert os.listdir(os.path.join(queue_dir, "results")) == []


# ---------------------------------------------------------------------------
# Journals written before the in-process queue drain threads were removed
# ---------------------------------------------------------------------------

#: Verbatim journal lines from the previous release (only the manifest
#: path is shortened).  Their specs carry the retired ``queue_workers``
#: field, and the second names the retired ``thread`` backend.
LEGACY_DONE_LINE = (
    '{"job": {"created_unix": 1792423215.7020233, "digest": '
    '"21d622f45696620a", "error": null, "finished_unix": '
    '1792423216.0688653, "job_id": "job-0001-21d622f4", '
    '"manifest_path": "E7-b08e02b2d07e/manifest.json", "progress": '
    '{"cached": 0, "done": 2, "failed": 0, "retried": 0, "total": 2}, '
    '"recoveries": 0, "result": {"cached": 0, "campaign_id": '
    '"E7-b08e02b2d07e", "fingerprint_sha256": "499cd117fa1cc9f5b63e8548'
    '60301e15b3f48096f3ac0c02777eecd14a0af6b2", "pure_cache_hit": '
    'false, "quarantined": 0, "ran": 2, "records": 2, "total": 2}, '
    '"spec": {"adaptive": false, "backend": "inline", "ci_quantity": '
    'null, "ci_width": null, "duration": null, "fault_seed_base": 0, '
    '"full": false, "jobs": 0, "kind": "campaign", "max_attempts": 2, '
    '"min_seeds": 8, "plan": "smoke", "presets": ["juno_r1"], '
    '"queue_dir": null, "queue_workers": 0, "round_size": 4, "satin": '
    'null, "seed_base": 0, "seeds": 2, "target": "E7", "timeout": '
    'null}, "started_unix": 1792423215.7057776, "state": "done"}, "v": '
    '1}'
)

LEGACY_THREAD_LINE = (
    '{"job": {"created_unix": 1792423216.6773834, "digest": '
    '"3429591ba99b4f7e", "error": null, "finished_unix": null, '
    '"job_id": "job-0001-3429591b", "manifest_path": null, "progress": '
    '{"cached": 0, "done": 0, "failed": 0, "retried": 0, "total": 3}, '
    '"recoveries": 0, "result": null, "spec": {"adaptive": false, '
    '"backend": "thread", "ci_quantity": null, "ci_width": null, '
    '"duration": null, "fault_seed_base": 0, "full": false, "jobs": 2, '
    '"kind": "campaign", "max_attempts": 2, "min_seeds": 8, "plan": '
    '"smoke", "presets": ["juno_r1"], "queue_dir": null, '
    '"queue_workers": 0, "round_size": 4, "satin": null, "seed_base": '
    '0, "seeds": 3, "target": "E7", "timeout": null}, "started_unix": '
    'null, "state": "pending"}, "v": 1}'
)


def write_journal(cache, *lines):
    directory = os.path.join(cache, "journal")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "journal.jsonl"), "w") as handle:
        handle.write("".join(line + "\n" for line in lines))


class TestLegacyJournal:
    def test_terminal_job_restored_as_the_same_job(self, tmp_path):
        cache = str(tmp_path / "cache")
        write_journal(cache, LEGACY_DONE_LINE)
        manager = frozen_manager(cache)
        expected = json.loads(LEGACY_DONE_LINE)["job"]
        del expected["spec"]["queue_workers"]
        assert manager.get(expected["job_id"]).to_json() == expected
        counters = manager.registry.snapshot()["counters"]
        assert "journal.unreadable_jobs" not in counters

    def test_inflight_thread_job_fails_with_unknown_backend(self, tmp_path):
        cache = str(tmp_path / "cache")
        write_journal(cache, LEGACY_THREAD_LINE)
        manager = JobManager(cache_dir=cache, max_workers=1)
        try:
            job = manager.get(json.loads(LEGACY_THREAD_LINE)["job"]["job_id"])
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert job.state == "failed"
            assert "unknown executor backend 'thread'" in job.error
            assert job.recoveries == 1
        finally:
            manager.shutdown()


# ---------------------------------------------------------------------------
# Journals written before execution settings became one value
# ---------------------------------------------------------------------------

#: Verbatim journal lines from the previous release (only the manifest
#: path is shortened): a finished chaos job and an adaptive job still
#: pending when the service stopped.
PREVIOUS_CHAOS_DONE_LINE = (
    '{"job": {"created_unix": 1792431079.140751, "digest": '
    '"68debb434f9f69cf", "error": null, "finished_unix": '
    '1792431079.5831065, "job_id": "job-0001-68debb43", '
    '"manifest_path": "CHAOS-FIGURE4-3dc5b98b2248/manifest.json", '
    '"progress": {"cached": 0, "done": 1, "failed": 0, "retried": 0, '
    '"total": 1}, "recoveries": 0, "result": {"cached": 0, '
    '"campaign_id": "CHAOS-FIGURE4-3dc5b98b2248", "fingerprint_sha256":'
    ' "a68fee9c20d4b57ced4da63c4cc3600ebcf80e280522566ba7ad3ba0f265e7a9'
    '", "pure_cache_hit": false, "quarantined": 0, "ran": 1, "records":'
    ' 1, "survival_totals": {"degraded": 8, "detected": 2, "injected": '
    '10, "missed": 0}, "total": 1}, "spec": {"adaptive": false, '
    '"backend": "inline", "ci_quantity": null, "ci_width": null, '
    '"duration": 15.0, "fault_seed_base": 0, "full": false, "jobs": 0, '
    '"kind": "chaos", "max_attempts": 2, "min_seeds": 8, "plan": '
    '"smoke", "presets": ["juno_r1"], "queue_dir": null, "round_size": '
    '4, "satin": null, "seed_base": 0, "seeds": 1, "target": "figure4",'
    ' "timeout": null}, "started_unix": 1792431079.141662, "state": '
    '"done"}, "v": 1}'
)

PREVIOUS_ADAPTIVE_PENDING_LINE = (
    '{"job": {"created_unix": 1792431079.596334, "digest": '
    '"f74ff779f6b49a0e", "error": null, "finished_unix": null, '
    '"job_id": "job-0002-f74ff779", "manifest_path": null, "progress": '
    '{"cached": 0, "done": 0, "failed": 0, "retried": 0, "total": 3}, '
    '"recoveries": 0, "result": null, "spec": {"adaptive": true, '
    '"backend": "auto", "ci_quantity": null, "ci_width": 1000000000.0, '
    '"duration": null, "fault_seed_base": 0, "full": false, "jobs": 0, '
    '"kind": "campaign", "max_attempts": 2, "min_seeds": 2, "plan": '
    '"smoke", "presets": ["juno_r1"], "queue_dir": null, "round_size": '
    '1, "satin": null, "seed_base": 0, "seeds": 3, "target": "E7", '
    '"timeout": null}, "started_unix": null, "state": "pending"}, "v": '
    '1}'
)


class TestPreviousReleaseJournal:
    def test_done_chaos_job_restored_verbatim(self, tmp_path):
        cache = str(tmp_path / "cache")
        write_journal(cache, PREVIOUS_CHAOS_DONE_LINE)
        manager = frozen_manager(cache)
        expected = json.loads(PREVIOUS_CHAOS_DONE_LINE)["job"]
        assert manager.get(expected["job_id"]).to_json() == expected

    def test_pending_adaptive_job_reruns_to_the_same_fingerprint(self, tmp_path):
        cache = str(tmp_path / "cache")
        write_journal(cache, PREVIOUS_ADAPTIVE_PENDING_LINE)
        manager = JobManager(cache_dir=cache, max_workers=1)
        try:
            job_id = json.loads(PREVIOUS_ADAPTIVE_PENDING_LINE)["job"]["job_id"]
            job = manager.get(job_id)
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert job.state == "done" and job.recoveries == 1
            # the fingerprint the previous release recorded for this job
            assert job.result["fingerprint_sha256"] == (
                "499cd117fa1cc9f5b63e854860301e15b3f48096f3ac0c02777eecd14a0af6b2"
            )
        finally:
            manager.shutdown()


class TestJournalBeforeVisibility:
    def test_a_new_state_is_journaled_before_it_is_visible(
        self, tmp_path, monkeypatch
    ):
        """Every transition reaches the journal while the job still shows
        its old state, so no reader sees a state a crash could lose."""
        manager = None
        seen = []
        append = JobJournal.append

        def hooked(journal, job_json):
            if manager is not None and job_json["state"] != "pending":
                visible = manager._jobs[job_json["job_id"]].state
                seen.append((job_json["state"], visible))
            append(journal, job_json)

        monkeypatch.setattr(JobJournal, "append", hooked)
        manager = frozen_manager(str(tmp_path / "frozen"))
        job, _ = manager.submit(SPEC)
        manager.cancel(job.job_id)  # pending -> cancelled
        manager = JobManager(cache_dir=str(tmp_path / "live"), max_workers=1)
        try:
            run_to_done(manager, SPEC)  # running, done
            failed, _ = manager.submit(dict(SPEC, presets=["nope"]))
            deadline = time.monotonic() + 60
            while not failed.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert failed.state == "failed"
        finally:
            manager.shutdown()
        assert {new for new, _ in seen} == {
            "cancelled", "running", "done", "failed"
        }
        for new, visible in seen:
            assert visible != new, f"{new!r} was visible before it was durable"
