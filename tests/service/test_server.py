"""The HTTP job service: submit, poll, fetch, cancel, cache semantics."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import durable
from repro.errors import BackpressureError, JobTransitionError, ServiceError
from repro.service import client
from repro.service.server import JobManager, make_server

SPEC = {"kind": "campaign", "target": "E7", "seeds": 2, "jobs": 0,
        "backend": "inline"}


@pytest.fixture
def service(tmp_path):
    server, manager = make_server(
        port=0, cache_dir=str(tmp_path / "cache"), max_workers=1
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", manager
    server.shutdown()
    server.server_close()
    manager.shutdown()


def wait_terminal(url, job_id, timeout=60.0):
    return client.wait_for_job(url, job_id, timeout=timeout, poll=0.05)


class TestJobManager:
    def test_submit_runs_to_done(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path), max_workers=1)
        try:
            job, deduped = manager.submit(SPEC)
            assert not deduped and job.state in ("pending", "running")
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.05)
            assert job.state == "done"
            assert job.result["ran"] == 2 and not job.result["pure_cache_hit"]
            assert job.manifest_path and job.progress["done"] == 2
        finally:
            manager.shutdown()

    def test_finished_job_leaves_result_and_no_job_json(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path), max_workers=1)
        try:
            job, _ = manager.submit(SPEC)
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.05)
            assert job.state == "done"
            directory = tmp_path / "jobs" / job.job_id
            # job state lives in the journal only; the result is served whole
            assert sorted(p.name for p in directory.iterdir()) == ["result.txt"]
            assert manager.read_artifact(job.job_id, "result.txt").endswith("\n")
        finally:
            manager.shutdown()

    def test_failed_artifact_rename_leaves_no_torn_result(self, tmp_path, monkeypatch):
        manager = JobManager(cache_dir=str(tmp_path), max_workers=1)
        manager._stopping.set()  # no job runs: the artifact write alone is tested
        try:
            job, _ = manager.submit(SPEC)
            manager._write_artifact(job, "result.txt", "old table\n")

            def dies(src, dst):
                raise OSError("host died before the rename")

            monkeypatch.setattr(durable.os, "replace", dies)
            with pytest.raises(OSError):
                manager._write_artifact(job, "result.txt", "new table\n")
            monkeypatch.undo()
            assert manager.read_artifact(job.job_id, "result.txt") == "old table\n"
        finally:
            manager.shutdown()

    def test_inflight_dedupe_by_digest(self, tmp_path):
        # No workers draining: both submissions stay pending -> dedupe hits.
        manager = JobManager(cache_dir=str(tmp_path), max_workers=1)
        manager._stopping.set()  # freeze execution for this test
        first, deduped1 = manager.submit(SPEC)
        second, deduped2 = manager.submit(dict(SPEC, jobs=4, backend="thread"))
        assert not deduped1 and deduped2
        assert second.job_id == first.job_id  # execution fields don't matter
        other, deduped3 = manager.submit(dict(SPEC, seeds=3))
        assert not deduped3 and other.job_id != first.job_id

    def test_cancel_pending_job(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path), max_workers=1)
        manager._stopping.set()
        job, _ = manager.submit(SPEC)
        cancelled = manager.cancel(job.job_id)
        assert cancelled.state == "cancelled"
        with pytest.raises(JobTransitionError):
            manager.cancel(job.job_id)

    def test_unknown_job_raises(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path), max_workers=1)
        manager._stopping.set()
        with pytest.raises(ServiceError, match="unknown job"):
            manager.get("job-9999-deadbeef")

    def test_bad_spec_rejected(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path), max_workers=1)
        manager._stopping.set()
        with pytest.raises(ServiceError):
            manager.submit({"kind": "campaign"})  # no target


class TestHttpApi:
    def test_submit_poll_fetch_round_trip(self, service):
        url, _ = service
        state = client.submit_job(url, SPEC)
        assert not state["deduped"]
        final = wait_terminal(url, state["job_id"])
        assert final["state"] == "done"
        manifest = client.fetch_manifest(url, state["job_id"])
        assert manifest["cancelled"] is False
        assert len(manifest["trials"]) == 2
        rendered = client.fetch_result(url, state["job_id"])
        assert rendered.startswith("# campaign E7")

    def test_resubmission_is_pure_cache_hit(self, service):
        url, _ = service
        first = wait_terminal(url, client.submit_job(url, SPEC)["job_id"])
        second = wait_terminal(url, client.submit_job(url, SPEC)["job_id"])
        assert second["job_id"] != first["job_id"]
        assert second["result"]["pure_cache_hit"] is True
        assert second["result"]["ran"] == 0
        assert (
            second["result"]["fingerprint_sha256"]
            == first["result"]["fingerprint_sha256"]
        )

    def test_unknown_job_is_404(self, service):
        url, _ = service
        status, body = client.request(url, "/jobs/job-9999-deadbeef")
        assert status == 404 and "unknown job" in body["error"]

    def test_bad_spec_is_400(self, service):
        url, _ = service
        status, body = client.request(
            url, "/jobs", method="POST", payload={"kind": "campaign"}
        )
        assert status == 400 and "target" in body["error"]

    def test_manifest_before_done_is_409(self, service):
        url, manager = service
        manager._stopping.set()  # keep the job pending
        state = client.submit_job(url, SPEC)
        status, body = client.request(url, f"/jobs/{state['job_id']}/manifest")
        assert status == 409 and "no manifest" in body["error"]

    def test_cancel_terminal_job_is_409(self, service):
        url, _ = service
        state = wait_terminal(url, client.submit_job(url, SPEC)["job_id"])
        status, body = client.request(
            url, f"/jobs/{state['job_id']}/cancel", method="POST"
        )
        assert status == 409 and "nothing to cancel" in body["error"]

    def test_healthz_jobs_listing_and_metrics(self, service):
        url, _ = service
        status, health = client.request(url, "/healthz")
        assert status == 200 and health["ok"]
        wait_terminal(url, client.submit_job(url, SPEC)["job_id"])
        status, listing = client.request(url, "/jobs")
        assert status == 200 and len(listing["jobs"]) == 1
        status, metrics = client.request(url, "/metrics")
        assert metrics["counters"]["service.jobs_submitted"] == 1
        assert metrics["counters"]["service.jobs_completed"] == 1
        assert any(
            name.startswith("job.job-") for name in metrics["counters"]
        )

    def test_bad_json_body_is_400(self, service):
        url, _ = service
        req = urllib.request.Request(
            url + "/jobs", data=b"not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            response = urllib.request.urlopen(req)
            status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

    def test_submit_during_drain_is_503_and_readyz_flips(self, service):
        url, manager = service
        status, readiness = client.request(url, "/readyz")
        assert status == 200 and readiness["ready"]
        manager.begin_drain()
        status, readiness = client.request(url, "/readyz", retries=0)
        assert status == 503 and readiness["draining"]
        status, health = client.request(url, "/healthz")
        assert status == 200 and health["ok"]  # alive, just not ready
        status, body = client.request(
            url, "/jobs", method="POST", payload=SPEC, retries=0
        )
        assert status == 503 and "draining" in body["error"]

    def test_backpressure_sends_retry_after_header(self, service):
        url, manager = service
        manager._stopping.set()  # freeze: submissions pile up as pending
        for thread in manager._threads:
            thread.join(timeout=5.0)
        manager.max_pending = 1
        client.submit_job(url, SPEC)
        req = urllib.request.Request(
            url + "/jobs", data=json.dumps(dict(SPEC, seeds=3)).encode(),
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req)
        assert info.value.code == 429
        assert int(info.value.headers["Retry-After"]) >= 1
        body = json.loads(info.value.read().decode("utf-8"))
        assert "pending queue is full" in body["error"]

    def test_chaos_job_serves_survival_matrix(self, service):
        url, _ = service
        spec = {"kind": "chaos", "target": "baseline", "seeds": 1,
                "jobs": 0, "backend": "inline", "duration": 20.0}
        state = wait_terminal(url, client.submit_job(url, spec)["job_id"],
                              timeout=120.0)
        assert state["state"] == "done"
        matrix = client.fetch_matrix(url, state["job_id"])
        assert isinstance(matrix, dict) and matrix
        # campaigns have no matrix
        campaign = wait_terminal(url, client.submit_job(url, SPEC)["job_id"])
        status, body = client.request(url, f"/jobs/{campaign['job_id']}/matrix")
        assert status == 409


def frozen(tmp_path, **kwargs):
    """A JobManager with exited workers, so submissions stay pending."""
    manager = JobManager(cache_dir=str(tmp_path), max_workers=1, **kwargs)
    manager._stopping.set()
    for thread in manager._threads:
        thread.join(timeout=5.0)
    return manager


class TestAdmissionControl:
    def test_pending_queue_depth_cap(self, tmp_path):
        manager = frozen(tmp_path, max_pending=2)
        manager.submit(SPEC)
        manager.submit(dict(SPEC, seeds=3))
        with pytest.raises(BackpressureError) as info:
            manager.submit(dict(SPEC, seeds=4))
        assert info.value.status == 429 and info.value.retry_after >= 1.0
        counters = manager.registry.snapshot()["counters"]
        assert counters["service.jobs_rejected"] == 1
        # an accepted job is never dropped: both queued jobs still exist
        assert len(manager.list()) == 2

    def test_per_client_inflight_cap(self, tmp_path):
        manager = frozen(tmp_path, max_inflight_per_client=1)
        manager.submit(SPEC, client="alice")
        with pytest.raises(BackpressureError, match="'alice'"):
            manager.submit(dict(SPEC, seeds=3), client="alice")
        # other clients are unaffected, and dedupe does not charge the cap
        manager.submit(dict(SPEC, seeds=4), client="bob")
        _, deduped = manager.submit(dict(SPEC, jobs=2), client="alice")
        assert deduped

    def test_draining_rejects_with_503(self, tmp_path):
        manager = frozen(tmp_path)
        manager.begin_drain()
        with pytest.raises(BackpressureError) as info:
            manager.submit(SPEC)
        assert info.value.status == 503


class TestGracefulDrain:
    def test_drain_finishes_running_and_keeps_pending_resumable(self, tmp_path):
        cache = str(tmp_path / "cache")
        manager = JobManager(cache_dir=cache, max_workers=1)
        job, _ = manager.submit(SPEC)
        deadline = time.monotonic() + 30
        while job.state == "pending" and time.monotonic() < deadline:
            time.sleep(0.005)  # wait until the job is genuinely in flight
        assert manager.drain(timeout=60.0)
        assert job.state == "done"  # in-flight work finished, not cancelled
        assert not manager.readiness()["ready"]
        manager.shutdown(cancel_running=False)

        # pending-at-drain jobs come back through --recover
        second = frozen(tmp_path / "cache")
        assert second.get(job.job_id).state == "done"

    def test_pending_job_survives_drain_for_recovery(self, tmp_path):
        cache = str(tmp_path / "cache")
        manager = frozen(cache)
        job, _ = manager.submit(SPEC)
        manager.begin_drain()
        assert manager.drain(timeout=10.0)
        manager.shutdown(cancel_running=False)

        second = JobManager(cache_dir=cache, max_workers=1)
        try:
            recovered = second.get(job.job_id)
            deadline = time.monotonic() + 60
            while not recovered.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert recovered.state == "done" and recovered.recoveries == 1
        finally:
            second.shutdown()

    def test_begin_drain_is_idempotent(self, tmp_path):
        manager = frozen(tmp_path)
        manager.begin_drain()
        manager.begin_drain()
        assert manager.registry.snapshot()["counters"]["service.drains"] == 1
