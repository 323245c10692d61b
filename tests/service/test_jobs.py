"""JobSpec/JobState: validation, digests, JSON round-trips, state machine."""

import pytest

from repro.errors import JobTransitionError, ServiceError
from repro.service.jobs import JOB_STATES, JobSpec, JobState


def spec_for(**kwargs):
    defaults = dict(kind="campaign", target="E9", seeds=4)
    defaults.update(kwargs)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ServiceError):
            spec_for(kind="nope")
        with pytest.raises(ServiceError):
            spec_for(target="")
        with pytest.raises(ServiceError):
            spec_for(seeds=0)
        with pytest.raises(ServiceError):
            spec_for(presets=[])

    def test_seed_list(self):
        assert spec_for(seeds=3, seed_base=10).seed_list() == [10, 11, 12]

    def test_digest_ignores_execution_fields(self):
        base = spec_for().config_digest()
        assert spec_for(backend="fork").config_digest() == base
        assert spec_for(jobs=8).config_digest() == base
        assert spec_for(timeout=5.0).config_digest() == base
        assert spec_for(max_attempts=9).config_digest() == base
        assert (
            spec_for(backend="queue", queue_dir="/q").config_digest() == base
        )

    def test_digest_tracks_result_fields(self):
        base = spec_for().config_digest()
        assert spec_for(seeds=5).config_digest() != base
        assert spec_for(target="E7").config_digest() != base
        assert spec_for(full=True).config_digest() != base
        assert spec_for(satin={"tp": 0.5}).config_digest() != base

    def test_chaos_digest_tracks_plan(self):
        chaos = spec_for(kind="chaos", target="figure4")
        assert (
            chaos.config_digest()
            != spec_for(kind="chaos", target="figure4", plan="storm").config_digest()
        )
        # campaign digests never collide with chaos digests on the same name
        assert chaos.config_digest() != spec_for(target="figure4").config_digest()

    def test_json_round_trip(self):
        spec = spec_for(presets=["juno_r1", "generic_octa"], satin={"tp": 1.0})
        clone = JobSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.config_digest() == spec.config_digest()

    def test_adaptive_validation(self):
        with pytest.raises(ServiceError, match="campaign-only"):
            spec_for(kind="chaos", target="figure4", adaptive=True, ci_width=1.0)
        with pytest.raises(ServiceError, match="ci_width"):
            spec_for(adaptive=True)
        with pytest.raises(ServiceError, match="ci_width"):
            spec_for(adaptive=True, ci_width=0.0)

    def test_digest_tracks_planner_fields_only_when_adaptive(self):
        """Planner knobs are result-determining for adaptive jobs (they
        change which seeds are consumed) but must leave non-adaptive
        digests untouched — two users asking for the same fixed grid
        still share a cache entry."""
        base = spec_for().config_digest()
        # non-adaptive: the knobs are inert and excluded
        assert spec_for(ci_width=5.0).config_digest() == base
        assert spec_for(min_seeds=3, round_size=9).config_digest() == base
        # adaptive: every knob moves the digest
        adaptive = spec_for(adaptive=True, ci_width=5.0).config_digest()
        assert adaptive != base
        assert spec_for(adaptive=True, ci_width=6.0).config_digest() != adaptive
        assert (
            spec_for(adaptive=True, ci_width=5.0, ci_quantity="gap").config_digest()
            != adaptive
        )
        assert (
            spec_for(adaptive=True, ci_width=5.0, min_seeds=2).config_digest()
            != adaptive
        )
        assert (
            spec_for(adaptive=True, ci_width=5.0, round_size=8).config_digest()
            != adaptive
        )

    def test_adaptive_spec_round_trips_and_reaches_run_spec(self, tmp_path):
        spec = spec_for(adaptive=True, ci_width=75.0, min_seeds=4, round_size=2)
        clone = JobSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.config_digest() == spec.config_digest()
        run = spec.to_run_spec(str(tmp_path))
        assert run.adaptive is True
        assert run.ci_width == 75.0
        assert run.min_seeds == 4 and run.round_size == 2

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown job spec field"):
            JobSpec.from_json({"kind": "campaign", "target": "E9", "nope": 1})

    def test_to_run_spec_resumes_from_cache(self, tmp_path):
        run = spec_for(seeds=2).to_run_spec(str(tmp_path))
        assert run.resume is True
        assert run.cache_dir == str(tmp_path)
        assert run.seeds == [0, 1]

    def test_to_run_spec_chaos(self, tmp_path):
        run = spec_for(kind="chaos", target="figure4", plan="smoke").to_run_spec(
            str(tmp_path)
        )
        assert run.scenario == "figure4"
        assert run.resume is True


class TestJobState:
    def test_happy_path(self):
        job = JobState(job_id="j1", spec=spec_for())
        assert job.state == "pending" and not job.terminal
        job.advance("running")
        assert job.started_unix is not None
        job.advance("done")
        assert job.terminal and job.finished_unix is not None

    def test_pending_can_cancel_or_fail(self):
        for target in ("cancelled", "failed"):
            job = JobState(job_id="j", spec=spec_for())
            job.advance(target)
            assert job.terminal

    def test_illegal_transitions_raise(self):
        job = JobState(job_id="j", spec=spec_for())
        with pytest.raises(JobTransitionError):
            job.advance("done")  # pending -> done skips running
        job.advance("running")
        with pytest.raises(JobTransitionError):
            job.advance("pending")
        job.advance("cancelled")
        for target in JOB_STATES:
            with pytest.raises((JobTransitionError, ServiceError)):
                job.advance(target)

    def test_unknown_state_rejected(self):
        job = JobState(job_id="j", spec=spec_for())
        with pytest.raises(ServiceError):
            job.advance("exploded")
        with pytest.raises(ServiceError):
            JobState(job_id="j", spec=spec_for(), state="exploded")

    def test_error_recorded_on_failure(self):
        job = JobState(job_id="j", spec=spec_for())
        job.advance("running")
        job.advance("failed", error="boom")
        assert job.error == "boom"

    def test_digest_defaults_from_spec(self):
        job = JobState(job_id="j", spec=spec_for())
        assert job.digest == spec_for().config_digest()

    def test_json_round_trip(self):
        job = JobState(job_id="j", spec=spec_for())
        job.advance("running")
        job.progress = {"total": 4, "done": 2}
        job.result = {"ran": 2}
        clone = JobState.from_json(job.to_json())
        assert clone.job_id == job.job_id
        assert clone.state == "running"
        assert clone.progress == {"total": 4, "done": 2}
        assert clone.result == {"ran": 2}
        assert clone.spec == job.spec
