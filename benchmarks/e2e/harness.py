"""Workloads, metrics and the output gate of the end-to-end benchmark.

Every workload is a closed loop driven from one process, using at most
two worker processes or threads (the reference host has two cores).
A workload runs in *phases*: set up, measure, tear down.  An untraced
run measures one phase; a traced run measures an untraced phase and
then, with the layer wrappers installed before any stack is built, a
traced phase of the same inputs — so the trace overhead and the output
digests of the two phases compare like for like.

Only repro's public API is used, and it is imported lazily so the
module itself imports nothing from ``src/``.
"""

from __future__ import annotations

import dataclasses
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from tracer import END, LAYER, SID, START, TRACE, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for caches and servers, inside the checkout.
RUNS_DIR = ROOT / ".bench_runs"
EXPECTED_DETERMINISM = ROOT / "benchmarks" / "perf" / "expected_determinism.json"

DEFAULT_SEED = 2019
#: Worker processes of the campaign workload (the host's core count).
WORKERS = 2
#: Fresh-process set-ups whose median is ``setup_s``.
SETUP_RUNS = 5
#: Warm ``resume=True`` passes after the cold campaign pass.
RESUME_PASSES = 25
#: Seeds per service job.
JOB_SEEDS = 4

clock = time.perf_counter


def load_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` merged with the benchmark-local ``spec.json``."""
    merged = dict(load_json(ROOT / "BENCHMARK.json"))
    merged.update(load_json(HERE / "spec.json"))
    return merged


def metric_units() -> Dict[str, Dict[str, Any]]:
    """name -> metric definition, for every metric the benchmark prints."""
    s = spec()
    return {m["name"]: m for m in s["end_to_end"] + s["extra_end_to_end"] + s["per_layer"]}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail_percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, refused with fewer than 10 samples beyond it."""
    beyond = len(values) * (100 - q) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{q} of {len(values)} samples has {beyond:g} beyond it; need at least 10"
        )
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def add_tail(extra: Dict[str, float], name: str, values: List[float], q: int) -> None:
    """Record ``name`` = p``q`` of ``values`` when enough samples lie beyond it."""
    try:
        extra[name] = tail_percentile(values, q)
    except ValueError:
        pass


def fold(digests: List[str]) -> str:
    """One sha256 over an ordered list of hex digests."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Measured phases
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Phase:
    """What one measured phase of a workload produced."""

    #: wall seconds of every measured operation, in order
    op_walls: List[float] = dataclasses.field(default_factory=list)
    #: per-trial host seconds (timed call, or the record's ``elapsed``)
    trial_s: List[float] = dataclasses.field(default_factory=list)
    events: int = 0
    sim_s: float = 0.0
    #: trials executed, and the wall those trials were measured over
    trials_run: int = 0
    rate_wall: float = 0.0
    attempted: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    #: (seed, table sha256) of every trial whose table the phase saw
    tables: List[List[Any]] = dataclasses.field(default_factory=list)
    #: digest of the first ``pinned_ops`` operations' outputs
    output_sha256: str = ""
    pinned_ops: int = 0
    #: peak RSS once the pinned operations are done: the same work on
    #: every run, where the whole run's peak would track its trial count
    peak_rss_mb: float = 0.0
    #: workload-specific end-to-end metrics
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: workload-specific inputs of the per-layer metrics
    layer_inputs: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: unit spans of a traced phase (trials, passes or jobs)
    units: List[list] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _trial_numbers(payload: Dict[str, Any]) -> tuple:
    metrics = payload.get("metrics") or {}
    events = int((metrics.get("counters") or {}).get("sim.events", 0))
    span = (metrics.get("histograms") or {}).get("sim.run_span_seconds") or {}
    return events, float(span.get("sum", 0.0))


@dataclasses.dataclass
class Context:
    """Set-up state a phase measures against."""

    seed: int
    objects: Dict[str, Any] = dataclasses.field(default_factory=dict)


class Workload:
    """One named input set: set-up, a measured phase, tear-down."""

    name = ""
    experiment = ""
    #: operations always measured, whatever ``--seconds`` says; the
    #: default-seed output digest is pinned over exactly these
    min_ops = 1
    #: the measured tables come straight from ``run_experiment_trial``;
    #: otherwise they passed through fork workers and the store, and the
    #: gate checks one against a direct run of its seed
    direct_tables = False

    def setup(self, seed: int) -> Context:
        warm_up_build(seed)
        return Context(seed)

    def measure(self, ctx: Context, seconds: float, tracer: Any) -> Phase:
        raise NotImplementedError

    def teardown(self, ctx: Context) -> None:
        """Release what :meth:`setup` made."""


def warm_up_build(seed: int) -> None:
    """The once-per-process cost: imports plus one full stack build."""
    from repro.campaign.trials import run_experiment_trial  # noqa: F401
    from repro.experiments.common import build_stack

    build_stack(seed=seed, with_satin=True, with_evader=True)


def _unit(tracer: Optional[Tracer], name: str):
    return tracer.span("unit", name, unit=True) if tracer else contextlib.nullcontext()


class TrialLoop(Workload):
    """Serial ``run_experiment_trial`` calls, seeds S, S+1, ..."""

    direct_tables = True
    #: tail percentile of ``trial_s`` to report, if any
    tail: Optional[int] = None

    def measure(self, ctx: Context, seconds: float, tracer: Any) -> Phase:
        from repro.campaign.trials import run_experiment_trial

        phase = Phase(pinned_ops=self.min_ops)
        started = clock()
        i = 0
        while i < self.min_ops or clock() - started < seconds:
            seed = ctx.seed + i
            phase.attempted += 1
            with _unit(tracer, "trial") as unit:
                t0 = clock()
                try:
                    payload = run_experiment_trial({"experiment_id": self.experiment, "seed": seed})
                except Exception as exc:  # a failed trial is counted, not fatal
                    payload = None
                    phase.fail(f"{self.experiment} seed {seed}: {exc!r}")
                host = clock() - t0
            if unit is not None:
                phase.units.append(unit)
            phase.op_walls.append(host)
            i += 1
            if i == self.min_ops:
                phase.peak_rss_mb = peak_rss_mb()
            if payload is None:
                continue
            events, sim_s = _trial_numbers(payload)
            phase.trial_s.append(host)
            phase.events += events
            phase.sim_s += sim_s
            phase.tables.append([seed, sha256_text(payload["rendered"])])
            if not payload["rendered"] or events <= 0:
                phase.fail(f"{self.experiment} seed {seed}: empty table or no events")
        phase.rate_wall = clock() - started
        phase.trials_run = len(phase.trial_s)
        phase.output_sha256 = fold([sha for _, sha in phase.tables[: self.min_ops]])
        phase.layer_inputs["units"] = len(phase.op_walls)
        if self.tail:
            add_tail(phase.extra, f"trial_s.p{self.tail}", phase.trial_s, self.tail)
        return phase


class E1Trial(TrialLoop):
    name = "e1_trial"
    experiment = "E1"
    #: p95 of 200 trials keeps 10 samples beyond it
    min_ops = 200
    tail = 95


class E9Trial(TrialLoop):
    name = "e9_trial"
    experiment = "E9"
    min_ops = 4


def campaign_seeds(seconds: float) -> int:
    """Cold-pass size: about 0.8 trials per measured second at 2 workers."""
    return max(WORKERS, WORKERS * round(seconds * 0.4))


def scratch_dir(prefix: str) -> str:
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{prefix}-", dir=RUNS_DIR)


def stored_tables(cache: str, job_spec: Dict[str, Any]) -> List[List[Any]]:
    """(seed, table sha256) of every trial of ``job_spec`` in the store at ``cache``."""
    from repro.campaign.store import ResultStore
    from repro.service.jobs import JobSpec

    run_spec = JobSpec.from_json(job_spec).to_run_spec(cache)
    store = ResultStore(cache, run_spec.campaign_id())
    tables = []
    for task in run_spec.trial_tasks():
        record = store.ok_record(task["key"])
        if record is not None:
            tables.append([task["seed"], sha256_text(record["payload"]["rendered"])])
    return tables


class CampaignE9(Workload):
    """A cold E9 campaign at ``jobs=2`` plus warm ``resume=True`` passes."""

    name = "campaign_e9"
    experiment = "E9"

    def measure(self, ctx: Context, seconds: float, tracer: Any) -> Phase:
        from repro.campaign.runner import CampaignSpec, run_campaign
        from repro.obs.manifest import load_manifest, manifest_fingerprint

        k = campaign_seeds(seconds)
        phase = Phase(pinned_ops=k)
        cache = scratch_dir("campaign")
        try:
            spec_ = CampaignSpec(
                experiment_id="E9", seeds=list(range(ctx.seed, ctx.seed + k)),
                jobs=WORKERS, cache_dir=cache,
            )
            phase.attempted += k
            with _unit(tracer, "campaign.pass") as unit:
                t0 = clock()
                result = run_campaign(spec_, progress=False)
                cold = clock() - t0
            if unit is not None:
                phase.units.append(unit)
            phase.op_walls.append(cold)
            fingerprint = manifest_fingerprint(load_manifest(result.manifest_path))
            for item in result.quarantined:
                phase.fail(f"E9 seed {item['seed']} quarantined: {item['status']}")
            if result.ran != k:
                phase.fail(f"cold pass ran {result.ran} of {k} trials")
            for record in result.records:
                events, sim_s = _trial_numbers(record["payload"])
                phase.trial_s.append(record["elapsed"])
                phase.events += events
                phase.sim_s += sim_s
                phase.tables.append([record["seed"], sha256_text(record["payload"]["rendered"])])
            phase.trials_run = len(result.records)
            phase.rate_wall = cold
            phase.output_sha256 = sha256_text(fingerprint)

            resume = dataclasses.replace(spec_, resume=True)
            walls = []
            for _ in range(RESUME_PASSES):
                phase.attempted += 1
                with _unit(tracer, "campaign.pass") as unit:
                    t0 = clock()
                    again = run_campaign(resume, progress=False)
                    walls.append(clock() - t0)
                if unit is not None:
                    phase.units.append(unit)
                if again.ran or again.cached != k or again.quarantined:
                    phase.fail(f"resume pass ran {again.ran}, cached {again.cached} of {k}")
                elif manifest_fingerprint(load_manifest(again.manifest_path)) != fingerprint:
                    phase.fail("resume pass changed the manifest fingerprint")
            phase.op_walls += walls
            phase.peak_rss_mb = peak_rss_mb()
            phase.extra["resume_s"] = statistics.median(walls)
            elapsed = sum(phase.trial_s)
            phase.layer_inputs.update(
                units=k,
                parallel_efficiency=elapsed / (WORKERS * cold),
                gap_s=(cold - elapsed / WORKERS) / k,
            )
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return phase


class ServiceMix(Workload):
    """One client thread against an in-process ``repro serve``.

    Iteration ``i`` submits a new E1 job (seeds ``S+4i ..``), then
    resubmits iteration ``i-1``'s spec, which is a pure cache hit.  The
    half-new, half-resubmitted mix is synthetic: nothing records how the
    service is used.  The client waits at the shipped client's poll
    interval, so a job is timed from the server's own record (created to
    finished) plus the manifest fetch, not from when a poll saw it end.
    """

    name = "service_mix"
    experiment = "E1"
    #: fits the default 20-second run even when the host is slow; p80 of
    #: the job times needs 50 samples, so only longer runs report it
    min_ops = 16

    def setup(self, seed: int) -> Context:
        from repro.service.client import request
        from repro.service.server import make_server

        cache = scratch_dir("service")
        server, manager = make_server(port=0, max_workers=1, cache_dir=cache)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        deadline = time.monotonic() + 30.0
        while request(url, "/healthz", retries=0)[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.005)
        return Context(seed, {"server": server, "manager": manager, "thread": thread,
                              "url": url, "cache": cache})

    def teardown(self, ctx: Context) -> None:
        objects = ctx.objects
        objects["server"].shutdown()
        objects["server"].server_close()
        objects["manager"].shutdown()
        objects["thread"].join(timeout=10.0)
        shutil.rmtree(objects["cache"], ignore_errors=True)

    def measure(self, ctx: Context, seconds: float, tracer: Any) -> Phase:
        from repro.errors import ServiceError
        from repro.service.client import fetch_manifest, submit_job, wait_for_job

        url = ctx.objects["url"]
        phase = Phase(pinned_ops=self.min_ops)
        cold_s: List[float] = []
        cached_s: List[float] = []
        fingerprints: List[str] = []
        queue_wait: List[float] = []
        run_s: List[float] = []
        trial_elapsed = 0.0
        # traced: the client's poll sleeps are a span of their own, so
        # they count as attributed time of the job
        sleep = tracer.coarse(time.sleep, "client", "poll_wait") if tracer else time.sleep

        def spec_of(i: int) -> Dict[str, Any]:
            return {"kind": "campaign", "target": "E1", "seeds": JOB_SEEDS,
                    "seed_base": ctx.seed + JOB_SEEDS * i}

        def job(spec_: Dict[str, Any]) -> Optional[tuple]:
            phase.attempted += 1
            with _unit(tracer, "job") as unit:
                try:
                    state = submit_job(url, spec_)
                    final = wait_for_job(url, state["job_id"], timeout=120.0, sleep=sleep)
                    t0 = clock()
                    manifest = fetch_manifest(url, state["job_id"])
                    fetch = clock() - t0
                except ServiceError as exc:
                    phase.fail(f"job {spec_['seed_base']}: {exc}")
                    return None
            if unit is not None:
                phase.units.append(unit)
            if final.get("state") != "done":
                phase.fail(f"job {final.get('job_id')} ended {final.get('state')}")
                return None
            wall = final["finished_unix"] - final["created_unix"] + fetch
            phase.op_walls.append(wall)
            queue_wait.append(final["started_unix"] - final["created_unix"])
            run_s.append(final["finished_unix"] - final["started_unix"])
            return wall, final["result"], manifest

        started = clock()
        i = 0
        while i < self.min_ops or clock() - started < seconds:
            spec_ = spec_of(i)
            done = job(spec_)
            fingerprints.append(done[1].get("fingerprint_sha256", "") if done else "")
            if done:
                wall, summary, manifest = done
                cold_s.append(wall)
                if summary.get("ran") != JOB_SEEDS or summary.get("quarantined"):
                    phase.fail(f"cold job {i} ran {summary.get('ran')} of {JOB_SEEDS}")
                events, sim_s = _trial_numbers(manifest)
                phase.events += events
                phase.sim_s += sim_s
                for trial in manifest.get("trials", []):
                    phase.trial_s.append(trial["elapsed"])
                    trial_elapsed += trial["elapsed"]
            if i > 0:
                again = job(spec_of(i - 1))
                if again:
                    wall, summary, _ = again
                    cached_s.append(wall)
                    if not summary.get("pure_cache_hit"):
                        phase.fail(f"resubmitted job {i - 1} was not a pure cache hit")
                    if summary.get("fingerprint_sha256") != fingerprints[i - 1]:
                        phase.fail(f"resubmitted job {i - 1} changed its fingerprint")
            i += 1
            if i == self.min_ops:
                phase.peak_rss_mb = peak_rss_mb()
        phase.rate_wall = clock() - started
        phase.trials_run = len(phase.trial_s)
        phase.tables = stored_tables(ctx.objects["cache"], dict(spec_of(0), seeds=JOB_SEEDS * i))
        phase.output_sha256 = fold(fingerprints[: self.min_ops])
        phase.extra["job_s.cold.p50"] = statistics.median(cold_s)
        add_tail(phase.extra, "job_s.cold.p80", cold_s, 80)
        phase.extra["job_s.cached.p50"] = statistics.median(cached_s)
        add_tail(phase.extra, "job_s.cached.p80", cached_s, 80)
        phase.layer_inputs.update(
            units=len(phase.op_walls),
            parallel_efficiency=trial_elapsed / sum(cold_s),
            gap_s=(sum(cold_s) - trial_elapsed) / len(phase.op_walls),
            queue_wait_p50=statistics.median(queue_wait),
            run_p50=statistics.median(run_s),
        )
        return phase


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (E1Trial(), E9Trial(), CampaignE9(), ServiceMix())
}


# ----------------------------------------------------------------------
# Output gate
# ----------------------------------------------------------------------


def golden_table_sha256(experiment: str, path: Path = EXPECTED_DETERMINISM) -> str:
    """The pinned seed-2019 table digest of ``experiment`` (E1 or E9)."""
    return load_json(path)[f"{experiment.lower()}_table_sha256"]


def table_sha256(experiment: str, seed: int) -> str:
    from repro.campaign.trials import run_experiment_trial

    payload = run_experiment_trial({"experiment_id": experiment, "seed": seed})
    return sha256_text(payload["rendered"])


def gate(
    workload: Workload,
    seed: int,
    phases: List[Phase],
    pinned: Dict[str, Any],
    expected_path: Path = EXPECTED_DETERMINISM,
) -> List[str]:
    """Every output mismatch of a run, as one message each.

    * the seed-2019 table of the workload's experiment must match
      ``benchmarks/perf/expected_determinism.json``: the measured table
      when the run measured seed 2019, else a direct run;
    * a workload whose tables passed through fork workers and the store
      (campaign, service) and did not measure seed 2019 must reproduce
      its first measured table by a direct run of that seed;
    * at the default seed, the output digest must match the pin;
    * a traced phase must reproduce the untraced phase's digest.
    """
    first = phases[0]
    if not first.tables:
        return ["no trial table was measured"]
    problems: List[str] = []
    experiment = workload.experiment
    want = golden_table_sha256(experiment, expected_path)
    seen = {s: sha for s, sha in first.tables}
    got = seen.get(DEFAULT_SEED) or table_sha256(experiment, DEFAULT_SEED)
    if got != want:
        problems.append(f"{experiment} seed {DEFAULT_SEED} table sha256 {got} != pinned {want}")
    if DEFAULT_SEED not in seen and not workload.direct_tables:
        first_seed, measured = first.tables[0]
        direct = table_sha256(experiment, first_seed)
        if measured != direct:
            problems.append(
                f"{experiment} seed {first_seed} measured table sha256 {measured} != direct run {direct}"
            )
    pin = pinned.get(workload.name)
    if seed == DEFAULT_SEED and pin and pin["ops"] == first.pinned_ops:
        if first.output_sha256 != pin["output_sha256"]:
            problems.append(
                f"output_sha256 {first.output_sha256} != pinned {pin['output_sha256']}"
            )
    for traced in phases[1:]:
        if traced.output_sha256 != first.output_sha256:
            problems.append(
                f"traced output_sha256 {traced.output_sha256} != untraced {first.output_sha256}"
            )
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    host = sum(phase.trial_s)
    metrics = {
        "setup_s": setup_s,
        "trial_s.p25": statistics.quantiles(phase.trial_s, n=4, method="inclusive")[0],
        "trial_s.p50": statistics.median(phase.trial_s),
        "trials_per_s": phase.trials_run / phase.rate_wall,
        "sim_events_per_s": phase.events / host,
        "sim_s_per_host_s": phase.sim_s / host,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    metrics.update(phase.extra)
    return metrics


def _digest_cache_stats() -> Dict[str, int]:
    """Trusted-boot digest cache counters of this process (not imported: 0)."""
    boot = sys.modules.get("repro.secure.boot")
    return dict(boot.DIGEST_CACHE_STATS) if boot else {"hits": 0, "misses": 0}


def per_layer(tracer: Tracer, untraced: Phase, traced: Phase) -> Dict[str, float]:
    """The per-layer metrics of a traced phase, per unit of work.

    A unit is a trial (``e1_trial``, ``e9_trial``; the cold pass's
    trials for ``campaign_e9``) or a job (``service_mix``).
    """
    table = tracer.layer_table(traced.units)
    inputs = traced.layer_inputs
    units = inputs["units"]

    def pick(layer: str, field: str, *names: str) -> float:
        rows = table.get(layer, {})
        return sum(row[field] for name, row in rows.items() if not names or name in names)

    def per(value: float) -> float:
        return value / units

    unit_ids = {unit[SID] for unit in traced.units}
    http = [s[END] - s[START] for s in tracer.spans() if s[LAYER] == "http" and s[TRACE] in unit_ids]
    events = traced.events
    draws = pick("rng", "calls")
    hash_self = pick("hash", "self_s")
    m = min(len(traced.op_walls), len(untraced.op_walls))
    return {
        "build.calls": per(pick("build", "calls")),
        "build.self_s": per(pick("build", "self_s")),
        "boot.digest_s": per(pick("boot", "total_s")),
        "boot.cache_hits": per(inputs["cache_hits"]),
        "boot.cache_misses": per(inputs["cache_misses"]),
        "sim.events": per(events),
        "sim.run.self_s": per(pick("sim", "self_s", "run")),
        "sim.schedule.calls": per(pick("sim", "calls", "schedule")),
        "sim.schedule.self_s": per(pick("sim", "self_s", "schedule")),
        "sim.ns_per_event": pick("sim", "self_s", "run") / events * 1e9 if events else 0.0,
        "sched.calls": per(pick("sched", "calls")),
        "sched.self_s": per(pick("sched", "self_s")),
        "prober.calls": per(pick("prober", "calls")),
        "prober.self_s": per(pick("prober", "self_s")),
        "evader.self_s": per(pick("evader", "self_s")),
        "rng.draws": per(draws),
        "rng.self_s": per(pick("rng", "self_s")),
        "rng.ns_per_draw": pick("rng", "self_s") / draws * 1e9 if draws else 0.0,
        "hash.calls": per(pick("hash", "calls", "update")),
        "hash.bytes": per(pick("hash", "bytes")),
        "hash.self_s": per(hash_self),
        "hash.mb_per_s": pick("hash", "bytes") / hash_self / 1e6 if hash_self else 0.0,
        "telemetry.calls": per(pick("telemetry", "calls")),
        "telemetry.self_s": per(pick("telemetry", "self_s")),
        "store.put.calls": per(pick("store", "calls", "put")),
        "store.put_s": per(pick("store", "self_s", "put")),
        "store.index_s": per(pick("store", "self_s", "index")),
        "store.read_s": per(pick("store", "self_s", "read")),
        "executor.submit_s": per(pick("executor", "self_s", "submit")),
        "executor.poll_s": per(pick("executor", "self_s", "poll")),
        "executor.parallel_efficiency": inputs.get("parallel_efficiency", 0.0),
        "executor.gap_s": inputs.get("gap_s", 0.0),
        "manifest.build_s": per(pick("manifest", "self_s", "build")),
        "manifest.write_s": per(pick("manifest", "self_s", "write")),
        "journal.appends": per(pick("journal", "calls", "append")),
        "journal.append_s": per(pick("journal", "self_s", "append")),
        "journal.compactions": per(pick("journal", "calls", "compact")),
        "http.requests": per(len(http)),
        "http.server_s.p50": statistics.median(http) if http else 0.0,
        "service.queue_wait_s.p50": inputs.get("queue_wait_p50", 0.0),
        "service.run_s.p50": inputs.get("run_p50", 0.0),
        "trace.overhead": sum(traced.op_walls[:m]) / sum(untraced.op_walls[:m]) if m else 0.0,
        "trace.unattributed_share": tracer.unattributed_share(traced.units),
    }


# ----------------------------------------------------------------------
# Set-up time, measured in fresh processes
# ----------------------------------------------------------------------


def setup_probe(name: str, seed: int, started: float) -> float:
    """Set workload ``name`` up in this fresh process; seconds since ``started``.

    ``started`` is taken before anything from ``src/`` is imported, so
    imports are part of the measured set-up; tear-down is not.
    """
    workload = WORKLOADS[name]
    ctx = workload.setup(seed)
    elapsed = clock() - started
    workload.teardown(ctx)
    return elapsed


def measure_setup(name: str, seed: int, runs: int = SETUP_RUNS) -> List[float]:
    """Seconds of ``runs`` fresh-process set-ups of workload ``name``."""
    samples = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    trace_json: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure ``workload`` once; returns the detail record of the run.

    With ``trace``, ``trace_json`` names a file for the spans as Chrome
    trace-event JSON.
    """
    setup_samples = [] if trace else measure_setup(workload.name, seed)
    phases: List[Phase] = []
    tracer = None

    def phase(with_tracer: Optional[Tracer]) -> Phase:
        ctx = workload.setup(seed)
        try:
            before = _digest_cache_stats()
            measured = workload.measure(ctx, seconds, with_tracer)
            after = _digest_cache_stats()
            for key in ("hits", "misses"):
                measured.layer_inputs[f"cache_{key}"] = after[key] - before[key]
            return measured
        finally:
            workload.teardown(ctx)

    phases.append(phase(None))
    if trace:
        tracer = Tracer().install()
        try:
            phases.append(phase(tracer))
        finally:
            tracer.uninstall()

    problems = gate(workload, seed, phases, spec()["pinned"])
    failed = sum(len(p.failures) for p in phases) + len(problems)
    attempted = sum(p.attempted for p in phases)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems + [f for p in phases for f in p.failures],
        "output_sha256": phases[0].output_sha256,
        "tables": phases[0].tables,
        "op_walls": [p.op_walls for p in phases],
        "trial_s": [p.trial_s for p in phases],
        "setup_samples": setup_samples,
    }
    if trace:
        record["per_layer"] = per_layer(tracer, phases[0], phases[1])
        record["layers"] = tracer.layer_table(phases[1].units)
        if trace_json:
            Path(trace_json).write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    else:
        record["metrics"] = end_to_end(phases[0], statistics.median(setup_samples))
        record["metrics"]["fail_ratio"] = failed / attempted
    return record
