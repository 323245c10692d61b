"""Performance benchmarks behind ``python -m repro bench``.

Two kinds of numbers come out of a bench run:

* **wall-clock measurements** — events/sec on the event-engine microbench
  (against a bundled seed-style reference engine), schedule_batch vs
  one-at-a-time scheduling, fused vs per-chunk scan wall time, and
  end-to-end trial wall times.  These vary by host and are *reported,
  never asserted*.
* **deterministic invariants** — events-fired counts, introspection
  rounds-per-pass, fired ``(time, seq)`` sequence checksums, and table
  digests.  These are pure functions of the code and the seeds, so CI can
  fail hard on any drift (``repro bench --check FILE``) without being
  flaky.

The JSON written by ``--out`` starts the ``BENCH_*.json`` trajectory: one
file per optimisation PR, so speedups stay documented and regressions have
a baseline to be measured against.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Bumped whenever the bench suite itself changes shape (new sections,
#: changed workloads).  ``--check`` fails on a pinned file carrying a
#: different version, so a stale baseline reads as an explicit error
#: instead of a silent key-by-key pass.
BENCH_VERSION = 9

# ----------------------------------------------------------------------
# Seed-style reference engine (the pre-overhaul design, kept verbatim in
# spirit: Event objects *in* the heap, Python __lt__ per sift, separate
# peek+pop per fired event).  The microbench ratio and the (time, seq)
# equivalence check both run against this.
# ----------------------------------------------------------------------


class _RefEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time, seq, callback, args=()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _RefQueue:
    def __init__(self):
        self._heap: List[_RefEvent] = []
        self._counter = itertools.count()

    def push(self, time, callback, args=()):
        event = _RefEvent(time, next(self._counter), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def pop(self):
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self):
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None


class ReferenceSimulator:
    """Minimal seed-style simulator: peek, then pop, one event at a time."""

    def __init__(self):
        self.now = 0.0
        self._queue = _RefQueue()
        self.events_fired = 0

    def schedule(self, delay, callback, *args):
        return self._queue.push(self.now + delay, callback, args)

    def run(self, until=None, max_events=None):
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            next_time = self._queue.peek_time()
            if next_time is None or (until is not None and next_time > until):
                break
            event = self._queue.pop()
            self.now = event.time
            event.fired = True
            fired += 1
            self.events_fired += 1
            event.callback(*event.args)
        if until is not None and self.now < until:
            self.now = until


# ----------------------------------------------------------------------
# Deterministic synthetic workload (shared by speed and equivalence runs)
# ----------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _timer_wheel_workload(sim, n_events: int, fanout: int = 4, on_fire=None) -> None:
    """Self-rescheduling callbacks with LCG-derived delays, plus cancels.

    Mirrors the real event mix: mostly rescheduling timers, a fraction of
    scheduled-then-cancelled events (preempted quanta, rearmed timers).
    ``on_fire(now)`` is invoked at every firing, for sequence tracing.
    """
    state = {"lcg": 12345, "fired": 0, "budget": n_events}
    pending_cancel: List[Any] = []

    def next_delay() -> float:
        state["lcg"] = (state["lcg"] * _LCG_MULT + _LCG_INC) & _MASK64
        return ((state["lcg"] >> 16) % 10_000 + 1) * 1e-7

    def tick() -> None:
        if on_fire is not None:
            on_fire(sim.now)
        state["fired"] += 1
        if state["fired"] >= state["budget"]:
            return
        sim.schedule(next_delay(), tick)
        # every 8th firing schedules a victim and cancels an older one
        if state["fired"] % 8 == 0:
            pending_cancel.append(sim.schedule(next_delay() * 3, tick))
            if len(pending_cancel) > 2:
                pending_cancel.pop(0).cancel()

    for _ in range(fanout):
        sim.schedule(next_delay(), tick)
    sim.run(max_events=n_events)


#: Precomputed pseudo-random delays for the engine microbench, so the
#: callback under test does near-zero work and the measurement isolates
#: the engine itself (heap, event allocation, run loop).
_DELAY_TABLE_LEN = 1 << 12


def _delay_table() -> List[float]:
    lcg = 99991
    delays = []
    for _ in range(_DELAY_TABLE_LEN):
        lcg = (lcg * _LCG_MULT + _LCG_INC) & _MASK64
        delays.append(((lcg >> 16) % 10_000 + 1) * 1e-7)
    return delays


def _lean_timer_workload(sim, n_events: int, fanout: int = 4) -> None:
    """Minimal-callback timer wheel: all cost is engine cost.

    Every 8th firing also schedules a victim event and cancels an older
    one, so lazy deletion stays on the measured path.
    """
    delays = _delay_table()
    mask = _DELAY_TABLE_LEN - 1
    state = {"i": 0}
    pending_cancel: List[Any] = []

    def tick() -> None:
        i = state["i"] = state["i"] + 1
        sim.schedule(delays[i & mask], tick)
        if not i & 7:
            pending_cancel.append(sim.schedule(delays[(i + 1) & mask] * 3, tick))
            if len(pending_cancel) > 2:
                pending_cancel.pop(0).cancel()

    for j in range(fanout):
        sim.schedule(delays[j], tick)
    sim.run(max_events=n_events)


#: chunk count of one synthetic scan pass in the scan-mix workload; matches
#: a 256 KiB area at the default 4 KiB chunk size.
_CHUNKS_PER_SCAN = 64


def _scan_mix_workload(sim, n_events: int, scanners: int = 4, fused: bool = False) -> None:
    """Concurrent scanners, each forever re-running a 64-chunk pass.

    This is the event population the real simulator spends its time on:
    per-chunk ``cpu()`` completions vastly outnumber timers in every
    E-suite trial.  The reference engine must pay one heap round-trip per
    chunk; the overhauled engine schedules one :class:`SpanEvent` per pass
    (``fused=True``) and charges the 64 chunks through span accounting —
    both fire exactly ``n_events`` *logical* events.
    """
    delays = _delay_table()
    mask = _DELAY_TABLE_LEN - 1
    cursors = list(range(0, scanners * 1024, 1024))

    if fused:
        def rearm(s: int) -> None:
            i = cursors[s]
            cursors[s] = i + _CHUNKS_PER_SCAN
            t = sim.now
            times = []
            append = times.append
            for k in range(_CHUNKS_PER_SCAN):
                t = t + delays[(i + k) & mask]
                append(t)
            sim.schedule_span(times, rearm, s)

        for s in range(scanners):
            rearm(s)
    else:
        def chunk(s: int) -> None:
            i = cursors[s]
            cursors[s] = i + 1
            sim.schedule(delays[i & mask], chunk, s)

        for s in range(scanners):
            chunk(s)
    sim.run(max_events=n_events)


def bench_event_engine(n_events: int = 300_000) -> Dict[str, Any]:
    """Events/sec through the optimized engine vs the seed-style reference.

    The headline number is the scan-mix workload (the simulator's dominant
    event population, where the fused engine schedules one span per pass);
    the timer-wheel number isolates the bare tuple-heap/run-loop win on a
    workload with no coalescible structure.
    """
    from repro.sim.simulator import Simulator

    def timed(workload, engine, **kwargs) -> float:
        gc.collect()
        started = time.perf_counter()
        workload(engine, n_events, **kwargs)
        return time.perf_counter() - started

    scan_wall = timed(_scan_mix_workload, Simulator(), fused=True)
    scan_ref_wall = timed(_scan_mix_workload, ReferenceSimulator())
    timer_wall = timed(_lean_timer_workload, Simulator())
    timer_ref_wall = timed(_lean_timer_workload, ReferenceSimulator())

    return {
        "n_events": n_events,
        "events_per_sec": round(n_events / scan_wall),
        "reference_events_per_sec": round(n_events / scan_ref_wall),
        "speedup": round(scan_ref_wall / scan_wall, 2),
        "timer_wheel": {
            "events_per_sec": round(n_events / timer_wall),
            "reference_events_per_sec": round(n_events / timer_ref_wall),
            "speedup": round(timer_ref_wall / timer_wall, 2),
        },
    }


def bench_schedule_batch(n_events: int = 200_000) -> Dict[str, Any]:
    """Push throughput: one-at-a-time schedule() vs schedule_batch()."""
    from repro.sim.simulator import Simulator

    sim = Simulator()
    gc.collect()
    started = time.perf_counter()
    for i in range(n_events):
        sim.schedule(1e-6 * (i % 977), _noop)
    loop_wall = time.perf_counter() - started

    sim = Simulator()
    items = [(1e-6 * (i % 977), _noop, ()) for i in range(n_events)]
    gc.collect()
    started = time.perf_counter()
    sim.schedule_batch(items)
    batch_wall = time.perf_counter() - started

    return {
        "n_events": n_events,
        "schedule_per_sec": round(n_events / loop_wall),
        "schedule_batch_per_sec": round(n_events / batch_wall),
        "speedup": round(loop_wall / batch_wall, 2),
    }


def _noop() -> None:
    return None


def engine_equivalence(n_events: int = 30_000) -> Dict[str, Any]:
    """Fire the synthetic workload on both engines; checksum (time, seq).

    The sequences must be identical: the optimized engine re-implements the
    calendar queue, it does not re-define its order.
    """
    from repro.sim.simulator import Simulator

    def traced(sim_cls) -> str:
        sim = sim_cls()
        trace = hashlib.sha256()
        count = [0]

        def on_fire(now: float) -> None:
            # float.hex() is exact: any bit-level divergence changes the digest.
            count[0] += 1
            trace.update(now.hex().encode())
            trace.update(b"|")

        _timer_wheel_workload(sim, n_events, on_fire=on_fire)
        trace.update(str(count[0]).encode())
        return trace.hexdigest()

    return {
        "n_events": n_events,
        "optimized_checksum": traced(Simulator),
        "reference_checksum": traced(ReferenceSimulator),
    }


def bench_scan_coalescing(seed: int = 2019, passes: int = 2) -> Dict[str, Any]:
    """Fused vs per-chunk SATIN rounds on identical uncontended stacks.

    Asserts the timeline is bit-identical (round end times, digests,
    weighted events fired) and reports the wall-clock difference.
    """
    from repro.experiments.common import build_stack

    def run_rounds(coalesce: bool):
        stack = build_stack(seed=seed, with_satin=True)
        satin = stack.satin
        satin.checker.coalesce_scans = coalesce
        target = passes * len(satin.areas)
        started = time.perf_counter()
        guard = 0
        while satin.checker.round_count < target and guard < target * 50:
            stack.machine.run_for(satin.policy.tp)
            guard += 1
        wall = time.perf_counter() - started
        results = satin.checker.results[:target]
        return {
            "wall": wall,
            "rounds": satin.checker.round_count,
            "events_fired": stack.machine.sim.events_fired,
            "events_scheduled": stack.machine.sim._queue._seq,
            "signature": hashlib.sha256(
                "".join(
                    f"{r.area_index}:{r.start_time.hex()}:{r.end_time.hex()}:{r.digest}"
                    for r in results
                ).encode()
            ).hexdigest(),
        }

    fused = run_rounds(True)
    chunked = run_rounds(False)
    return {
        "seed": seed,
        "passes": passes,
        "fused_wall_seconds": round(fused["wall"], 4),
        "chunked_wall_seconds": round(chunked["wall"], 4),
        "speedup": round(chunked["wall"] / fused["wall"], 2) if fused["wall"] else None,
        "rounds": fused["rounds"],
        "events_fired": fused["events_fired"],
        "events_fired_chunked": chunked["events_fired"],
        "events_scheduled": fused["events_scheduled"],
        "events_scheduled_chunked": chunked["events_scheduled"],
        "timeline_identical": fused["signature"] == chunked["signature"],
        "timeline_signature": fused["signature"],
    }


def bench_trials() -> Dict[str, Any]:
    """End-to-end fast-trial wall times for a cheap and an expensive trial."""
    from repro.experiments.report import run_experiment

    out: Dict[str, Any] = {}
    for experiment_id in ("E1", "E9"):
        started = time.perf_counter()
        result = run_experiment(experiment_id, seed=2019)
        out[experiment_id] = {
            "wall_seconds": round(time.perf_counter() - started, 3),
            "table_sha256": hashlib.sha256(result.rendered.encode()).hexdigest(),
        }
    return out


def bench_batch_kernels(
    rows: int = 64, large: int = 262144, small: int = 2048
) -> Dict[str, Any]:
    """Batched djb2 strategies across the break-even: matmul vs scalar.

    BENCH_7 recorded the one-matmul-per-chunk kernel at 0.22x on 256 KiB
    rows — the uint8->uint64 widening copy swamps the matmul once rows
    fall out of cache.  ``batch_djb2`` now routes through
    :func:`repro.sim.batch.batch_hash_strategy`; this bench times both
    kernels on one shape each side of the threshold, records which side
    the auto heuristic picked (and whether that fell back to scalar), and
    asserts the digests are bit-identical regardless of strategy.  The
    headline ``digests_identical`` covers every strategy on every shape.
    """
    import numpy as np

    from repro.secure.hashes import djb2
    from repro.sim.batch import (
        BATCH_HASH_MATMUL_MAX_BYTES,
        batch_djb2,
        batch_hash_strategy,
    )

    rng = np.random.RandomState(2019)
    cases: Dict[str, Any] = {}
    all_identical = True
    for name, size in (("large", large), ("small", small)):
        matrix = rng.randint(0, 256, size=(rows, size), dtype=np.uint8)
        walls: Dict[str, float] = {}
        digests: Dict[str, List[int]] = {}
        for strategy in ("matmul", "scalar"):
            gc.collect()
            started = time.perf_counter()
            digests[strategy] = [int(x) for x in batch_djb2(matrix, strategy=strategy)]
            walls[strategy] = time.perf_counter() - started
        reference = [djb2(matrix[i].tobytes()) for i in range(rows)]
        identical = digests["matmul"] == digests["scalar"] == reference
        all_identical = all_identical and identical
        chosen = batch_hash_strategy(rows, size)
        auto_wall = walls[chosen]
        cases[name] = {
            "bytes_per_row": size,
            "matmul_wall_seconds": round(walls["matmul"], 4),
            "scalar_wall_seconds": round(walls["scalar"], 4),
            "auto_strategy": chosen,
            "fell_back": chosen == "scalar",
            # >= 1.0 means auto picked the right side of the break-even.
            "speedup": (
                round(walls["scalar"] / auto_wall, 2) if auto_wall else None
            ),
            "digests_identical": identical,
        }
    return {
        "rows": rows,
        "break_even_bytes": BATCH_HASH_MATMUL_MAX_BYTES,
        "cases": cases,
        "digests_identical": all_identical,
    }


def bench_batch_campaign(
    seeds_count: int = 64, experiment_id: str = "E9"
) -> Dict[str, Any]:
    """Scalar vs ``--batch`` campaign over one experiment, inline backend.

    Both runs use fresh cache directories; the manifest fingerprints must
    be byte-identical (batching is bit-exact by construction), and the
    wall-clock ratio is reported as measured — never asserted.
    """
    import shutil
    import tempfile

    from repro.campaign.runner import CampaignSpec, run_campaign
    from repro.obs.manifest import load_manifest, manifest_fingerprint

    seeds = list(range(2019, 2019 + seeds_count))
    out: Dict[str, Any] = {"experiment_id": experiment_id, "seeds": seeds_count}
    fingerprints: Dict[str, str] = {}
    for label, batch in (("scalar", False), ("batch", True)):
        cache = tempfile.mkdtemp(prefix=f"repro-bench-{label}-")
        try:
            spec = CampaignSpec(
                experiment_id=experiment_id,
                seeds=seeds,
                jobs=0,
                cache_dir=cache,
                batch=batch,
            )
            gc.collect()
            started = time.perf_counter()
            result = run_campaign(spec, progress=False)
            wall = time.perf_counter() - started
            manifest = load_manifest(result.manifest_path)
            fingerprints[label] = manifest_fingerprint(manifest)
            entry: Dict[str, Any] = {
                "wall_seconds": round(wall, 3),
                "quarantined": len(result.quarantined),
            }
            if batch:
                entry["dispatch"] = manifest.get("batch")
            out[label] = entry
        finally:
            shutil.rmtree(cache, ignore_errors=True)
    batch_wall = out["batch"]["wall_seconds"]
    out["speedup"] = (
        round(out["scalar"]["wall_seconds"] / batch_wall, 2) if batch_wall else None
    )
    out["fingerprint_identical"] = fingerprints["scalar"] == fingerprints["batch"]
    out["fingerprint_sha256"] = hashlib.sha256(
        fingerprints["scalar"].encode()
    ).hexdigest()
    return out


def bench_planner(
    seeds_count: int = 64,
    ci_width: float = 75.0,
    experiment_id: str = "E9",
    min_seeds: int = 8,
    round_size: int = 2,
) -> Dict[str, Any]:
    """Fixed-budget campaign vs the adaptive planner at the same CI target.

    Runs the experiment twice from fresh caches: once over the full fixed
    seed budget, once with ``--adaptive`` stopping as soon as the 95% CI
    on the headline quantity narrows to ``ci_width``.  Reports the seeds
    each run consumed, the CI width each achieved, and the wall-clock
    ratio — the ISSUE acceptance number (``seed_reduction``) lives here.
    """
    import shutil
    import tempfile

    from repro.analysis.planning.planner import (
        CONFIDENCE,
        _ci_width,
        select_quantity,
    )
    from repro.campaign.runner import CampaignSpec, run_campaign
    from repro.obs.manifest import load_manifest

    seeds = list(range(2019, 2019 + seeds_count))
    out: Dict[str, Any] = {
        "experiment_id": experiment_id,
        "target_ci_width": ci_width,
        "confidence": CONFIDENCE,
    }

    cache = tempfile.mkdtemp(prefix="repro-bench-plan-fixed-")
    try:
        spec = CampaignSpec(
            experiment_id=experiment_id, seeds=seeds, jobs=0, cache_dir=cache
        )
        gc.collect()
        started = time.perf_counter()
        fixed = run_campaign(spec, progress=False)
        fixed_wall = time.perf_counter() - started
        quantity = select_quantity(fixed.records, None)
        out["quantity"] = quantity
        out["fixed"] = {
            "seeds": seeds_count,
            "wall_seconds": round(fixed_wall, 3),
            "ci_width": (
                round(_ci_width(fixed.records, quantity), 4) if quantity else None
            ),
        }
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    cache = tempfile.mkdtemp(prefix="repro-bench-plan-adaptive-")
    try:
        spec = CampaignSpec(
            experiment_id=experiment_id,
            seeds=seeds,
            jobs=0,
            cache_dir=cache,
            adaptive=True,
            ci_width=ci_width,
            min_seeds=min_seeds,
            round_size=round_size,
        )
        gc.collect()
        started = time.perf_counter()
        adaptive = run_campaign(spec, progress=False)
        adaptive_wall = time.perf_counter() - started
        manifest = load_manifest(adaptive.manifest_path)
        planner = manifest.get("planner", {})
        seeds_used = max(
            (entry["consumed"] for entry in planner.get("presets", {}).values()),
            default=len(adaptive.records),
        )
        out["adaptive"] = {
            "seeds_used": seeds_used,
            "wall_seconds": round(adaptive_wall, 3),
            "ci_width": (
                round(_ci_width(adaptive.records, quantity), 4) if quantity else None
            ),
            "rounds": planner.get("rounds"),
        }
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    seeds_used = out["adaptive"]["seeds_used"]
    out["seeds_saved"] = seeds_count - seeds_used  # the ISSUE headline
    out["seed_reduction"] = (
        round(seeds_count / seeds_used, 2) if seeds_used else None
    )
    adaptive_wall = out["adaptive"]["wall_seconds"]
    out["speedup"] = (
        round(out["fixed"]["wall_seconds"] / adaptive_wall, 2)
        if adaptive_wall
        else None
    )
    fixed_width = out["fixed"]["ci_width"]
    adaptive_width = out["adaptive"]["ci_width"]
    out["both_within_target"] = (
        fixed_width is not None
        and adaptive_width is not None
        and fixed_width <= ci_width
        and adaptive_width <= ci_width
    )
    return out


# ----------------------------------------------------------------------
# Assembly, determinism pinning, CLI backend
# ----------------------------------------------------------------------


def determinism_block(results: Dict[str, Any]) -> Dict[str, Any]:
    """The host-independent subset a CI perf-smoke job may fail on."""
    engine = results["engine_equivalence"]
    scans = results["scan_coalescing"]
    return {
        "engine_sequences_match": engine["optimized_checksum"] == engine["reference_checksum"],
        "engine_sequence_checksum": engine["optimized_checksum"],
        "scan_rounds_per_pass": scans["rounds"] // scans["passes"],
        "scan_events_fired": scans["events_fired"],
        "scan_events_fired_chunked": scans["events_fired_chunked"],
        "scan_timeline_identical": scans["timeline_identical"],
        "scan_timeline_signature": scans["timeline_signature"],
        "e1_table_sha256": results["trials"]["E1"]["table_sha256"],
        "e9_table_sha256": results["trials"]["E9"]["table_sha256"],
    }


def run_bench(
    progress: Optional[Callable[[str], None]] = None,
    batch: bool = False,
    batch_seeds: int = 64,
    planner: bool = False,
    planner_seeds: int = 64,
    planner_ci_width: float = 75.0,
) -> Dict[str, Any]:
    """Run every benchmark; returns the full result dict.

    ``batch=True`` adds the vectorized-dispatch sections (batched hashing
    kernels and the scalar-vs-``--batch`` campaign differential);
    ``planner=True`` adds the fixed-vs-adaptive campaign pair.  Both are
    opt-in because each campaign pair runs up to ``2 * seeds`` full
    trials.
    """

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    results: Dict[str, Any] = {"bench_version": BENCH_VERSION}
    note("event engine microbench...")
    results["event_engine"] = bench_event_engine()
    note("schedule_batch microbench...")
    results["schedule_batch"] = bench_schedule_batch()
    note("engine (time, seq) equivalence...")
    results["engine_equivalence"] = engine_equivalence()
    note("scan coalescing (fused vs per-chunk rounds)...")
    results["scan_coalescing"] = bench_scan_coalescing()
    note("trial wall times (E1, E9)...")
    results["trials"] = bench_trials()
    if batch:
        note("batched hashing kernels (matmul vs scalar, both break-even sides)...")
        results["batch_kernels"] = bench_batch_kernels()
        note(f"batch campaign differential ({batch_seeds} seeds, scalar vs --batch)...")
        results["batch_campaign"] = bench_batch_campaign(batch_seeds)
    if planner:
        note(
            f"adaptive planner differential ({planner_seeds} seeds fixed vs "
            f"--adaptive at width {planner_ci_width})..."
        )
        results["planner"] = bench_planner(planner_seeds, planner_ci_width)
    results["determinism"] = determinism_block(results)
    return results


def check_determinism(results: Dict[str, Any], expected_path: str) -> List[str]:
    """Compare the determinism block against a pinned file; list mismatches."""
    with open(expected_path, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = results["determinism"]
    problems = []
    baseline_version = expected.pop("bench_version", None)
    if baseline_version is not None and baseline_version != results.get("bench_version"):
        problems.append(
            f"stale bench_version: baseline {baseline_version}, current "
            f"{results.get('bench_version')} — regenerate the pinned file"
        )
    for key, want in expected.items():
        got = actual.get(key)
        if got != want:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    if not actual.get("engine_sequences_match"):
        problems.append("optimized engine fired a different (time, seq) sequence")
    if not actual.get("scan_timeline_identical"):
        problems.append("fused scan timeline diverged from per-chunk timeline")
    batch_campaign = results.get("batch_campaign")
    if batch_campaign is not None and not batch_campaign.get("fingerprint_identical"):
        problems.append("batched campaign fingerprint diverged from scalar run")
    return problems
