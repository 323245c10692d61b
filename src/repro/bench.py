"""The determinism gate behind ``python -m repro bench``.

Every number a bench run reports is a deterministic invariant: the fired
``(time, seq)`` sequence checksum of the event engine against a bundled
seed-style reference engine, the fused-vs-per-chunk scan timeline
(rounds per pass, events fired, timeline signature), and the E1/E9 table
digests.  They are pure functions of the code and the seeds, so CI fails
hard on any drift (``repro bench --check FILE``) without being flaky.

Wall-clock performance is measured end to end by ``benchmarks/e2e``; the
fixed-vs-adaptive planner comparison is ``benchmarks/planner_bench.py``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
from typing import Any, Callable, Dict, List, Optional

#: Bumped whenever the determinism block changes shape (new checks,
#: changed workloads).  ``--check`` fails on a pinned file carrying a
#: different version, so a stale baseline reads as an explicit error
#: instead of a silent key-by-key pass.
BENCH_VERSION = 10

# ----------------------------------------------------------------------
# Seed-style reference engine (the pre-overhaul design, kept verbatim in
# spirit: Event objects *in* the heap, Python __lt__ per sift, separate
# peek+pop per fired event).  The (time, seq) equivalence check runs
# against this.
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
# Deterministic synthetic workload for the equivalence check
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

    Reports whether the timeline is bit-identical (round end times,
    digests, weighted events fired) and how many heap entries each mode
    scheduled for it.
    """
    from repro.experiments.common import build_stack, run_while

    def run_rounds(coalesce: bool):
        stack = build_stack(seed=seed, with_satin=True)
        satin = stack.satin
        satin.checker.coalesce_scans = coalesce
        target = passes * len(satin.areas)
        run_while(
            stack.machine, lambda: satin.checker.round_count < target, satin.policy.tp, target * 50
        )
        results = satin.checker.results[:target]
        return {
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
        "rounds": fused["rounds"],
        "events_fired": fused["events_fired"],
        "events_fired_chunked": chunked["events_fired"],
        "events_scheduled": fused["events_scheduled"],
        "events_scheduled_chunked": chunked["events_scheduled"],
        "timeline_identical": fused["signature"] == chunked["signature"],
        "timeline_signature": fused["signature"],
    }


def bench_trials() -> Dict[str, Any]:
    """Table digests of a cheap (E1) and an expensive (E9) fast trial."""
    from repro.experiments.report import run_experiment

    out: Dict[str, Any] = {}
    for experiment_id in ("E1", "E9"):
        result = run_experiment(experiment_id, seed=2019)
        out[experiment_id] = {
            "table_sha256": hashlib.sha256(result.rendered.encode()).hexdigest(),
        }
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


def run_bench(progress: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Run every determinism check; returns the full result dict."""

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    results: Dict[str, Any] = {"bench_version": BENCH_VERSION}
    note("engine (time, seq) equivalence...")
    results["engine_equivalence"] = engine_equivalence()
    note("scan coalescing (fused vs per-chunk rounds)...")
    results["scan_coalescing"] = bench_scan_coalescing()
    note("experiment tables (E1, E9)...")
    results["trials"] = bench_trials()
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
    return problems
