"""Layer tracing installed from outside: wrap repro's public entry points.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the entry points listed in :data:`PATCHES` with timing wrappers
(in the defining module *and* in every loaded module that imported the
name), and :meth:`Tracer.uninstall` puts the originals back.

Two kinds of record are kept:

* **coarse spans** — trials, builds, campaign passes, jobs, HTTP
  requests, store, journal and manifest calls, and whatever the caller
  wraps with :meth:`Tracer.coarse` — one by one, each with a
  name, start, end, parent and trace id;
* **hot calls** — engine scheduling and dispatch, RNG draws, hashing,
  telemetry, scheduler and prober calls — aggregated per enclosing
  coarse span as ``[count, total_s, self_s, bytes]``, so memory stays
  bounded however many events a trial fires.

Self time is a call's duration minus the time its children on the same
thread took.  Callbacks handed to ``Simulator.schedule*`` (and probe
listeners) are wrapped when they are scheduled, and charged to the
module that owns them; for a coroutine driver that is the module of the
driven generator.  A span opened on a thread with nothing open (a server
thread) is adopted by the current *unit* span (a trial, pass or job), so
one trace id covers all the work of that unit.

Forked children (the fork executor's workers) drop the wrappers right
after the fork: a traced campaign sees only its supervisor side.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span record layout (a list, for cheap in-place updates).
SID, NAME, LAYER, START, END, PARENT, TRACE, TID, SELF = range(9)

#: (module, attribute path, layer, call name, kind).  ``kind`` is one of
#: ``coarse`` (one span per call), ``hot`` (aggregated), ``gen`` (a
#: generator function: each resumption is timed), ``schedule`` /
#: ``batch`` (engine scheduling: the callback is wrapped too) and
#: ``listener`` (the registered listener is wrapped).
PATCHES: List[Tuple[str, str, str, str, str]] = [
    ("repro.experiments.common", "build_stack", "build", "build_stack", "coarse"),
    ("repro.secure.boot", "AuthorizedHashStore.compute_at_boot", "boot", "compute_at_boot", "coarse"),
    ("repro.sim.simulator", "Simulator.run", "sim", "run", "hot"),
    ("repro.sim.simulator", "Simulator.schedule", "sim", "schedule", "schedule"),
    ("repro.sim.simulator", "Simulator.schedule_at", "sim", "schedule", "schedule"),
    ("repro.sim.simulator", "Simulator.schedule_span", "sim", "schedule", "schedule"),
    ("repro.sim.simulator", "Simulator.schedule_batch", "sim", "schedule", "batch"),
    ("repro.kernel.sched.scheduler", "RichScheduler.wake", "sched", "wake", "hot"),
    ("repro.kernel.sched.scheduler", "RichScheduler.spawn", "sched", "spawn", "hot"),
    ("repro.kernel.sched.scheduler", "RichScheduler.tick", "sched", "tick", "hot"),
    ("repro.kernel.sched.scheduler", "RichScheduler.steal_time", "sched", "steal_time", "hot"),
    ("repro.attacks.prober", "ProbeController.report", "prober", "report", "hot"),
    ("repro.attacks.prober", "ProbeController.compare", "prober", "compare", "hot"),
    ("repro.attacks.prober", "ProbeBuffer.read", "prober", "read", "hot"),
    ("repro.attacks.prober", "ProbeBuffer.write", "prober", "write", "hot"),
    ("repro.attacks.prober", "ProbeController.add_detect_listener", "prober", "listener", "listener"),
    ("repro.attacks.prober", "ProbeController.add_clear_listener", "prober", "listener", "listener"),
    ("repro.secure.hashes", "LinearHasher.update", "hash", "update", "hot"),
    ("repro.secure.hashes", "djb2", "hash", "djb2", "hot"),
    ("repro.secure.snapshot", "SecureSnapshotBuffer.take_and_hash", "hash", "take_and_hash", "gen"),
    ("repro.obs.metrics", "Counter.inc", "telemetry", "Counter.inc", "hot"),
    ("repro.obs.metrics", "Gauge.set", "telemetry", "Gauge.set", "hot"),
    ("repro.obs.metrics", "Gauge.inc", "telemetry", "Gauge.inc", "hot"),
    ("repro.obs.metrics", "Gauge.dec", "telemetry", "Gauge.dec", "hot"),
    ("repro.obs.metrics", "Histogram.observe", "telemetry", "Histogram.observe", "hot"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "telemetry", "snapshot", "hot"),
    ("repro.obs.metrics", "merge_snapshots", "telemetry", "merge_snapshots", "hot"),
    ("repro.campaign.store", "ResultStore.put", "store", "put", "coarse"),
    ("repro.campaign.store", "ResultStore.ensure_index", "store", "index", "coarse"),
    ("repro.campaign.store", "ResultStore.save_index", "store", "index", "coarse"),
    ("repro.campaign.store", "ResultStore.load", "store", "read", "coarse"),
    ("repro.campaign.store", "ResultStore.get", "store", "read", "coarse"),
    ("repro.campaign.store", "ResultStore.ok_record", "store", "read", "coarse"),
    ("repro.service.executors", "ForkExecutor.submit", "executor", "submit", "hot"),
    ("repro.service.executors", "ForkExecutor.poll", "executor", "poll", "hot"),
    ("repro.service.executors", "execute_tasks", "executor", "execute_tasks", "coarse"),
    ("repro.obs.manifest", "build_manifest", "manifest", "build", "coarse"),
    ("repro.obs.manifest", "write_manifest", "manifest", "write", "coarse"),
    ("repro.service.journal", "JobJournal.append", "journal", "append", "coarse"),
    ("repro.service.journal", "JobJournal.compact", "journal", "compact", "coarse"),
    ("repro.service.server", "ServiceHandler.do_GET", "http", "request", "coarse"),
    ("repro.service.server", "ServiceHandler.do_POST", "http", "request", "coarse"),
]

#: Owner module prefix -> layer for engine-fired callbacks and listeners;
#: callbacks of any other module are charged to layer ``callback`` under
#: their module's name.
CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.kernel.sched", "sched"),
    ("repro.attacks.evader", "evader"),
    ("repro.attacks.prober", "prober"),
    ("repro.attacks.kprober", "prober"),
    ("repro.attacks.user_prober", "prober"),
)


def _callback_layer(module: str) -> Tuple[str, str]:
    for prefix, layer in CALLBACK_LAYERS:
        if module.startswith(prefix):
            return layer, "callback"
    return "callback", module


class _ThreadState:
    """Per-thread tracing state; only its own thread mutates it."""

    __slots__ = ("tid", "stack", "span", "agg", "spans")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: child-time accumulator of every open call, innermost last
        self.stack: List[float] = []
        #: innermost open coarse span record on this thread
        self.span: Optional[list] = None
        #: (coarse span id, layer, name) -> [count, total_s, self_s, bytes]
        self.agg: Dict[Tuple[int, str, str], list] = {}
        self.spans: List[list] = []


class Tracer:
    """Span recorder plus the runtime patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self._owners: Dict[Any, Tuple[str, str]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: the open unit span other threads' spans are adopted by
        self.root: Optional[list] = None
        self.installed = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
            self._tls.state = state
            return state

    @contextlib.contextmanager
    def span(self, layer: str, name: str, unit: bool = False) -> Iterator[list]:
        """Record one coarse span; ``unit=True`` starts a new trace id."""
        state = self._state()
        parent = state.span if state.span is not None else self.root
        sid = next(self._ids)
        trace = sid if unit or parent is None else parent[TRACE]
        record = [sid, name, layer, 0.0, 0.0, parent[SID] if parent else 0, trace, state.tid, 0.0]
        previous = state.span
        state.span = record
        if unit:
            previous_root, self.root = self.root, record
        stack = state.stack
        stack.append(0.0)
        record[START] = self.clock()
        try:
            yield record
        finally:
            record[END] = self.clock()
            duration = record[END] - record[START]
            record[SELF] = duration - stack.pop()
            if stack:
                stack[-1] += duration
            state.span = previous
            if unit:
                self.root = previous_root
            state.spans.append(record)

    def _timed(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        size: Optional[Callable[[tuple], int]] = None,
        count: int = 1,
    ) -> Callable[..., Any]:
        """A hot-call wrapper: aggregate into the enclosing coarse span."""
        state_of = self._state
        clock = self.clock
        tracer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                span = state.span if state.span is not None else tracer.root
                key = (span[SID] if span is not None else 0, layer, name)
                entry = state.agg.get(key)
                if entry is None:
                    entry = state.agg[key] = [0, 0.0, 0.0, 0]
                entry[0] += count
                entry[1] += duration
                entry[2] += duration - child
                if size is not None:
                    entry[3] += size(args)

        return timed

    def _timed_generator(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        """Wrap a generator function: count calls, time every resumption."""
        step = self._timed(lambda gen, value, error: gen.throw(error) if error else gen.send(value),
                           layer, name, count=0)
        tracer = self

        def generator(*args: Any, **kwargs: Any) -> Any:
            gen = fn(*args, **kwargs)
            state = tracer._state()
            span = state.span if state.span is not None else tracer.root
            key = (span[SID] if span is not None else 0, layer, name)
            state.agg.setdefault(key, [0, 0.0, 0.0, 0])[0] += 1
            value, error = None, None
            while True:
                try:
                    request = step(gen, value, error)
                except StopIteration as stop:
                    return stop.value
                try:
                    value, error = (yield request), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the generator
                    value, error = None, exc

        return generator

    def _owner(self, callback: Any) -> Tuple[str, str]:
        """(layer, name) a callback's time is charged to.

        Cached per code object, so closures made per event do not grow
        the cache.
        """
        if isinstance(callback, functools.partial):
            return self._owner(callback.func)
        func = getattr(callback, "__func__", callback)
        gen = getattr(getattr(callback, "__self__", None), "gen", None)
        code = getattr(gen, "gi_code", None) or getattr(func, "__code__", None)
        key = code if code is not None else type(callback)
        owner = self._owners.get(key)
        if owner is None:
            frame = getattr(gen, "gi_frame", None)
            if frame is not None:  # a coroutine driver: the generator's module
                module = frame.f_globals.get("__name__", "?")
            else:
                module = getattr(func, "__module__", None) or "?"
            owner = self._owners[key] = _callback_layer(module)
        return owner

    def coarse(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        """``fn`` wrapped to record one coarse span per call."""
        return self._wrapper_for(fn, layer, name, "coarse")

    def wrap_callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        layer, name = self._owner(callback)
        return self._timed(callback, layer, name)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _wrapper_for(self, original: Any, layer: str, name: str, kind: str) -> Any:
        if kind == "coarse":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(layer, name):
                    return original(*args, **kwargs)
        elif kind == "hot":
            size = (lambda args: len(args[1])) if (layer, name) == ("hash", "update") else None
            wrapper = self._timed(original, layer, name, size=size)
        elif kind == "gen":
            wrapper = self._timed_generator(original, layer, name)
        elif kind == "schedule":
            timed = self._timed(original, layer, name)
            wrap = self.wrap_callback

            def wrapper(sim: Any, when: Any, callback: Any, *args: Any) -> Any:
                return timed(sim, when, wrap(callback), *args)
        elif kind == "batch":
            timed = self._timed(original, layer, name)
            wrap = self.wrap_callback

            def wrapper(sim: Any, items: Any) -> Any:
                return timed(sim, [(delay, wrap(cb), args) for delay, cb, args in items])
        elif kind == "listener":
            wrap = self.wrap_callback

            def wrapper(controller: Any, listener: Any) -> Any:
                return original(controller, wrap(listener))
        else:
            raise ValueError(f"unknown patch kind {kind!r}")
        return functools.update_wrapper(wrapper, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`PATCHES` and every ``sample``.

        Call it before any stack is built: samplers are bound to
        ``dist.sample`` when a machine is constructed.
        """
        if self.installed:
            return self
        for module_name, path, layer, name, kind in PATCHES:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrapper_for(vars(owner)[attr], layer, name, kind))
                continue
            original = getattr(module, path)
            wrapper = self._wrapper_for(original, layer, name, kind)
            # ``from module import name`` copies the binding: rebind every
            # repro module holding the original too.
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith("repro") and getattr(other, path, None) is original:
                    self._patch(other, path, wrapper)
        from repro.sim.distributions import Distribution

        pending = list(Distribution.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "sample" in vars(cls):
                self._patch(cls, "sample", self._wrapper_for(vars(cls)["sample"], "rng", "sample", "hot"))
        self.installed = True
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        return self

    def _after_fork_in_child(self) -> None:
        if self.installed:
            self.uninstall()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.installed = False

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def spans(self) -> List[list]:
        with self._lock:
            threads = list(self._threads)
        return sorted((s for t in threads for s in t.spans), key=lambda s: s[START])

    def aggregates(self) -> Dict[Tuple[int, str, str], list]:
        """Hot-call aggregates of every thread, merged."""
        with self._lock:
            threads = list(self._threads)
        merged: Dict[Tuple[int, str, str], list] = {}
        for state in threads:
            for key, entry in list(state.agg.items()):
                into = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i in range(4):
                    into[i] += entry[i]
        return merged

    def layer_table(self, units: List[list]) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per ``layer -> name`` totals inside the given unit spans.

        Coarse spans contribute their own self time; hot-call aggregates
        whose enclosing coarse span belongs to one of ``units`` add
        theirs.  Work outside every unit (set-up, checks) is left out.
        """
        unit_ids = {u[SID] for u in units}
        spans = self.spans()
        trace_of = {s[SID]: s[TRACE] for s in spans}
        table: Dict[str, Dict[str, Dict[str, float]]] = {}

        def add(layer: str, name: str, calls: int, total: float, self_s: float, nbytes: int) -> None:
            row = table.setdefault(layer, {}).setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}
            )
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
            row["bytes"] += nbytes

        for s in spans:
            if s[TRACE] in unit_ids and s[SID] not in unit_ids:
                add(s[LAYER], s[NAME], 1, s[END] - s[START], s[SELF], 0)
        for (sid, layer, name), (calls, total, self_s, nbytes) in self.aggregates().items():
            if trace_of.get(sid) in unit_ids:
                add(layer, name, calls, total, self_s, nbytes)
        return table

    def unattributed_share(self, units: List[list]) -> float:
        """Share of unit time not covered by any layer span or call.

        On the unit's own thread the covered time is the unit's duration
        minus its self time; on other threads it is the union of the
        intervals of the trace's coarse spans (a served job's HTTP
        requests, store, journal and manifest calls).
        """
        spans = self.spans()
        foreign: Dict[int, List[list]] = {}
        for s in spans:
            foreign.setdefault(s[TRACE], []).append(s)
        total = uncovered = 0.0
        for unit in units:
            duration = unit[END] - unit[START]
            intervals = sorted(
                (max(s[START], unit[START]), min(s[END], unit[END]))
                for s in foreign.get(unit[SID], [])
                if s[TID] != unit[TID]
            )
            covered, reach = duration - unit[SELF], unit[START]
            for start, end in intervals:
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            total += duration
            uncovered += max(0.0, duration - covered)
        return uncovered / total if total > 0 else 0.0

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        pid = os.getpid()
        calls: Dict[int, Dict[str, list]] = {}
        for (sid, layer, name), entry in self.aggregates().items():
            calls.setdefault(sid, {})[f"{layer}.{name}"] = [
                entry[0], round(entry[1], 9), round(entry[2], 9), entry[3]
            ]
        events: List[Dict[str, Any]] = []
        for s in self.spans():
            events.append(
                {
                    "name": s[NAME],
                    "cat": s[LAYER],
                    "ph": "X",
                    "ts": round((s[START] - self.origin) * 1e6, 3),
                    "dur": round((s[END] - s[START]) * 1e6, 3),
                    "pid": pid,
                    "tid": s[TID],
                    "args": {
                        "span": s[SID],
                        "parent": s[PARENT],
                        "trace": s[TRACE],
                        "self_s": round(s[SELF], 9),
                        "calls": calls.get(s[SID], {}),
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
