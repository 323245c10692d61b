"""Metrics registry: counters, gauges, log-bucket histograms, timers.

The registry is the numeric half of the telemetry subsystem (the trace
recorder is the narrative half).  Components — the simulator event loop,
the EL3 monitor's world-switch path, SATIN's introspection rounds, the
attack state machines, the campaign supervisor — all emit into one
:class:`MetricsRegistry` and never format or aggregate anything
themselves.

Design rules, chosen so campaign shards aggregate exactly:

* **Fixed buckets.**  Every histogram shares one global log-scale bucket
  table (:data:`BUCKET_BOUNDS`), so two snapshots merge bucket-by-bucket
  with integer addition — no re-binning, no approximation.
* **Deterministic snapshots.**  ``snapshot()`` emits plain sorted dicts of
  JSON-safe scalars.  A trial that records only simulated-time quantities
  produces the same snapshot on every run, which is what lets a
  ``--jobs 4`` campaign manifest match the ``--jobs 0`` one byte for byte.
* **Order-fixed merging.**  :func:`merge_snapshots` folds snapshots in the
  order given; campaign code always passes task order, never completion
  order, so float sums accumulate identically regardless of parallelism.

A thread-local registry stack (:func:`use_registry`) lets harnesses
scope a registry around a trial: ``Machine`` adopts the active registry
when one is installed, so experiment internals need no plumbing changes.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import ObservabilityError

#: Histogram bucket layout: ``BUCKETS_PER_DECADE`` log-spaced buckets per
#: decade spanning [1e-9, 1e4) — nanoseconds to hours when observing
#: seconds, and still sane for byte counts or event totals.
BUCKETS_PER_DECADE = 4
_MIN_EXP = -9
_MAX_EXP = 4

#: Upper bound of bucket ``i``; values above the last bound overflow.
BUCKET_BOUNDS: List[float] = [
    10.0 ** (_MIN_EXP + i / BUCKETS_PER_DECADE)
    for i in range((_MAX_EXP - _MIN_EXP) * BUCKETS_PER_DECADE + 1)
]

#: Bucket index for values <= the smallest bound (incl. zero/negative).
UNDERFLOW = 0
#: Bucket index for values above the largest bound.
OVERFLOW = len(BUCKET_BOUNDS)


def bucket_index(value: float) -> int:
    """The fixed bucket a value falls into (monotone in ``value``)."""
    return bisect.bisect_left(BUCKET_BOUNDS, value)


def bucket_bound(index: int) -> Optional[float]:
    """Upper bound of bucket ``index`` (None for the overflow bucket)."""
    if 0 <= index < len(BUCKET_BOUNDS):
        return BUCKET_BOUNDS[index]
    return None


class Counter:
    """Monotonically increasing count (events, rounds, errors)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """Point-in-time level plus its high-water mark."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


class Histogram:
    """Distribution sketch over the shared log-scale bucket table."""

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Timer:
    """Context manager that observes elapsed time into a histogram.

    The clock is injectable: profiling uses ``time.perf_counter`` (the
    default), while simulated-duration measurements pass a lambda over
    ``sim.now`` so the observation stays deterministic.
    """

    __slots__ = ("histogram", "clock", "_started")

    def __init__(self, histogram: Histogram, clock: Callable[[], float]) -> None:
        self.histogram = histogram
        self.clock = clock
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = self.clock()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.histogram.observe(self.clock() - self._started)


class MetricsRegistry:
    """Named metric instruments with get-or-create semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def _claim(self, name: str, kind: Dict[str, Any]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not kind and name in family:
                raise ObservabilityError(
                    f"metric {name!r} already registered with a different type"
                )

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._claim(name, self._counters)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._claim(name, self._gauges)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._claim(name, self._histograms)
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def timer(self, name: str, clock: Callable[[], float] = time.perf_counter) -> Timer:
        return Timer(self.histogram(name), clock)

    def namespaced(self, prefix: str) -> "NamespacedRegistry":
        """A view that prefixes every instrument name with ``<prefix>.``."""
        return NamespacedRegistry(self, prefix)

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-safe dump of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": g.value, "peak": g.peak}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.minimum,
                    "max": h.maximum,
                    # JSON objects need string keys; sorted numerically.
                    "buckets": {
                        str(i): h.buckets[i] for i in sorted(h.buckets)
                    },
                }
                for name, h in sorted(self._histograms.items())
            },
        }


class NamespacedRegistry:
    """A prefixing view over a :class:`MetricsRegistry`.

    Instruments created through the view land in the parent registry under
    ``<prefix>.<name>``, so one service-wide registry can hold per-job
    metric namespaces (``job.<id>.trials_done``, ...) that still appear in
    a single ``snapshot()`` and merge like any other metrics.
    """

    __slots__ = ("_parent", "prefix")

    def __init__(self, parent: "MetricsRegistry", prefix: str) -> None:
        if not prefix:
            raise ObservabilityError("metric namespace prefix cannot be empty")
        self._parent = parent
        self.prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._parent.counter(self._qualify(name))

    def gauge(self, name: str) -> Gauge:
        return self._parent.gauge(self._qualify(name))

    def histogram(self, name: str) -> Histogram:
        return self._parent.histogram(self._qualify(name))

    def timer(
        self, name: str, clock: Callable[[], float] = time.perf_counter
    ) -> Timer:
        return self._parent.timer(self._qualify(name), clock)

    def namespaced(self, prefix: str) -> "NamespacedRegistry":
        return NamespacedRegistry(self._parent, self._qualify(prefix))


def empty_snapshot() -> Dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots into one, in the order given.

    Counters add; gauges keep the maximum value and peak (a gauge is a
    level, so shard maxima are the only meaningful combination);
    histograms add counts bucket-by-bucket and fold sums left-to-right —
    callers must pass a deterministic order (campaign code uses task
    order) for float sums to be reproducible.
    """
    merged = empty_snapshot()
    counters = merged["counters"]
    gauges = merged["gauges"]
    histograms = merged["histograms"]
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, g in snap.get("gauges", {}).items():
            if name in gauges:
                gauges[name] = {
                    "value": max(gauges[name]["value"], g["value"]),
                    "peak": max(gauges[name]["peak"], g["peak"]),
                }
            else:
                gauges[name] = {"value": g["value"], "peak": g["peak"]}
        for name, h in snap.get("histograms", {}).items():
            if name not in histograms:
                histograms[name] = {
                    "count": 0, "sum": 0.0, "min": None, "max": None,
                    "buckets": {},
                }
            out = histograms[name]
            out["count"] += h["count"]
            out["sum"] += h["sum"]
            for bound_key in ("min", "max"):
                value = h.get(bound_key)
                if value is None:
                    continue
                if out[bound_key] is None:
                    out[bound_key] = value
                elif bound_key == "min":
                    out[bound_key] = min(out[bound_key], value)
                else:
                    out[bound_key] = max(out[bound_key], value)
            for index, count in h.get("buckets", {}).items():
                out["buckets"][index] = out["buckets"].get(index, 0) + count
    # Re-sort for a canonical layout whatever the input order was.
    merged["counters"] = dict(sorted(counters.items()))
    merged["gauges"] = dict(sorted(gauges.items()))
    for name, h in histograms.items():
        h["buckets"] = {
            key: h["buckets"][key] for key in sorted(h["buckets"], key=int)
        }
    merged["histograms"] = dict(sorted(histograms.items()))
    return merged


# ---------------------------------------------------------------------------
# Thread-local registry scoping
# ---------------------------------------------------------------------------


class _Active(threading.local):
    """Each thread's installed registries, innermost last."""

    def __init__(self) -> None:
        self.stack: List[MetricsRegistry] = []


_ACTIVE = _Active()


def active_registry() -> Optional[MetricsRegistry]:
    """The calling thread's innermost :func:`use_registry` registry, if any."""
    stack = _ACTIVE.stack
    return stack[-1] if stack else None


class use_registry:
    """Context manager scoping ``registry`` as the calling thread's default.

    The scope is per thread, so trials running concurrently on a thread
    executor each meter into their own registry.

    ``Machine`` (and anything else that calls :func:`active_registry` at
    construction time) adopts it, so a harness can meter a whole trial —
    however many machines it builds — without threading the registry
    through every experiment signature.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def __enter__(self) -> MetricsRegistry:
        _ACTIVE.stack.append(self.registry)
        return self.registry

    def __exit__(self, *_exc: Any) -> None:
        _ACTIVE.stack.pop()
