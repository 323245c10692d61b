"""The discrete-event simulator core.

A :class:`Simulator` owns the clock and the event queue.  Everything else in
this library — cores, timers, schedulers, the secure monitor — expresses its
behaviour as callbacks scheduled here.  Time is a float in *seconds* of
simulated wall-clock time; the clock only moves when events fire.

The run loop is the hottest code in the repository: every scheduler quantum,
timer tick, probe read and scan chunk passes through it.  It therefore works
on the queue's heap directly (peek, sweep cancelled entries, pop — no call
per event), and resolves metric handles once when a registry is attached
instead of by name on every ``run()``.

Event accounting understands :class:`~repro.sim.events.SpanEvent`: a fused
secure-world scan schedules one heap entry for many chunks, and the chunks
are charged to whichever ``run()`` window their recorded times land in — so
``events_fired`` and the ``sim.*`` metrics stay bit-identical to the
one-event-per-chunk engine even when a window boundary slices a scan.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue, SpanEvent


class Simulator:
    """Single-threaded discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.5, out.append, "hello")
    >>> sim.run()
    >>> (sim.now, out)
    (1.5, ['hello'])
    """

    __slots__ = (
        "now", "_queue", "_running", "_events_fired", "stop_requested",
        "_metrics", "_inflight_spans", "_fire_hook",
        "_m_events", "_m_events_per_run", "_m_run_span", "_m_pending",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._events_fired = 0
        self.stop_requested = False
        self._metrics = None
        self._fire_hook = None
        self._m_events = None
        self._m_events_per_run = None
        self._m_run_span = None
        self._m_pending = None
        #: SpanEvents scheduled but not yet fired; their chunk accounting is
        #: settled incrementally at run-window boundaries.
        self._inflight_spans: List[SpanEvent] = []

    # ------------------------------------------------------------------
    # Metrics attachment
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        each :meth:`run` call reports its event volume and span."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        if registry is not None:
            self._m_events = registry.counter("sim.events")
            self._m_events_per_run = registry.histogram("sim.events_per_run")
            self._m_run_span = registry.histogram("sim.run_span_seconds")
            self._m_pending = registry.gauge("sim.pending_events")

    def set_fire_hook(
        self, hook: Optional[Callable[[float, int], None]]
    ) -> None:
        """Install a per-event observer called ``hook(time, seq)``.

        ``seq`` is the cumulative :attr:`events_fired` value after the
        event (span chunks charge their full weight), so the ``(time,
        seq)`` stream is a bit-exact witness of the executed timeline —
        the chaos harness folds it into a determinism checksum.  One
        attribute test per event when installed; ``None`` (the default)
        restores the zero-cost baseline path.
        """
        self._fire_hook = hook

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        return self._queue.push(time, callback, args)

    def schedule_batch(
        self,
        items: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> List[Event]:
        """Schedule many ``(delay, callback, args)`` entries in one call.

        One fused validate/create/insert pass in
        :meth:`EventQueue.push_batch` (with an O(n) heapify fast path for
        large batches) keeps per-event overhead well below a ``schedule()``
        loop; returned events are in input order.
        """
        return self._queue.push_batch(items, base=self.now)

    def schedule_span(
        self,
        chunk_times: Sequence[float],
        callback: Callable[..., Any],
        *args: Any,
    ) -> SpanEvent:
        """Schedule one event covering a run of chunk completions.

        ``chunk_times`` are absolute, non-decreasing times; the callback
        fires once at ``chunk_times[-1]`` but every chunk is charged to the
        run window its time lands in, exactly as if each had been its own
        event.
        """
        if not chunk_times:
            raise SimulationError("schedule_span needs at least one chunk time")
        previous = self.now
        for time in chunk_times:
            if time < previous:
                raise SimulationError(
                    f"span chunk times must be non-decreasing from now "
                    f"(got {time} after {previous})"
                )
            previous = time
        event = self._queue.push_span(chunk_times, callback, args)
        self._inflight_spans.append(event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError("event queue produced an out-of-order event")
        self.now = event.time
        event.fired = True
        spans = self._inflight_spans
        if spans and isinstance(event, SpanEvent):
            spans.remove(event)
            self._events_fired += event.remaining_weight
            event.accounted = len(event.chunk_times)
        else:
            self._events_fired += 1
        if self._fire_hook is not None:
            self._fire_hook(self.now, self._events_fired)
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or stop().

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        see a monotonic clock.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self.stop_requested = False
        started_at = self.now
        fired = 0
        queue = self._queue
        heap = queue._heap
        limit = until if until is not None else float("inf")
        budget = max_events if max_events is not None else float("inf")
        spans = self._inflight_spans
        # Chunk-accounting limit for spans still pending when the loop
        # exits: events up to `until` would have fired at a window boundary,
        # but only events up to `now` had fired at a stop()/max_events exit.
        exit_limit = until
        try:
            while True:
                if self.stop_requested:
                    exit_limit = self.now
                    break
                if fired >= budget:
                    exit_limit = self.now
                    break
                # Pop the earliest live event at time <= limit.  Cancelled
                # entries are swept out on the way; Event.cancel() already
                # debited their live count.
                while heap:
                    time, _, event = heap[0]
                    if event.cancelled:
                        heappop(heap)
                        continue
                    break
                else:
                    break  # queue drained
                if time > limit:
                    break
                heappop(heap)
                event._owner = None
                queue._live -= 1
                if time < self.now:
                    raise SimulationError("event queue produced an out-of-order event")
                self.now = time
                event.fired = True
                if spans and isinstance(event, SpanEvent):
                    spans.remove(event)
                    weight = event.remaining_weight
                    event.accounted = len(event.chunk_times)
                    fired += weight
                    self._events_fired += weight
                else:
                    fired += 1
                    self._events_fired += 1
                if self._fire_hook is not None:
                    self._fire_hook(time, self._events_fired)
                event.callback(*event.args)
        finally:
            self._running = False
        if spans and exit_limit is not None:
            kept: List[SpanEvent] = []
            for span in spans:
                if span.cancelled:
                    continue
                charged = span.account_until(exit_limit)
                if charged:
                    fired += charged
                    self._events_fired += charged
                kept.append(span)
            spans[:] = kept
        if until is not None and self.now < until and not self.stop_requested:
            self.now = until
        if self._metrics is not None:
            self._m_events.inc(fired)
            self._m_events_per_run.observe(float(fired))
            self._m_run_span.observe(self.now - started_at)
            self._m_pending.set(float(len(self._queue)))

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` seconds of simulated time."""
        self.run(until=self.now + duration, max_events=max_events)

    def stop(self) -> None:
        """Request the current :meth:`run` loop to return after this event."""
        self.stop_requested = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Total number of events executed since construction.

        Chunks folded into a fired or window-straddling
        :class:`~repro.sim.events.SpanEvent` count individually, so this
        matches the one-event-per-chunk engine.
        """
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Absolute time of the next live event, or None."""
        return self._queue.peek_time()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.9f} pending={self.pending_events}>"
