"""Event primitives for the discrete-event simulator.

The simulator core is a classic calendar queue built on :mod:`heapq`.  Every
scheduled callback is wrapped in an :class:`Event` that doubles as a
cancellation token: cancelled events stay in the heap but are skipped when
popped (lazy deletion), which keeps cancellation O(1).

The heap itself stores ``(time, seq, event)`` tuples rather than the events
themselves, so every sift comparison is a C-level tuple compare instead of a
Python ``Event.__lt__`` call.  ``seq`` is unique, so the comparison never
reaches the third element and events are never compared to each other during
heap maintenance.

Live-count accounting is exact at all times: ``cancel()`` debits the owning
queue immediately instead of deferring the debit to whichever of ``pop()`` /
``peek_time()`` happens to sweep the corpse out of the heap first, so
``len(queue)`` always equals the number of events that can still fire.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: Shared empty argument tuple; callbacks without args all reference this one
#: object instead of each carrying their own.
EMPTY_ARGS: Tuple[Any, ...] = ()


class Event:
    """A scheduled callback, usable as a cancellation token.

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    tie-breaker so that events scheduled earlier at the same timestamp fire
    first, giving the simulation a deterministic total order.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = EMPTY_ARGS,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        #: the EventQueue whose live count this event is part of, or None
        #: once popped / cancelled / constructed outside a queue.
        self._owner: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent; safe after firing."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._live -= 1

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.9f} seq={self.seq} {name} {state}>"


class SpanEvent(Event):
    """An event standing in for a run of per-chunk events with known times.

    A fused secure-world scan schedules one :class:`SpanEvent` at the time
    its *last* chunk would have completed, but remembers every intermediate
    chunk-completion time in ``chunk_times`` (ascending, absolute, ending at
    ``self.time``).  The simulator charges those chunks to whichever
    ``run()`` window they land in, so event accounting stays identical to
    the unfused per-chunk engine.
    """

    __slots__ = ("chunk_times", "accounted")

    def __init__(
        self,
        chunk_times: Sequence[float],
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = EMPTY_ARGS,
    ) -> None:
        super().__init__(chunk_times[-1], seq, callback, args)
        self.chunk_times: Tuple[float, ...] = tuple(chunk_times)
        #: how many leading chunks have already been charged to a run window.
        self.accounted = 0

    @property
    def remaining_weight(self) -> int:
        """Chunks not yet charged to any run window."""
        return len(self.chunk_times) - self.accounted

    def account_until(self, limit: float) -> int:
        """Charge every unaccounted chunk at time <= ``limit``; return count."""
        times = self.chunk_times
        index = self.accounted
        end = len(times)
        while index < end and times[index] <= limit:
            index += 1
        charged = index - self.accounted
        self.accounted = index
        return charged


class EventQueue:
    """Time-ordered queue of :class:`Event` objects with lazy deletion."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        #: heap of (time, seq, event); seq is unique so comparisons stay in C.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0

    def push(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...] = EMPTY_ARGS) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args or EMPTY_ARGS)
        event._owner = self
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_batch(
        self,
        items: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
        base: Optional[float] = None,
    ) -> List[Event]:
        """Schedule many ``(time, callback, args)`` entries in one pass.

        With ``base`` given the first element of each item is a *delay*
        added to ``base`` (and validated non-negative); otherwise it is an
        absolute time.  When the batch rivals the heap in size the entries
        are appended and re-heapified in one O(n) pass instead of n
        O(log n) sifts.
        """
        seq = self._seq
        entries: List[Tuple[float, int, Event]] = []
        entry_append = entries.append
        new = Event.__new__
        if base is None:
            for time, callback, args in items:
                if time != time:
                    raise SimulationError("event time is NaN")
                event = new(Event)
                event.time = time
                event.seq = seq
                event.callback = callback
                event.args = args or EMPTY_ARGS
                event.cancelled = False
                event.fired = False
                event._owner = self
                entry_append((time, seq, event))
                seq += 1
        else:
            for delay, callback, args in items:
                if not delay >= 0:  # rejects negatives and NaN alike
                    raise SimulationError(
                        f"cannot schedule into the past (delay={delay})"
                    )
                time = base + delay
                event = new(Event)
                event.time = time
                event.seq = seq
                event.callback = callback
                event.args = args or EMPTY_ARGS
                event.cancelled = False
                event.fired = False
                event._owner = self
                entry_append((time, seq, event))
                seq += 1
        self._seq = seq
        self._live += len(entries)
        heap = self._heap
        if len(entries) > len(heap) >> 3:
            heap.extend(entries)
            heapify(heap)
        else:
            for entry in entries:
                heappush(heap, entry)
        return [entry[2] for entry in entries]

    def push_span(
        self,
        chunk_times: Sequence[float],
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = EMPTY_ARGS,
    ) -> SpanEvent:
        """Schedule a :class:`SpanEvent` covering ``chunk_times``."""
        last = chunk_times[-1]
        if last != last:
            raise SimulationError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        event = SpanEvent(chunk_times, seq, callback, args or EMPTY_ARGS)
        event._owner = self
        heappush(self._heap, (last, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or None if empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            event._owner = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                heappop(heap)
                continue
            return head[0]
        return None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
