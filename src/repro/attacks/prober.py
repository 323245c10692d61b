"""Core probing machinery: Time Reporter, Time Comparer, probe buffer.

The prober infers each core's world from *liveness*: a thread pinned to a
core keeps writing the shared counter value into a normal-memory buffer
(the **Time Reporter**); every thread also reads the other cores' latest
reports and flags any core whose report has gone stale beyond a threshold
(the **Time Comparer**).  A core held by the secure world stops reporting —
the side channel of Section III-B1.

Cross-core buffer reads occasionally see a *stale* entry because of cache
coherence traffic (the paper measured delays up to ~1.3e-3 s); the
visibility model here draws those delays from the calibrated spike mixture
in :class:`~repro.config.ProberConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import ProberConfig
from repro.errors import AttackError
from repro.hw.platform import Machine
from repro.sim.batch import bind_sampler

_INF = float("inf")


@dataclass(frozen=True)
class ProbeDetection:
    """One rising-edge 'core entered the secure world' report."""

    time: float
    observer_core: int
    suspect_core: int
    staleness: float


@dataclass(frozen=True)
class ProbeClear:
    """A previously suspected core reported again (secure exit observed)."""

    time: float
    observer_core: int
    suspect_core: int


class ProbeBuffer:
    """The shared time-report buffer with cross-core visibility delays.

    Each core owns one slot; a remote read may return a slightly stale
    entry according to the visibility-delay distribution.  Self-reads are
    always fresh.
    """

    _HISTORY = 6

    def __init__(self, machine: Machine, config: ProberConfig) -> None:
        self.machine = machine
        self.config = config
        #: the clock every read and write stamps against.
        self._sim = machine.sim
        self._rng = machine.rng.stream("prober.visibility")
        self._draw_delay = bind_sampler(config.cross_core_delay, self._rng)
        #: per-core list of (write_time, value), newest last.
        self._slots: Dict[int, List[Tuple[float, float]]] = {}

    def write(self, core_index: int, value: float) -> None:
        history = self._slots.setdefault(core_index, [])
        history.append((self._sim.now, value))
        if len(history) > self._HISTORY:
            del history[0]

    def read(self, reader_core: int, target_core: int) -> Optional[float]:
        """Latest visible report of ``target_core`` as seen by ``reader_core``."""
        history = self._slots.get(target_core)
        if not history:
            return None
        if reader_core == target_core:
            return history[-1][1]
        visible_until = self._sim.now - self._draw_delay()
        for write_time, value in reversed(history):
            if write_time <= visible_until:
                return value
        # Everything in history is too new to be visible: the oldest
        # retained entry is the best the reader can observe.
        return history[0][1]


class ProbeController:
    """Shared detection state of a multi-thread prober.

    Thread bodies call :meth:`report` and :meth:`compare`; the controller
    keeps per-suspect edge state so each secure-world entry produces one
    :class:`ProbeDetection` and one :class:`ProbeClear`.
    """

    def __init__(
        self,
        machine: Machine,
        config: Optional[ProberConfig] = None,
        observer_cores: Optional[Sequence[int]] = None,
        target_cores: Optional[Sequence[int]] = None,
        threshold: Optional[float] = None,
        record_staleness: bool = False,
        expected_interval: Optional[float] = None,
    ) -> None:
        self.machine = machine
        self.config = config if config is not None else machine.config.prober
        all_cores = [core.index for core in machine.cores]
        self.observer_cores = list(observer_cores) if observer_cores is not None else all_cores
        self.target_cores = list(target_cores) if target_cores is not None else all_cores
        if not self.observer_cores or not self.target_cores:
            raise AttackError("prober needs at least one observer and one target")
        self.threshold = threshold if threshold is not None else self.config.detect_threshold
        #: the probe loop's nominal iteration interval; the self-gate
        #: (oversleep detector) is a multiple of this.
        self.expected_interval = (
            expected_interval if expected_interval is not None else self.config.tsleep
        )
        #: report gap (seconds) beyond which the observer counts as having
        #: overslept; neither factor is reassigned after construction.
        self._gate = self.config.self_gate_factor * self.expected_interval
        self._sim = machine.sim
        self.buffer = ProbeBuffer(machine, self.config)
        self._last_report: Dict[int, float] = {}
        #: gap between each observer's last two reports (oversleep gauge).
        self._report_gap: Dict[int, float] = {}
        #: per-observer time before which staleness evidence is distrusted.
        self._distrust_until: Dict[int, float] = {}
        #: freshest report value any observer has seen per target.  The
        #: probe threads share their buffer in normal memory, so pooling
        #: observations is free for the attacker and avoids re-triggering
        #: on one observer's stale (visibility-delayed) view after another
        #: observer already saw the core come back.
        self._latest_seen: Dict[int, float] = {}
        self._active_suspects: set = set()
        self.detections: List[ProbeDetection] = []
        self.clears: List[ProbeClear] = []
        self._detect_listeners: List[Callable[[ProbeDetection], None]] = []
        self._clear_listeners: List[Callable[[ProbeClear], None]] = []
        # --- statistics ---------------------------------------------------
        self.record_staleness = record_staleness
        self.staleness_samples: List[float] = []
        self.max_staleness = 0.0
        self.compare_rounds = 0
        self.gated_rounds = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_detect_listener(self, listener: Callable[[ProbeDetection], None]) -> None:
        self._detect_listeners.append(listener)

    def add_clear_listener(self, listener: Callable[[ProbeClear], None]) -> None:
        self._clear_listeners.append(listener)

    # ------------------------------------------------------------------
    # Time Reporter
    # ------------------------------------------------------------------
    def report(self, core_index: int) -> None:
        """Publish the shared counter value from ``core_index``."""
        now = self.machine.counter.read_seconds()
        previous = self._last_report.get(core_index)
        gap = now - previous if previous is not None else _INF
        self._report_gap[core_index] = gap
        if gap > self._gate:
            # Coming out of an oversleep: buffer entries of other cores may
            # lag by a worst-case coherence delay — distrust them briefly.
            self._distrust_until[core_index] = now + self.config.distrust_window
        self.buffer.write(core_index, now)
        self._last_report[core_index] = now

    # ------------------------------------------------------------------
    # Time Comparer
    # ------------------------------------------------------------------
    def compare(self, observer_core: int) -> List[ProbeDetection]:
        """Compare the observer's report against every target's.

        Returns the *new* detections from this sweep.  A sweep is
        self-gated when the observer itself overslept (its own previous
        report is old): the whole buffer is then uniformly stale and any
        difference says nothing about other cores.
        """
        now = self._sim.now
        self.compare_rounds += 1
        my_time = self._last_report.get(observer_core)
        if my_time is None:
            return []
        gate = self._gate
        # Self-gating: if the observer itself just overslept (long gap
        # between its last two reports) or its report is stale, the whole
        # buffer may be uniformly old — the sweep proves nothing.
        if (
            now - my_time > gate
            or self._report_gap.get(observer_core, _INF) > gate
            or now < self._distrust_until.get(observer_core, 0.0)
        ):
            self.gated_rounds += 1
            return []
        # Locals for the sweep; read stays a call (the visibility rule).
        read = self.buffer.read
        latest_seen = self._latest_seen
        suspects = self._active_suspects
        threshold = self.threshold
        new_detections: List[ProbeDetection] = []
        for target in self.target_cores:
            if target == observer_core:
                continue
            their_time = read(observer_core, target)
            if their_time is None:
                continue
            pooled = latest_seen.get(target)
            if pooled is None or their_time > pooled:
                latest_seen[target] = their_time
            else:
                their_time = pooled
            staleness = my_time - their_time
            if self.record_staleness and target not in suspects:
                self.staleness_samples.append(staleness)
                if staleness > self.max_staleness:
                    self.max_staleness = staleness
            if staleness > threshold:
                if target not in suspects:
                    suspects.add(target)
                    detection = ProbeDetection(now, observer_core, target, staleness)
                    self.detections.append(detection)
                    new_detections.append(detection)
                    self.machine.metrics.counter("attack.probe_detections").inc()
                    self.machine.trace.emit(
                        now, "prober", "core suspected in secure world",
                        observer=observer_core, suspect=target,
                        staleness=staleness,
                    )
                    for listener in self._detect_listeners:
                        listener(detection)
            elif target in suspects:
                suspects.discard(target)
                clear = ProbeClear(now, observer_core, target)
                self.clears.append(clear)
                self.machine.trace.emit(
                    now, "prober", "suspected core reported again",
                    observer=observer_core, suspect=target,
                )
                for listener in self._clear_listeners:
                    listener(clear)
        return new_detections

    # ------------------------------------------------------------------
    @property
    def active_suspects(self) -> frozenset:
        return frozenset(self._active_suspects)

    def reset_staleness_stats(self) -> None:
        self.staleness_samples = []
        self.max_staleness = 0.0


def iter_probe_cores(machine: Machine, cores: Optional[Iterable[int]]) -> List[int]:
    """Normalise an optional core list to concrete indices."""
    if cores is None:
        return [core.index for core in machine.cores]
    return list(cores)
