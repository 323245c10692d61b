"""EL3 secure monitor: world switching and secure payload execution.

The monitor is the only software allowed to move a core between worlds.  A
secure (timer) interrupt arrives here; the monitor then

1. freezes the normal world on that core *immediately* (context saving
   starts — this is the instant ``t_start`` in the paper's Figure 3),
2. charges one ``Ts_switch`` world-switch delay,
3. runs the registered S-EL1 payload coroutine to completion on the core,
4. charges the return switch and hands the core back to the normal world,
   flushing any interrupts that pended meanwhile.

Payload coroutines yield ``cpu(...)`` requests; the monitor executes them
uncontended (the secure world owns the core outright).  In *preemptive*
secure mode (an OP-TEE-style configuration SATIN deliberately avoids) a
non-secure interrupt may pause the payload mid-request; the pause costs two
world switches plus the handler's execution before the payload resumes —
time an attacker can exploit, which is exactly why SATIN blocks NS
interrupts for the duration of a round (ablated in the benchmarks).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import HardwareError, SimulationError
from repro.hw.core import Core
from repro.hw.gic import Gic
from repro.hw.world import World
from repro.sim.events import Event, SpanEvent
from repro.sim.process import CpuBatchRequest, CpuRequest, SimCoroutine, SleepRequest
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceRecorder

#: Type of a secure payload: given the core it runs on, yields cpu requests.
SecurePayload = Callable[[Core], SimCoroutine]


class SecureExecution:
    """Drives one secure payload coroutine on a core it owns.

    Supports mid-request pausing for the preemptive-secure-mode ablation:
    progress within the current ``cpu`` request is accounted and the
    remainder re-scheduled after the pause.
    """

    __slots__ = (
        "monitor", "core", "gen", "_event", "_request_started",
        "_request_remaining", "_paused", "finished",
    )

    def __init__(self, monitor: "SecureMonitor", core: Core, gen: SimCoroutine) -> None:
        self.monitor = monitor
        self.core = core
        self.gen = gen
        self._event: Optional[Event] = None
        self._request_started = 0.0
        self._request_remaining = 0.0
        self._paused = False
        self.finished = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._advance(None)

    def _advance(self, send_value: object) -> None:
        sim = self.monitor.sim
        try:
            request = self.gen.send(send_value)
        except StopIteration:
            self.finished = True
            self.monitor._payload_finished(self.core)
            return
        if isinstance(request, (CpuRequest, SleepRequest)):
            seconds = request.seconds
            self._request_started = sim.now
            self._request_remaining = seconds
            self._event = sim.schedule(seconds, self._request_done)
        elif isinstance(request, CpuBatchRequest):
            # A fused scan: one span event covers the whole chunk run.  Only
            # issued when NS interrupts are blocked, so it can never need the
            # mid-request pause path (pause() refuses span events anyway).
            times = request.chunk_times
            self._request_started = sim.now
            self._request_remaining = times[-1] - sim.now
            self._event = sim.schedule_span(times, self._request_done)
        else:
            raise SimulationError(
                f"secure payload may only yield cpu()/sleep(), got {request!r}"
            )

    def _request_done(self) -> None:
        self._event = None
        self._request_remaining = 0.0
        self._advance(None)

    # ------------------------------------------------------------------
    # Preemptive-mode support
    # ------------------------------------------------------------------
    def pause(self) -> bool:
        """Suspend the current request; returns False if not pausable."""
        if self.finished or self._paused or self._event is None:
            return False
        if isinstance(self._event, SpanEvent):
            # Fused chunk runs are indivisible; the GIC pends the interrupt.
            return False
        elapsed = self.monitor.sim.now - self._request_started
        self._request_remaining = max(self._request_remaining - elapsed, 0.0)
        self._event.cancel()
        self._event = None
        self._paused = True
        return True

    def resume(self) -> None:
        """Resume the paused request for its remaining duration."""
        if not self._paused:
            raise SimulationError("resume() without a matching pause()")
        self._paused = False
        sim = self.monitor.sim
        self._request_started = sim.now
        self._event = sim.schedule(self._request_remaining, self._request_done)


class SecureMonitor:
    """The EL3 firmware: owns every world transition."""

    def __init__(
        self,
        sim: Simulator,
        gic: Gic,
        trace: TraceRecorder,
        metrics: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.gic = gic
        self.trace = trace
        self.metrics = metrics
        self._handlers: Dict[int, SecurePayload] = {}
        self._executions: Dict[int, SecureExecution] = {}
        #: entry time of every core the normal world has lost, keyed by core
        #: index: set before the enter hooks run, popped in ``_exit_secure``
        #: before the exit hooks run — exactly the cores that are secure or
        #: transitioning.
        self._entry_started: Dict[int, float] = {}
        gic.attach_monitor(self)
        #: Optional fault hook: extra seconds added to each world-switch
        #: (SMC entry/exit latency spikes).  Installed only by
        #: :mod:`repro.faults`; ``None`` keeps the baseline cost model.
        self.switch_fault: Optional[Callable[[Core], float]] = None
        # --- statistics -------------------------------------------------
        self.switches_to_secure = 0
        self.preemptions = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def register_secure_handler(self, intid: int, payload: SecurePayload) -> None:
        """Install the S-EL1 payload run when secure interrupt ``intid`` fires."""
        self._handlers[intid] = payload
        self.gic.register_secure_handler(intid, lambda core, i: None)

    # ------------------------------------------------------------------
    # Entry paths
    # ------------------------------------------------------------------
    def handle_secure_interrupt(self, core: Core, intid: int) -> None:
        """GIC delivered a secure interrupt to a normal-world core."""
        payload = self._handlers.get(intid)
        if payload is None:
            raise HardwareError(f"no secure handler registered for interrupt {intid}")
        self._begin_entry(core, payload)

    def request_secure_entry(self, core: Core, payload: SecurePayload) -> None:
        """Programmatic secure entry (SMC-like), used by measurement harnesses."""
        if not core.available_to_normal_world:
            raise HardwareError(f"core {core.index} is not in the normal world")
        self._begin_entry(core, payload)

    def _begin_entry(self, core: Core, payload: SecurePayload) -> None:
        if core.world is not World.NORMAL or core.transitioning:
            raise HardwareError(
                f"world switch requested on core {core.index} in state "
                f"{core.world}/{core.transitioning}"
            )
        self.switches_to_secure += 1
        core.transitioning = True
        self._entry_started[core.index] = self.sim.now
        core.notify_enter_secure()  # the normal world loses the core NOW
        switch_cost = core.perf.world_switch()
        if self.switch_fault is not None:
            switch_cost += self.switch_fault(core)
        if self.metrics is not None:
            self.metrics.counter("monitor.world_switches").inc()
            self.metrics.histogram("monitor.switch_cost_seconds").observe(switch_cost)
        self.trace.emit(self.sim.now, "monitor", "secure entry begins",
                        core=core.index, switch_cost=switch_cost)
        self.sim.schedule(switch_cost, self._enter_secure, core, payload)

    def _enter_secure(self, core: Core, payload: SecurePayload) -> None:
        core.transitioning = False
        core.world = World.SECURE
        execution = SecureExecution(self, core, payload(core))
        self._executions[core.index] = execution
        execution.start()

    def _payload_finished(self, core: Core) -> None:
        self._executions.pop(core.index, None)
        core.transitioning = True
        core.world = World.SECURE  # still secure during the return switch
        switch_cost = core.perf.world_switch()
        if self.switch_fault is not None:
            switch_cost += self.switch_fault(core)
        if self.metrics is not None:
            self.metrics.counter("monitor.world_switches").inc()
            self.metrics.histogram("monitor.switch_cost_seconds").observe(switch_cost)
        self.sim.schedule(switch_cost, self._exit_secure, core)

    def _exit_secure(self, core: Core) -> None:
        core.world = World.NORMAL
        core.transitioning = False
        entered_at = self._entry_started.pop(core.index, None)
        if self.metrics is not None and entered_at is not None:
            self.metrics.histogram("monitor.secure_residency_seconds").observe(
                self.sim.now - entered_at
            )
        self.trace.emit(self.sim.now, "monitor", "normal world resumed", core=core.index)
        core.notify_exit_secure()
        self.gic.flush_pending(core)

    # ------------------------------------------------------------------
    # Preemptive secure mode (the configuration SATIN avoids)
    # ------------------------------------------------------------------
    def preempt_secure(self, core: Core, intid: int) -> bool:
        """Pause secure execution to service NS interrupt ``intid``.

        Returns False when the payload cannot be paused right now (the GIC
        then pends the interrupt instead).  The pause costs two world
        switches plus the NS handler's execution.
        """
        execution = self._executions.get(core.index)
        if execution is None or not execution.pause():
            return False
        self.preemptions += 1
        if self.metrics is not None:
            self.metrics.counter("monitor.preemptions").inc()
        out_switch = core.perf.world_switch()
        handler_cost = core.perf.tick()
        in_switch = core.perf.world_switch()
        pause_total = out_switch + handler_cost + in_switch
        self.trace.emit(self.sim.now, "monitor", "secure execution preempted",
                        core=core.index, intid=intid, pause=pause_total)
        handler = self.gic._ns_handlers.get(intid)

        def _back_to_secure() -> None:
            execution.resume()

        def _run_ns_handler() -> None:
            if handler is not None:
                handler(core, intid)
            self.sim.schedule(handler_cost + in_switch, _back_to_secure)

        self.sim.schedule(out_switch, _run_ns_handler)
        return True

    # ------------------------------------------------------------------
    def any_core_lost(self) -> bool:
        """True while any core is in (or moving to/from) the secure world."""
        return bool(self._entry_started)

    def secure_execution_on(self, core_index: int) -> Optional[SecureExecution]:
        """The active secure execution on a core, if any (harness use)."""
        return self._executions.get(core_index)
