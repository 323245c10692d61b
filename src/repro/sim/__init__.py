"""Discrete-event simulation substrate.

Exports the simulator core, coroutine process machinery, deterministic RNG
registry, timing-noise distributions, and the trace recorder.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "BoundedPareto": "repro.sim.distributions",
    "Constant": "repro.sim.distributions",
    "Distribution": "repro.sim.distributions",
    "LogNormalJitter": "repro.sim.distributions",
    "Shifted": "repro.sim.distributions",
    "SpikeMixture": "repro.sim.distributions",
    "Uniform": "repro.sim.distributions",
    "inverse_cdf": "repro.sim.distributions",
    "Event": "repro.sim.events",
    "EventQueue": "repro.sim.events",
    "CoroutineDriver": "repro.sim.process",
    "CpuRequest": "repro.sim.process",
    "Signal": "repro.sim.process",
    "SimCoroutine": "repro.sim.process",
    "SleepRequest": "repro.sim.process",
    "WaitRequest": "repro.sim.process",
    "cpu": "repro.sim.process",
    "run_coroutine": "repro.sim.process",
    "sleep": "repro.sim.process",
    "wait": "repro.sim.process",
    "RngRegistry": "repro.sim.rng",
    "derive_seed": "repro.sim.rng",
    "Simulator": "repro.sim.simulator",
    "TraceRecord": "repro.sim.tracing",
    "TraceRecorder": "repro.sim.tracing",
})

__all__ = [
    "BoundedPareto",
    "Constant",
    "CoroutineDriver",
    "CpuRequest",
    "Distribution",
    "Event",
    "EventQueue",
    "LogNormalJitter",
    "RngRegistry",
    "Shifted",
    "Signal",
    "SimCoroutine",
    "Simulator",
    "SleepRequest",
    "SpikeMixture",
    "TraceRecord",
    "TraceRecorder",
    "Uniform",
    "WaitRequest",
    "cpu",
    "derive_seed",
    "inverse_cdf",
    "run_coroutine",
    "sleep",
    "wait",
]
