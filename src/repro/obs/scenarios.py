"""Named trace scenarios for ``python -m repro trace``.

A scenario is a reproducible stack recipe plus a pacing rule: build the
machine, run long enough for the interesting dynamics to appear, and
hand the recorder's records to the exporters.  ``figure4`` is the
headline: SATIN's randomized introspection racing the KProber-II /
TZ-Evader hide-and-restore loop — the very race of the paper's
Figure 3/4, inspectable span-by-span in ``ui.perfetto.dev``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import preset_config
from repro.errors import ObservabilityError
from repro.experiments.common import Stack, build_stack, run_while
from repro.sim.tracing import TraceRecord


@dataclass(frozen=True)
class TraceScenario:
    """One runnable trace recipe."""

    name: str
    title: str
    with_satin: bool
    with_evader: bool


SCENARIOS: Dict[str, TraceScenario] = {
    scenario.name: scenario
    for scenario in (
        TraceScenario(
            "figure4",
            "SATIN introspection vs TZ-Evader hide/restore (the Figure-4 race)",
            with_satin=True,
            with_evader=True,
        ),
        TraceScenario(
            "baseline",
            "SATIN rounds on a benign kernel (no attacker)",
            with_satin=True,
            with_evader=False,
        ),
        TraceScenario(
            "idle",
            "rich OS only: scheduler and timer activity",
            with_satin=False,
            with_evader=False,
        ),
    )
}


def scenario_by_name(name: str) -> TraceScenario:
    try:
        return SCENARIOS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ObservabilityError(
            f"unknown trace scenario {name!r} (known: {known})"
        ) from None


def build_scenario_stack(
    scenario: TraceScenario, seed: int = 2019, preset: str = "juno_r1"
) -> Stack:
    return build_stack(
        machine_config=preset_config(preset, seed=seed),
        with_satin=scenario.with_satin,
        with_evader=scenario.with_evader,
    )


def run_scenario(
    stack: Stack,
    scenario: TraceScenario,
    duration: Optional[float] = None,
    rounds: int = 4,
) -> None:
    """Advance the stack far enough to make the trace interesting.

    ``duration`` (simulated seconds) wins when given; otherwise run until
    ``rounds`` introspection rounds completed (capped at 20x the expected
    span so a misconfigured run terminates) or, without SATIN, for one
    second of simulated time.
    """
    machine = stack.machine
    if duration is not None:
        machine.run_for(duration)
        return
    if stack.satin is None:
        machine.run_for(1.0)
        return
    tp = stack.satin.policy.tp
    deadline = machine.now + max(rounds, 1) * tp * 20.0
    run_while(machine, lambda: stack.satin.round_count < rounds and machine.now < deadline, tp)


def scenario_records(stack: Stack) -> List[TraceRecord]:
    return list(stack.machine.trace.records())
