"""Shared experiment plumbing: stack builders and result records.

Every experiment driver builds a fresh, seeded machine so runs are
reproducible and independent.  ``Stack`` bundles the components an
experiment typically needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.attacks.kprober2 import KProberII
from repro.attacks.oracle import ProberAccelerationOracle
from repro.attacks.rootkit import PersistentRootkit
from repro.attacks.evader import TZEvader
from repro.config import MachineConfig, SatinConfig, juno_r1_config
from repro.errors import ConfigurationError
from repro.core.satin import Satin
from repro.hw.platform import Machine, build_machine
from repro.kernel.os import RichOS, boot_rich_os


@dataclass
class Stack:
    """A booted machine with optional defence and attack components."""

    machine: Machine
    rich_os: RichOS
    satin: Optional[Satin] = None
    prober: Optional[KProberII] = None
    rootkit: Optional[PersistentRootkit] = None
    evader: Optional[TZEvader] = None
    oracle: Optional[ProberAccelerationOracle] = None

    def run(self, until: Optional[float] = None) -> None:
        self.machine.run(until=until)


def build_stack(
    seed: Optional[int] = None,
    machine_config: Optional[MachineConfig] = None,
    satin_config: Optional[SatinConfig] = None,
    with_satin: bool = False,
    with_evader: bool = False,
    accelerate: bool = True,
) -> Stack:
    """Boot a full stack: machine + rich OS [+ SATIN] [+ TZ-Evader].

    Seed precedence: with only ``seed``, a ``juno_r1_config(seed)`` machine
    is built (``seed=None`` means the default 2019); with only
    ``machine_config``, its embedded ``seed`` is authoritative; passing
    both is allowed only when they agree — a conflict raises
    :class:`~repro.errors.ConfigurationError` rather than silently
    re-seeding, because a silently re-seeded config would hash to a
    different campaign cache key than the one that was requested.

    SATIN's trusted boot runs *before* the rootkit installs, matching the
    paper's threat model (the boot-time kernel is benign).
    """
    if machine_config is None:
        config = juno_r1_config(2019 if seed is None else seed)
    elif seed is not None and seed != machine_config.seed:
        raise ConfigurationError(
            f"conflicting seeds: build_stack(seed={seed}) vs "
            f"machine_config.seed={machine_config.seed}; pass one, or make "
            f"them agree (e.g. machine_config.with_seed({seed}))"
        )
    else:
        config = machine_config
    machine = build_machine(config)
    rich_os = boot_rich_os(machine)
    stack = Stack(machine=machine, rich_os=rich_os)
    if with_satin:
        stack.satin = Satin(machine, rich_os, config=satin_config).install()
    if with_evader:
        stack.oracle = ProberAccelerationOracle(machine) if accelerate else None
        stack.prober = KProberII(machine, rich_os, oracle=stack.oracle).install()
        stack.rootkit = PersistentRootkit(machine, rich_os)
        stack.evader = TZEvader(
            machine, rich_os, stack.rootkit, stack.prober.controller
        ).start()
    return stack


def run_while(
    machine: Machine,
    pending: Callable[[], bool],
    step: float,
    max_steps: Optional[int] = None,
) -> None:
    """Run ``machine`` in ``step``-second slices while ``pending()`` holds.

    ``pending()`` is checked before every slice; ``max_steps`` (if given)
    caps the slices so a misconfigured run still terminates.
    """
    steps = 0
    while pending() and (max_steps is None or steps < max_steps):
        machine.run_for(step)
        steps += 1


def secure_entry_times(machine: Machine) -> List[float]:
    """Simulated times of every secure-world entry the monitor traced."""
    return [
        r.time for r in machine.trace.records("monitor")
        if r.message == "secure entry begins"
    ]


@dataclass
class ExperimentResult:
    """Uniform result record: an id, rendered text, and raw values."""

    experiment_id: str
    title: str
    rendered: str
    values: Dict[str, Any] = field(default_factory=dict)
    comparisons: List[Dict[str, Any]] = field(default_factory=list)

    def compare(self, quantity: str, paper: Any, measured: Any) -> None:
        """Record one paper-vs-measured row."""
        self.comparisons.append(
            {"quantity": quantity, "paper": paper, "measured": measured}
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.rendered
