"""Experiment A1 — ablations over SATIN's design choices (Section V).

Each variant removes one SATIN ingredient and faces the strongest matching
attacker; the metric is the detection rate over scans of the trace area
plus the attack's utility (captured syscalls stay possible?).

* ``satin``          — the full mechanism (reference).
* ``fixed-core``     — random core off: one core does all rounds.  The
  normal world probes a *known* core with ~4x better accuracy.
* ``fixed-period``   — random deviation off: a PredictiveEvader learns the
  schedule and hides ahead of time instead of racing.
* ``whole-kernel``   — no divide-and-conquer: the Section IV-C race is
  lost for ~90% of the kernel.
* ``packed-areas``   — sections greedily merged up to the safety bound:
  fewer, larger rounds; still safe, but each round steals more core time.
* ``preemptible``    — NS-interrupt blocking off (Section V-B): an
  interrupt-storm attacker stretches rounds beyond the race bound,
  breaking the SATIN guarantee even when this particular trace is still
  caught (it sits near its area's start).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.tables import pct, render_table
from repro.attacks.evader import TZEvader
from repro.attacks.kprober2 import KProberII
from repro.attacks.oracle import ProberAccelerationOracle
from repro.attacks.predictor import PredictiveEvader
from repro.attacks.rootkit import PersistentRootkit
from repro.config import SatinConfig
from repro.core.satin import Satin
from repro.experiments.common import ExperimentResult, build_stack, run_while


@dataclass
class AblationOutcome:
    """One variant's campaign result."""

    variant: str
    trace_scans: int
    detections: int
    hide_attempts: int
    proactive_hides: int
    rounds: int
    #: longest single round duration vs the race-model safety window:
    #: rounds longer than the window void the SATIN guarantee.
    max_round_duration: float = 0.0
    safety_window: float = 0.0

    @property
    def detection_rate(self) -> float:
        if self.trace_scans == 0:
            return 0.0
        return self.detections / self.trace_scans

    @property
    def guarantee_factor(self) -> float:
        """max round duration / attacker reaction window.

        <= 1 means every round beat the Eq. 2 window outright.  Values
        slightly above 1 occur for the largest areas scanned by A53 cores
        — the paper derives its bound from the A57 per-byte speed, a
        big.LITTLE oversight this reproduction surfaces (EXPERIMENTS.md).
        Values far above 1 mean the guarantee is genuinely gone.
        """
        if self.safety_window <= 0:
            return float("inf")
        return self.max_round_duration / self.safety_window

    @property
    def guarantee_holds(self) -> bool:
        """Within the window up to the documented A53 slack."""
        return self.guarantee_factor <= 1.3


def _variant_config(variant: str, tgoal: float) -> SatinConfig:
    if variant == "satin":
        return SatinConfig(tgoal=tgoal)
    if variant == "fixed-core":
        return SatinConfig(tgoal=tgoal, random_core=False)
    if variant == "fixed-period":
        return SatinConfig(tgoal=tgoal, random_deviation=False)
    if variant == "whole-kernel":
        return SatinConfig(
            tgoal=tgoal / 19, partition_mode="whole", enforce_area_bound=False
        )
    if variant == "packed-areas":
        return SatinConfig(tgoal=tgoal, partition_mode="packed",
                           max_area_size=1_218_351)
    if variant == "preemptible":
        return SatinConfig(tgoal=tgoal, block_ns_interrupts=False)
    raise ValueError(f"unknown variant {variant!r}")


def run_ablation_variant(
    variant: str,
    seed: int = 2019,
    trace_scans_wanted: int = 6,
    tgoal: float = 19.0 * 2.0,
) -> AblationOutcome:
    """Run one variant against its strongest matching evader."""
    stack = build_stack(seed=seed)
    machine, rich_os = stack.machine, stack.rich_os
    satin = Satin(machine, rich_os, config=_variant_config(variant, tgoal)).install()
    oracle = ProberAccelerationOracle(machine)
    # Against a fixed core the attacker probes just that core (E6: ~4x
    # sharper threshold).
    if variant == "fixed-core":
        threshold = machine.config.prober.detect_threshold / 4.0
        prober = KProberII(
            machine, rich_os, oracle=oracle, threshold=threshold
        ).install()
    else:
        prober = KProberII(machine, rich_os, oracle=oracle).install()
    rootkit = PersistentRootkit(machine, rich_os)
    if variant == "preemptible":
        from repro.attacks.irq_storm import IrqStormAttacker

        IrqStormAttacker(machine, interval=1e-5).start()
    if variant == "fixed-period":
        evader: TZEvader = PredictiveEvader(
            machine, rich_os, rootkit, prober.controller
        ).start()
    else:
        evader = TZEvader(machine, rich_os, rootkit, prober.controller).start()

    trace_offset = rootkit.traces[0].offset
    trace_area = next(a for a in satin.areas if a.contains(trace_offset))
    run_while(
        machine,
        lambda: len(satin.checker.results_for_area(trace_area.index)) < trace_scans_wanted,
        satin.policy.tp, trace_scans_wanted * 100,
    )

    scans = satin.checker.results_for_area(trace_area.index)[:trace_scans_wanted]
    durations = [r.duration for r in satin.checker.results]
    return AblationOutcome(
        variant=variant,
        trace_scans=len(scans),
        detections=sum(1 for s in scans if not s.match),
        hide_attempts=evader.hide_attempts,
        proactive_hides=getattr(evader, "proactive_hides", 0),
        rounds=satin.round_count,
        max_round_duration=max(durations) if durations else 0.0,
        safety_window=satin.race.tns_delay + satin.race.tns_recover,
    )


ABLATION_VARIANTS = (
    "satin", "fixed-core", "fixed-period", "whole-kernel", "packed-areas",
    "preemptible",
)


def run_ablations(
    seed: int = 2019,
    trace_scans_wanted: int = 6,
    variants: Optional[List[str]] = None,
) -> ExperimentResult:
    """Run the full ablation sweep."""
    chosen = variants if variants is not None else list(ABLATION_VARIANTS)
    outcomes: Dict[str, AblationOutcome] = {
        v: run_ablation_variant(v, seed=seed, trace_scans_wanted=trace_scans_wanted)
        for v in chosen
    }
    rows = []
    for variant, outcome in outcomes.items():
        rows.append(
            [
                variant,
                str(outcome.trace_scans),
                str(outcome.detections),
                pct(outcome.detection_rate, 1),
                str(outcome.hide_attempts),
                str(outcome.proactive_hides),
                f"{outcome.guarantee_factor:.2f}x"
                + ("" if outcome.guarantee_holds else " VIOLATED"),
            ]
        )
    result = ExperimentResult(
        experiment_id="A1",
        title="SATIN design-choice ablations vs the strongest matching evader",
        rendered=render_table(
            ("variant", "trace scans", "detections", "detection rate",
             "hides", "proactive", "round/bound"),
            rows,
        ),
        values={"outcomes": outcomes},
    )
    if "satin" in outcomes:
        result.compare("satin detection rate", 1.0, outcomes["satin"].detection_rate)
    if "whole-kernel" in outcomes:
        result.compare(
            "whole-kernel detection rate", 0.10,
            outcomes["whole-kernel"].detection_rate,
        )
    return result
