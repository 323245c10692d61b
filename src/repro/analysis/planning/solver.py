"""Closed-form race-model solver (Eq. 1/2, WCRT-style envelopes).

The E7 Monte-Carlo layer (:func:`repro.experiments.race_analysis.
run_race_analysis`) draws the race's quantities from calibrated
distributions and counts escapes.  This module answers the same
questions directly from the equations, two ways:

* **Envelopes** — evaluate Eq. 2 at the extreme points of each
  distribution's support, giving hard best/worst-case bounds that
  contain every Monte-Carlo estimate (the WCRT-style analysis: no
  sampled timing tuple can fall outside its distribution's support, so
  the per-trial escape probability is bracketed pathwise).
* **Quadrature** — a small tensor-product midpoint rule in quantile
  space over the sampled distributions, with the inner integral over
  the uniform wake-up delay done in closed form (the escape probability
  is piecewise linear in ``tns_sched``).  This lands within Monte-Carlo
  noise of the 20k-trial E7 estimate at a few hundred evaluations.

Conventions mirror the E7 recipe exactly: the checker runs on the last
cluster (A57 on Juno), ``tns_sched ~ U(0, tsleep)``, the probing
threshold is the calibrated constant, and the trace position is uniform
over the scanned span.  A trace at position ``S`` escapes iff

    Ts_switch + S * Ts_1byte > Tns_sched + Tns_threshold + Tns_recover

so conditioned on the timing tuple the escape probability over a span
of ``K`` bytes is ``(K - clamp(B, 0, K)) / K`` with
``B = (Tns_sched + Tns_threshold + Tns_recover - Ts_switch) / Ts_1byte``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import MachineConfig
from repro.core.race import scan_budget
from repro.errors import ConfigurationError
from repro.sim.distributions import Distribution, inverse_cdf

__all__ = [
    "Interval",
    "RaceModel",
    "conditional_escape_probability",
    "escape_probability_bounds",
    "escape_probability_estimate",
    "detection_latency_bounds",
    "scan_overhead_bounds",
    "safe_area_bounds",
    "PresetSolution",
    "solve_preset",
]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` — the solver's bound type."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ConfigurationError(
                f"interval lower bound {self.lo!r} exceeds upper {self.hi!r}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        """Is ``x`` inside the interval (widened by ``slack`` each side)?"""
        return self.lo - slack <= x <= self.hi + slack

    def straddles(self, threshold: float) -> bool:
        """Does the interval contain ``threshold`` strictly inside?

        A straddled decision threshold means the envelope alone cannot
        answer the question — the config is *contested* and needs
        simulation seeds.
        """
        return self.lo < threshold < self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def as_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}


def _support(dist: Distribution) -> Tuple[float, float]:
    lo, hi = dist.support()
    if lo > hi:  # defensive; distributions guarantee lo <= hi
        lo, hi = hi, lo
    return lo, hi


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RaceModel:
    """The race's quantities for one platform, as distributions.

    Mirrors what ``run_race_analysis`` samples per trial: the checker's
    world-switch / per-byte / recovery timing from the *last* cluster
    (the one the secure checker runs on), a uniform wake-up delay in
    ``[0, tsleep]``, and the constant probing threshold.
    """

    ts_switch: Distribution
    ts_1byte: Distribution
    tns_recover: Distribution
    tsleep: float
    tns_threshold: float
    kernel_size: int

    @classmethod
    def from_machine(cls, machine_cfg: MachineConfig) -> "RaceModel":
        timing = machine_cfg.clusters[-1].timing
        return cls(
            ts_switch=timing.world_switch,
            ts_1byte=timing.hash_byte,
            tns_recover=timing.recover_trace_8b,
            tsleep=machine_cfg.prober.tsleep,
            tns_threshold=machine_cfg.prober.detect_threshold,
            kernel_size=machine_cfg.kernel.image_size,
        )

    def span_or_default(self, span: Optional[float]) -> float:
        value = self.kernel_size if span is None else span
        if value <= 0:
            raise ConfigurationError("scan span must be positive")
        return float(value)


# ----------------------------------------------------------------------
def conditional_escape_probability(
    span: float,
    ts_switch: float,
    ts_1byte: float,
    tns_sched: float,
    tns_threshold: float,
    tns_recover: float,
) -> float:
    """P(escape | timing tuple) for a uniform trace position over ``span``.

    This is the Rao–Blackwellised per-trial quantity: the Monte-Carlo
    indicator ``evasion_succeeds(params, position)`` has exactly this
    conditional expectation, so its average over trials estimates the
    same escape probability with strictly lower variance.
    """
    budget = scan_budget(tns_sched, tns_threshold, tns_recover, ts_switch)
    if ts_1byte <= 0:
        # Infinitely fast checker: every position is reached instantly
        # after the switch; the attacker escapes only via the switch cost.
        return 1.0 if budget < 0 else 0.0
    bound = budget / ts_1byte
    clamped = min(max(bound, 0.0), span)
    return (span - clamped) / span


def escape_probability_bounds(
    model: RaceModel, span: Optional[float] = None
) -> Interval:
    """Hard envelope on the escape probability over a ``span``-byte scan.

    Evaluated at the support corners of every distribution: the escape
    probability is monotone decreasing in the Eq. 2 bound ``B``, which
    is monotone in each timing quantity, so the extremes of ``B`` (and
    hence of the escape probability) occur at support endpoints.
    """
    span = model.span_or_default(span)
    sw_lo, sw_hi = _support(model.ts_switch)
    t1b_lo, t1b_hi = _support(model.ts_1byte)
    rc_lo, rc_hi = _support(model.tns_recover)
    thr = model.tns_threshold

    # Largest B (most protection): slowest attacker, fastest checker.
    num_hi = scan_budget(model.tsleep, thr, rc_hi, sw_lo)
    if t1b_lo > 0:
        b_hi = num_hi / t1b_lo
    else:
        b_hi = math.inf if num_hi > 0 else 0.0
    # Smallest B (least protection): fastest attacker, slowest checker.
    b_lo = scan_budget(0.0, thr, rc_lo, sw_hi) / t1b_hi if t1b_hi > 0 else 0.0

    escape_lo = (span - min(max(b_hi, 0.0), span)) / span
    escape_hi = (span - min(max(b_lo, 0.0), span)) / span
    return Interval(lo=escape_lo, hi=escape_hi)


def _quantile_nodes(dist: Distribution, nodes: int) -> List[float]:
    """Midpoint-rule nodes in quantile space (equal-mass strata)."""
    lo, hi = _support(dist)
    if lo == hi:
        return [lo]
    return [inverse_cdf(dist, (i + 0.5) / nodes) for i in range(nodes)]


def _mean_escape_over_sched(
    span: float,
    ts_switch: float,
    ts_1byte: float,
    tns_threshold: float,
    tns_recover: float,
    tsleep: float,
) -> float:
    """E[P(escape)] over ``tns_sched ~ U(0, tsleep)``, in closed form.

    With the other quantities fixed, ``B(s) = (s + c) / t1b`` is linear
    in the wake-up delay ``s`` (``c = thr + recover - switch``), so the
    clamped escape probability ``clamp(1 - B(s)/span, 0, 1)`` is
    piecewise linear and integrates exactly.
    """
    if ts_1byte <= 0 or tsleep <= 0:
        return conditional_escape_probability(
            span, ts_switch, ts_1byte, 0.0, tns_threshold, tns_recover
        )
    c = scan_budget(0.0, tns_threshold, tns_recover, ts_switch)
    d = span * ts_1byte  # seconds to scan the whole span
    # f(s) = 1 - (s + c)/d, clamped to [0, 1]; f >= 1 for s <= -c,
    # f <= 0 for s >= d - c.
    a = min(max(-c, 0.0), tsleep)  # plateau at 1 ends here
    b = min(max(d - c, a), tsleep)  # linear part ends here
    # integral of f over [a, b]:
    linear = (b - a) - ((b + c) ** 2 - (a + c) ** 2) / (2.0 * d)
    return (a + linear) / tsleep


def escape_probability_estimate(
    model: RaceModel, span: Optional[float] = None, nodes: int = 12
) -> float:
    """Quadrature estimate of the escape probability (not a bound).

    Tensor-product midpoint rule over the three sampled distributions
    with the wake-up-delay dimension integrated in closed form.  At the
    default 12 nodes per dimension this is ~1.7k evaluations and agrees
    with the 20k-trial E7 Monte-Carlo to well under a percentage point.
    """
    span = model.span_or_default(span)
    sw_nodes = _quantile_nodes(model.ts_switch, nodes)
    t1b_nodes = _quantile_nodes(model.ts_1byte, nodes)
    rc_nodes = _quantile_nodes(model.tns_recover, nodes)
    total = 0.0
    for sw in sw_nodes:
        for t1b in t1b_nodes:
            for rc in rc_nodes:
                total += _mean_escape_over_sched(
                    span, sw, t1b, model.tns_threshold, rc, model.tsleep
                )
    return total / (len(sw_nodes) * len(t1b_nodes) * len(rc_nodes))


# ----------------------------------------------------------------------
def safe_area_bounds(model: RaceModel) -> Interval:
    """Envelope on the Eq. 2 / Section V-B safe-area-size bound (bytes).

    ``hi`` is the bound under the friendliest timings (slow attacker,
    fast checker), ``lo`` under the harshest.  An area no larger than
    ``lo`` is safe for *every* timing draw inside the supports.
    """
    sw_lo, sw_hi = _support(model.ts_switch)
    t1b_lo, t1b_hi = _support(model.ts_1byte)
    rc_lo, rc_hi = _support(model.tns_recover)
    thr = model.tns_threshold
    num_hi = scan_budget(model.tsleep, thr, rc_hi, sw_lo)
    num_lo = scan_budget(0.0, thr, rc_lo, sw_hi)
    hi = num_hi / t1b_lo if t1b_lo > 0 else (math.inf if num_hi > 0 else 0.0)
    lo = max(num_lo / t1b_hi if t1b_hi > 0 else 0.0, 0.0)
    return Interval(lo=lo, hi=max(hi, lo))


def detection_latency_bounds(
    model: RaceModel,
    area_count: int,
    tgoal: float,
    deviation_fraction: float = 1.0,
    area_size: Optional[float] = None,
) -> Interval:
    """Envelope on the gap between consecutive scans of one fixed area.

    SATIN scans one area per round at a base period ``tp = tgoal / m``
    with each round's start randomised inside ``±deviation_fraction*tp``
    and the area order re-randomised per pass (Section V-C), so
    consecutive visits to the same area are nominally one full pass
    (``m * tp``) apart:

    * best case — the area drawn last in one pass and first in the
      next, one round apart, with both deviations closing the gap:
      ``max(0, (1 - 2d) * tp)``;
    * worst case — drawn first in one pass and last in the next
      (``2m - 1`` rounds), both deviations widening the gap, plus the
      scan itself.

    The E9 "avg area gap" metric is the empirical mean of exactly this
    quantity, so the envelope must contain it (pathwise: every single
    gap is inside the envelope, hence so is any average of gaps).
    """
    if area_count <= 0:
        raise ConfigurationError("area_count must be positive")
    if tgoal <= 0:
        raise ConfigurationError("tgoal must be positive")
    tp = tgoal / area_count
    d = max(deviation_fraction, 0.0)
    if area_size is None:
        area_size = model.kernel_size / area_count
    _, t1b_hi = _support(model.ts_1byte)
    _, sw_hi = _support(model.ts_switch)
    scan_cost_hi = area_size * t1b_hi + 2.0 * sw_hi

    lo = max(0.0, (1.0 - 2.0 * d) * tp)
    hi = (2.0 * area_count - 1.0 + 2.0 * d) * tp + scan_cost_hi
    return Interval(lo=lo, hi=hi)


def scan_overhead_bounds(
    model: RaceModel, area_count: int, tgoal: float
) -> Interval:
    """Envelope on the secure-world CPU fraction of one full pass.

    One pass hashes the whole kernel once and pays two world switches
    per round; spread over ``tgoal`` seconds that is the steady-state
    overhead SATIN charges the platform.
    """
    if area_count <= 0 or tgoal <= 0:
        raise ConfigurationError("area_count and tgoal must be positive")
    t1b_lo, t1b_hi = _support(model.ts_1byte)
    sw_lo, sw_hi = _support(model.ts_switch)
    busy_lo = model.kernel_size * t1b_lo + 2.0 * area_count * sw_lo
    busy_hi = model.kernel_size * t1b_hi + 2.0 * area_count * sw_hi
    return Interval(lo=busy_lo / tgoal, hi=busy_hi / tgoal)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PresetSolution:
    """Everything the planner needs to know about one preset, solved."""

    preset: str
    model: RaceModel
    #: whole-kernel escape probability envelope (Eq. 2 corners).
    escape: Interval
    #: quadrature point estimate of the same quantity.
    escape_estimate: float
    #: safe-area-size envelope in bytes.
    safe_area: Interval
    #: is the envelope unable to settle the decision threshold?
    contested: bool

    def as_dict(self) -> dict:
        return {
            "preset": self.preset,
            "escape": self.escape.as_dict(),
            "escape_estimate": self.escape_estimate,
            "safe_area": self.safe_area.as_dict(),
            "contested": self.contested,
        }


#: The paper's headline claim — ~90% of the kernel unprotected — is the
#: decision threshold E7-class questions are judged against.
DECISION_THRESHOLD = 0.90


def solve_preset(
    preset: str,
    machine_cfg: MachineConfig,
    decision_threshold: float = DECISION_THRESHOLD,
    nodes: int = 12,
) -> PresetSolution:
    """Solve the whole-kernel race for one preset's machine config."""
    model = RaceModel.from_machine(machine_cfg)
    escape = escape_probability_bounds(model)
    estimate = escape_probability_estimate(model, nodes=nodes)
    return PresetSolution(
        preset=preset,
        model=model,
        escape=escape,
        escape_estimate=estimate,
        safe_area=safe_area_bounds(model),
        contested=escape.straddles(decision_threshold),
    )
