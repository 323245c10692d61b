"""The analytical race-condition model (Section III-B2 / IV-C).

The paper formalises the race between a scanning secure world and a hiding
normal world:

Equation 1 — the attacker escapes iff

    Ts_switch + S * Ts_1byte  >  Tns_delay + Tns_recover

where ``S`` is how many bytes the checker reads before touching the first
malicious byte and ``Tns_delay = Tns_sched + Tns_threshold``.

Equation 2 — rearranged, the attacker wins whenever the malicious bytes sit
beyond

    S > (Tns_sched + Tns_threshold + Tns_recover - Ts_switch) / Ts_1byte

With the paper's worst-case Juno numbers the bound is 1,218,351 bytes, so
~90% of an 11,916,240-byte kernel is unprotected by whole-kernel random
introspection — the number SATIN's area size is derived from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.config import PAPER_KERNEL_SIZE, PAPER_TSLEEP
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RaceParameters:
    """The six quantities of Equation 1/2, in seconds and bytes.

    Defaults are the paper's worst-case-for-the-defender values from
    Section IV-C: A57 scanning speed (fastest checker), the slowest
    observed recovery, and the largest observed probing threshold.
    """

    #: one-direction world-switch cost, Ts_switch.
    ts_switch: float = 3.60e-6
    #: secure-world per-byte inspection cost, Ts_1byte.
    ts_1byte: float = 6.67e-9
    #: prober rescheduling delay, Tns_sched (= Tsleep for KProber-II).
    tns_sched: float = PAPER_TSLEEP
    #: prober staleness threshold, Tns_threshold.
    tns_threshold: float = 1.80e-3
    #: attacker trace recovery time, Tns_recover.
    tns_recover: float = 6.13e-3
    #: size of the introspected kernel in bytes.
    kernel_size: int = PAPER_KERNEL_SIZE

    def __post_init__(self) -> None:
        for name in ("ts_switch", "ts_1byte", "tns_sched", "tns_threshold", "tns_recover"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.ts_1byte == 0:
            raise ConfigurationError("ts_1byte must be positive")
        if self.kernel_size <= 0:
            raise ConfigurationError("kernel_size must be positive")

    # ------------------------------------------------------------------
    @property
    def tns_delay(self) -> float:
        """Total probing delay, Tns_delay = Tns_sched + Tns_threshold."""
        return self.tns_sched + self.tns_threshold

    def with_(self, **changes: float) -> "RaceParameters":
        """A modified copy (parameter-sweep helper)."""
        return replace(self, **changes)


def scan_budget(
    tns_sched: float, tns_threshold: float, tns_recover: float, ts_switch: float
) -> float:
    """Equation 2's numerator: seconds the checker scans before the trace is gone.

    ``Tns_sched + Tns_threshold + Tns_recover - Ts_switch``, summed left to
    right; dividing it by ``Ts_1byte`` gives the bound on ``S``.
    """
    return tns_sched + tns_threshold + tns_recover - ts_switch


def evasion_succeeds(params: RaceParameters, prescanned_bytes: float) -> bool:
    """Equation 1: does the attacker hide before the checker reaches it?

    ``prescanned_bytes`` is ``S`` — the clean bytes the checker reads
    before the first malicious byte.
    """
    checker_arrival = params.ts_switch + prescanned_bytes * params.ts_1byte
    attacker_done = params.tns_delay + params.tns_recover
    return checker_arrival > attacker_done


def s_bound(params: RaceParameters) -> int:
    """Equation 2: the largest S at which the checker still wins (bytes).

    Malicious bytes placed deeper than this into the scan order escape.
    The paper's worst case evaluates to 1,218,351 bytes.
    """
    numerator = scan_budget(
        params.tns_sched, params.tns_threshold, params.tns_recover, params.ts_switch
    )
    # Round to nearest, matching the paper's reported 1,218,351 bytes.
    return max(int(math.floor(numerator / params.ts_1byte + 0.5)), 0)


def unprotected_fraction(params: RaceParameters) -> float:
    """Fraction of the kernel whole-image introspection cannot protect.

    Assuming the attack bytes appear uniformly at random in the kernel,
    only the first ``s_bound`` scanned bytes are safe; the paper computes
    ~90% unprotected.
    """
    protected = min(s_bound(params), params.kernel_size)
    return 1.0 - protected / params.kernel_size


def max_safe_area_size(params: RaceParameters) -> int:
    """SATIN's area-size bound (Section V-B).

    One area must be fully checked before the attacker can both notice the
    secure entry and finish hiding:

        size < (Tns_delay + Tns_recover - Ts_switch) / Ts_1byte
    """
    numerator = scan_budget(
        params.tns_sched, params.tns_threshold, params.tns_recover, params.ts_switch
    )
    bound = int(math.floor(numerator / params.ts_1byte + 0.5))
    if bound <= 0:
        raise ConfigurationError(
            "race parameters leave no safe area size (checker cannot win)"
        )
    return bound

