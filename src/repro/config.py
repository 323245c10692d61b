"""Configuration dataclasses and the calibrated Juno r1 preset.

Every timing parameter in this file is taken from, or derived from, a number
the paper reports (see DESIGN.md section 5).  The defaults reproduce the
paper's ARM Juno r1 setup: a big.LITTLE processor with four Cortex-A53
"LITTLE" cores and two Cortex-A57 "big" cores, an ARM-Trusted-Firmware-style
secure monitor, and an lsk-4.4 rich OS whose static kernel is 11,916,240
bytes across 19 System.map sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.distributions import (
    BoundedPareto,
    Distribution,
    LogNormalJitter,
    SpikeMixture,
    Uniform,
)

# ---------------------------------------------------------------------------
# Paper constants (Section IV / VI)
# ---------------------------------------------------------------------------

#: Static kernel size measured on the board (Section IV-C).
PAPER_KERNEL_SIZE = 11_916_240

#: Number of System.map-derived introspection areas (Section VI-A2).
PAPER_AREA_COUNT = 19

#: Largest / smallest area sizes (Section VI-A2).
PAPER_LARGEST_AREA = 876_616
PAPER_SMALLEST_AREA = 431_360

#: Race-condition bound computed in Section IV-C: bytes the checker can
#: scan before a worst-case TZ-Evader finishes hiding.
PAPER_S_BOUND = 1_218_351

#: Bytes a persistent GETTID syscall-table hijack must restore (Sec. IV-A2).
PAPER_TRACE_BYTES = 8

#: KProber-II probe loop sleep (Section IV-A1).
PAPER_TSLEEP = 2e-4

#: Worst-case probing threshold observed (Section IV-B2 / VI-B1).
PAPER_THRESHOLD_WORST = 1.8e-3

#: Area index holding the hijacked system call handler (Section VI-B1).
PAPER_HIJACKED_AREA = 14


# ---------------------------------------------------------------------------
# Per-cluster timing models
# ---------------------------------------------------------------------------


@dataclass
class ClusterTiming:
    """Calibrated per-core timing model for one big.LITTLE cluster.

    All times in seconds.  Distribution parameters reproduce the avg/max/min
    cells of Table I and the delays in Sections IV-B1/IV-B2.
    """

    name: str
    #: secure-world per-byte direct-hash cost (Table I, "Hash 1-Byte").
    hash_byte: Distribution = field(default_factory=lambda: LogNormalJitter(1e-8, 0.02))
    #: secure-world per-byte snapshot-then-hash cost (Table I).
    snapshot_byte: Distribution = field(default_factory=lambda: LogNormalJitter(1.05e-8, 0.03))
    #: EL3 world-switch cost, one direction (Section IV-B1).
    world_switch: Distribution = field(default_factory=lambda: Uniform(2.38e-6, 3.60e-6))
    #: time for the rootkit to restore one 8-byte trace (Section IV-B2).
    recover_trace_8b: Distribution = field(default_factory=lambda: LogNormalJitter(5.5e-3, 0.05))
    #: cost of one system call round trip in the rich OS.
    syscall: Distribution = field(default_factory=lambda: LogNormalJitter(9e-7, 0.10))
    #: scheduler dispatch (context switch) latency in the rich OS.
    dispatch: Distribution = field(default_factory=lambda: LogNormalJitter(2.5e-6, 0.15))
    #: timer-tick handler cost.
    tick: Distribution = field(default_factory=lambda: LogNormalJitter(1.5e-6, 0.10))
    #: extra cache-refill/migration penalty a preempted task pays on resume.
    preemption_penalty: Distribution = field(default_factory=lambda: LogNormalJitter(3e-5, 0.30))


def a53_timing() -> ClusterTiming:
    """Cortex-A53 ("LITTLE") timing calibrated to the paper.

    Table I: hash avg 1.07e-8 (min 9.23e-9, max 1.14e-8); snapshot avg
    1.08e-8 (max 1.57e-8).  Section IV-B2: recover avg 5.80e-3.
    """
    return ClusterTiming(
        name="Cortex-A53",
        hash_byte=LogNormalJitter(1.07e-8, 0.035, lo_clip=9.23e-9, hi_clip=1.15e-8),
        snapshot_byte=LogNormalJitter(1.08e-8, 0.06, lo_clip=9.24e-9, hi_clip=1.60e-8),
        world_switch=Uniform(2.38e-6, 3.60e-6),
        recover_trace_8b=LogNormalJitter(5.80e-3, 0.035, hi_clip=6.13e-3),
        syscall=LogNormalJitter(1.2e-6, 0.10),
        dispatch=LogNormalJitter(3.2e-6, 0.15),
        tick=LogNormalJitter(2.0e-6, 0.10),
        preemption_penalty=LogNormalJitter(4.0e-5, 0.30),
    )


def a57_timing() -> ClusterTiming:
    """Cortex-A57 ("big") timing calibrated to the paper.

    Table I: hash avg 6.71e-9 (min 6.67e-9, max 7.50e-9); snapshot avg
    6.75e-9 (max 7.83e-9).  Section IV-B2: recover avg 4.96e-3.
    """
    return ClusterTiming(
        name="Cortex-A57",
        hash_byte=LogNormalJitter(6.71e-9, 0.02, lo_clip=6.67e-9, hi_clip=7.50e-9),
        snapshot_byte=LogNormalJitter(6.75e-9, 0.03, lo_clip=6.67e-9, hi_clip=7.83e-9),
        world_switch=Uniform(2.38e-6, 3.60e-6),
        recover_trace_8b=LogNormalJitter(4.96e-3, 0.035, hi_clip=6.13e-3),
        syscall=LogNormalJitter(9e-7, 0.10),
        dispatch=LogNormalJitter(2.4e-6, 0.15),
        tick=LogNormalJitter(1.5e-6, 0.10),
        preemption_penalty=LogNormalJitter(3.0e-5, 0.30),
    )


@dataclass
class ClusterConfig:
    """One cluster: a name, how many cores, and its timing model."""

    name: str
    core_count: int
    timing: ClusterTiming

    def __post_init__(self) -> None:
        if self.core_count <= 0:
            raise ConfigurationError(f"cluster {self.name}: core_count must be > 0")


# ---------------------------------------------------------------------------
# Rich OS / kernel parameters
# ---------------------------------------------------------------------------


@dataclass
class KernelConfig:
    """Parameters of the simulated rich OS."""

    #: static kernel image size in bytes.
    image_size: int = PAPER_KERNEL_SIZE
    #: number of System.map sections to synthesise.
    section_count: int = PAPER_AREA_COUNT
    #: scheduling-clock tick frequency (CONFIG_HZ); 100..1000 in real kernels.
    hz: int = 250
    #: CFS scheduling slice.
    cfs_slice: float = 3e-3
    #: minimum granularity before CFS preempts.
    cfs_min_granularity: float = 7.5e-4
    #: deterministic seed offset for the synthetic kernel image bytes.
    image_seed: int = 0x5A71
    #: physical load address of the kernel image in simulated DRAM.
    image_base: int = 0x8008_0000

    def __post_init__(self) -> None:
        if not 100 <= self.hz <= 1000:
            raise ConfigurationError(f"hz must be within [100, 1000], got {self.hz}")
        if self.image_size <= 0:
            raise ConfigurationError("image_size must be positive")
        if self.section_count <= 0:
            raise ConfigurationError("section_count must be positive")


# ---------------------------------------------------------------------------
# Prober (attacker-side) parameters
# ---------------------------------------------------------------------------


def default_cross_core_read_delay() -> Distribution:
    """Visibility delay of another core's time-report buffer entry.

    Usually sub-1e-4 (store buffer / cache line transfer), but with a small
    probability the read stalls on coherence traffic for up to ~1.3e-3 s —
    the "abnormal large delay" the paper identifies as the source of the big
    probing thresholds.  The spike probability and tail shape are calibrated
    so the max-over-a-probing-period statistics land on Table II.
    """
    base = LogNormalJitter(2.2e-5, 0.45)
    spike = BoundedPareto(xm=8e-5, alpha=2.4, cap=1.32e-3)
    return SpikeMixture(base=base, spike=spike, spike_prob=1.1e-4)


@dataclass
class ProberConfig:
    """Attacker probe-loop parameters (Section IV-A1)."""

    #: sleep between probe iterations (KProber-II); the paper's Tsleep.
    tsleep: float = PAPER_TSLEEP
    #: CPU cost of one Time Reporter step.
    report_cost: float = 1.2e-6
    #: CPU cost of one Time Comparer sweep over n-1 cores.
    compare_cost: float = 3.5e-6
    #: staleness threshold above which a core is reported as "in secure
    #: world".  The paper's deployed TZ-Evader uses the worst observed 1.8e-3.
    detect_threshold: float = PAPER_THRESHOLD_WORST
    #: cross-core buffer visibility delay model.
    cross_core_delay: Distribution = field(default_factory=default_cross_core_read_delay)
    #: jitter added to each sleep wake-up (timer + scheduler granularity).
    wake_jitter: Distribution = field(default_factory=lambda: LogNormalJitter(6e-6, 0.6))
    #: a comparer discards a round when its own previous report is older
    #: than this multiple of tsleep (it knows it overslept and the buffer
    #: contents are uniformly stale) — prevents self-induced false alarms.
    self_gate_factor: float = 4.0
    #: after an oversleep the comparer distrusts the buffer for this long:
    #: cross-core entries may be up to a worst-case coherence delay old,
    #: so staleness evidence within this window proves nothing.
    distrust_window: float = 2e-3
    #: Table II statistical model: per-observation probing-threshold tail.
    #: Calibrated so the max over a probing window reproduces the paper's
    #: avg/max/min columns (see repro.attacks.threshold_model).
    threshold_tail: Distribution = field(
        default_factory=lambda: BoundedPareto(xm=2.06e-5, alpha=3.6, cap=2.0e-3)
    )
    #: effective independent extreme-value draws per second of probing.
    #: Coherence stalls arrive in correlated bursts, so this is far below
    #: the raw buffer-read rate; calibrated against Table II.
    effective_reads_per_second: float = 500.0
    #: probing a single known core sees ~1/4 the all-core threshold
    #: (Section IV-B2, last paragraph).
    single_core_factor: float = 0.25


# ---------------------------------------------------------------------------
# SATIN / introspection parameters
# ---------------------------------------------------------------------------


@dataclass
class SatinConfig:
    """SATIN engine parameters (Section V)."""

    #: time budget within which every area must be scanned at least once;
    #: the per-round base period is tp = tgoal / area_count.
    tgoal: float = PAPER_AREA_COUNT * 8.0
    #: random deviation applied to each wake-up as a fraction of tp
    #: (the paper draws td uniformly from [-tp, tp], i.e. fraction 1.0).
    deviation_fraction: float = 1.0
    #: upper bound on one area's size; None derives it from the race model.
    max_area_size: Optional[int] = None
    #: how the kernel is divided: "sections" (one area per System.map
    #: section — the paper's 19 areas), "packed" (consecutive sections
    #: merged up to the bound; ablation), or "whole" (a single area — the
    #: baseline whole-kernel introspection TZ-Evader defeats).
    partition_mode: str = "sections"
    #: refuse to install when an area exceeds the race-model bound.
    enforce_area_bound: bool = True
    #: pick a random core for each round (False = fixed core 0; ablation).
    random_core: bool = True
    #: apply the random deviation (False = strict period; ablation).
    random_deviation: bool = True
    #: block normal-world interrupts during a round (SCR_EL3.IRQ = 0).
    block_ns_interrupts: bool = True
    #: scan read granularity in bytes; the race against trace recovery is
    #: resolved at this resolution (27 us at A57 hash speed).
    chunk_size: int = 4096
    #: use snapshot-then-hash instead of direct hashing (Table I compares
    #: the two; direct hashing wins and is the default).
    use_snapshot: bool = False

    def config_digest(self) -> str:
        """Stable content digest of every field, distribution params included.

        Canonical field ordering is handled by the digest layer, so two
        equal configurations always hash identically; any parameter change
        (including a distribution's shape) changes the digest.  Campaign
        cache keys are derived from this, so it must never drift silently —
        ``tests/campaign/test_digest.py`` pins the value for the Juno preset.
        """
        from repro.campaign.digest import stable_digest

        return stable_digest(self)

    def __post_init__(self) -> None:
        if self.tgoal <= 0:
            raise ConfigurationError("tgoal must be positive")
        if not 0.0 <= self.deviation_fraction <= 1.0:
            raise ConfigurationError("deviation_fraction must be in [0, 1]")
        if self.chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        if self.partition_mode not in ("sections", "packed", "whole"):
            raise ConfigurationError(
                f"unknown partition_mode {self.partition_mode!r}"
            )


# ---------------------------------------------------------------------------
# Machine-level configuration
# ---------------------------------------------------------------------------


@dataclass
class MachineConfig:
    """Full description of the simulated board."""

    clusters: List[ClusterConfig] = field(
        default_factory=lambda: [
            ClusterConfig("LITTLE", 4, a53_timing()),
            ClusterConfig("big", 2, a57_timing()),
        ]
    )
    kernel: KernelConfig = field(default_factory=KernelConfig)
    prober: ProberConfig = field(default_factory=ProberConfig)
    satin: SatinConfig = field(default_factory=SatinConfig)
    #: shared system counter frequency (Juno: 50 MHz generic timer).
    counter_frequency_hz: int = 50_000_000
    #: secure SRAM size for the trusted OS (hash tables, wake-up queue).
    secure_memory_size: int = 4 * 1024 * 1024
    #: DRAM size visible to the normal world.
    dram_size: int = 256 * 1024 * 1024
    #: master seed for all random streams.
    seed: int = 2019
    #: record a trace of simulation events.
    trace_enabled: bool = True

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ConfigurationError("machine needs at least one cluster")
        if self.counter_frequency_hz <= 0:
            raise ConfigurationError("counter frequency must be positive")
        end = self.kernel.image_base + self.kernel.image_size
        if end > self.dram_size + 0x8000_0000:
            raise ConfigurationError("kernel image does not fit in DRAM")

    @property
    def core_count(self) -> int:
        return sum(c.core_count for c in self.clusters)

    def core_timings(self) -> List[ClusterTiming]:
        """Per-core timing models, in core-index order."""
        timings: List[ClusterTiming] = []
        for cluster in self.clusters:
            timings.extend([cluster.timing] * cluster.core_count)
        return timings

    def cluster_core_indices(self, name: str) -> Tuple[int, ...]:
        """Core indices belonging to the named cluster."""
        start = 0
        for cluster in self.clusters:
            if cluster.name == name:
                return tuple(range(start, start + cluster.core_count))
            start += cluster.core_count
        raise ConfigurationError(f"no cluster named {name!r}")

    def with_seed(self, seed: int) -> "MachineConfig":
        """A copy of this configuration with a different master seed."""
        return replace(self, seed=seed)

    def config_digest(self) -> str:
        """Stable content digest of the whole machine description.

        Covers every nested dataclass and every distribution parameter
        (cluster timings, kernel layout, prober model, SATIN policy, the
        master seed).  Used as the configuration component of campaign
        cache keys; pinned by a regression test so keys never silently
        drift when fields are added or reordered.
        """
        from repro.campaign.digest import stable_digest

        return stable_digest(self)


def juno_r1_config(seed: int = 2019) -> MachineConfig:
    """The paper's evaluation platform: ARM Juno r1 (4xA53 + 2xA57)."""
    return MachineConfig(seed=seed)


def generic_octa_config(seed: int = 2019) -> MachineConfig:
    """A symmetric 8-core TEE platform (portability, Section VII-D).

    SATIN only needs multi-core, a privileged mode, and a secure timer —
    all topology-independent here.  This preset models a generic octa-core
    phone SoC with uniform big-class cores.
    """
    return MachineConfig(
        clusters=[ClusterConfig("octa", 8, a57_timing())],
        seed=seed,
    )


def smm_like_config(seed: int = 2019) -> MachineConfig:
    """An x86/SMM-flavoured platform (portability, Section VII-D).

    Models SICE-style SMM isolation: a 4-core symmetric machine whose
    "world switch" is an SMM entry — an order of magnitude costlier than
    a TrustZone switch (tens of microseconds), which the race model and
    the area-size bound absorb automatically.
    """
    smm_timing = ClusterTiming(
        name="x86-SMM",
        hash_byte=LogNormalJitter(4.0e-9, 0.03),
        snapshot_byte=LogNormalJitter(4.2e-9, 0.04),
        world_switch=Uniform(3.0e-5, 6.0e-5),  # SMM entry/exit cost
        recover_trace_8b=LogNormalJitter(4.0e-3, 0.05),
        syscall=LogNormalJitter(6e-7, 0.10),
        dispatch=LogNormalJitter(1.8e-6, 0.15),
        tick=LogNormalJitter(1.2e-6, 0.10),
        preemption_penalty=LogNormalJitter(2.5e-5, 0.30),
    )
    return MachineConfig(
        clusters=[ClusterConfig("smm", 4, smm_timing)],
        seed=seed,
    )


#: Named platform presets, as accepted by ``python -m repro campaign
#: --preset`` and :mod:`repro.campaign` grids.
PRESET_CONFIGS = {
    "juno_r1": juno_r1_config,
    "generic_octa": generic_octa_config,
    "smm_like": smm_like_config,
}


def preset_config(name: str, seed: int = 2019) -> MachineConfig:
    """Build a preset platform by name."""
    try:
        factory = PRESET_CONFIGS[name]
    except KeyError:
        known = ", ".join(sorted(PRESET_CONFIGS))
        raise ConfigurationError(f"unknown preset {name!r} (known: {known})") from None
    return factory(seed=seed)


#: The preset every experiment driver builds internally.
DEFAULT_PRESET = "juno_r1"


def build_trial_config(
    seed: int,
    preset: str = DEFAULT_PRESET,
    satin: Optional[Dict[str, Any]] = None,
) -> MachineConfig:
    """The MachineConfig one campaign trial runs under (also what gets digested)."""
    config = preset_config(preset, seed=seed)
    if satin:
        config.satin = SatinConfig(**satin)
    return config
