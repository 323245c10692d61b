"""repro — a full reproduction of SATIN (DSN 2019) in simulation.

SATIN is a secure asynchronous introspection mechanism for multi-core ARM
TrustZone processors; the paper also introduces TZ-Evader, the evasion
attack SATIN defeats.  Since the original system runs inside an ARM Juno
board's secure monitor, this library reproduces the entire stack on a
discrete-event simulator calibrated to the paper's measurements:

* :mod:`repro.sim` — the discrete-event substrate;
* :mod:`repro.hw` — the simulated Juno r1 (big.LITTLE cores, TrustZone
  worlds, GIC, secure timers, EL3 monitor);
* :mod:`repro.kernel` — the rich OS (kernel image + System.map, syscall
  and vector tables, CFS/SCHED_FIFO scheduler, HZ ticks);
* :mod:`repro.secure` — secure-world software (djb2 hashing, trusted
  boot, scanning, baseline introspection mechanisms);
* :mod:`repro.core` — SATIN itself (the paper's contribution);
* :mod:`repro.attacks` — the probers, rootkit and TZ-Evader;
* :mod:`repro.workloads` — a UnixBench-like suite for the overhead study;
* :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart::

    from repro import build_stack, run_detection_experiment
    result = run_detection_experiment(passes=2)
    print(result)
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "KProberI": "repro.attacks.kprober1",
    "KProberII": "repro.attacks.kprober2",
    "PersistentRootkit": "repro.attacks.rootkit",
    "ProbeController": "repro.attacks.prober",
    "ProberAccelerationOracle": "repro.attacks.oracle",
    "TZEvader": "repro.attacks.evader",
    "UserLevelProber": "repro.attacks.user_prober",
    "PredictiveEvader": "repro.attacks.predictor",
    "MachineConfig": "repro.config",
    "ProberConfig": "repro.config",
    "SatinConfig": "repro.config",
    "generic_octa_config": "repro.config",
    "juno_r1_config": "repro.config",
    "smm_like_config": "repro.config",
    "RaceParameters": "repro.core.race",
    "Satin": "repro.core.satin",
    "install_satin": "repro.core.satin",
    "max_safe_area_size": "repro.core.race",
    "s_bound": "repro.core.race",
    "unprotected_fraction": "repro.core.race",
    "AttackError": "repro.errors",
    "BackpressureError": "repro.errors",
    "CampaignError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "FaultError": "repro.errors",
    "FaultInjectionError": "repro.errors",
    "FaultPlanError": "repro.errors",
    "HardwareError": "repro.errors",
    "IntrospectionError": "repro.errors",
    "JobTransitionError": "repro.errors",
    "KernelError": "repro.errors",
    "MemoryAccessError": "repro.errors",
    "ObservabilityError": "repro.errors",
    "ReproError": "repro.errors",
    "SchedulingError": "repro.errors",
    "SecureAccessError": "repro.errors",
    "ServiceError": "repro.errors",
    "SimulationError": "repro.errors",
    "build_stack": "repro.experiments.common",
    "run_ablations": "repro.experiments.ablations",
    "run_detection_experiment": "repro.experiments.detection",
    "run_escape_comparison": "repro.experiments.race_analysis",
    "run_figure4": "repro.experiments.figure4",
    "run_figure7": "repro.experiments.figure7",
    "run_prober_comparison": "repro.experiments.prober_comparison",
    "run_race_analysis": "repro.experiments.race_analysis",
    "run_recover_delay": "repro.experiments.recover_delay",
    "run_single_core_ratio": "repro.experiments.table2",
    "run_switch_delay": "repro.experiments.switch_delay",
    "run_table1": "repro.experiments.table1",
    "run_table2": "repro.experiments.table2",
    "run_user_prober_eval": "repro.experiments.user_prober_eval",
    "CampaignResult": "repro.campaign.runner",
    "CampaignSpec": "repro.campaign.runner",
    "run_campaign": "repro.campaign.runner",
    "Machine": "repro.hw.platform",
    "World": "repro.hw.world",
    "build_machine": "repro.hw.platform",
    "RichOS": "repro.kernel.os",
    "boot_rich_os": "repro.kernel.os",
    "SynchronousIntrospection": "repro.secure.sync_introspection",
    "pkm_like": "repro.secure.baseline",
    "random_whole_kernel": "repro.secure.baseline",
    "IrqStormAttacker": "repro.attacks.irq_storm",
    "KnoxBypassAttack": "repro.attacks.knoxout",
})

__version__ = "1.0.0"

__all__ = [
    "AttackError",
    "BackpressureError",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "ConfigurationError",
    "FaultError",
    "FaultInjectionError",
    "FaultPlanError",
    "HardwareError",
    "IntrospectionError",
    "JobTransitionError",
    "KernelError",
    "MemoryAccessError",
    "ObservabilityError",
    "SchedulingError",
    "SecureAccessError",
    "ServiceError",
    "SimulationError",
    "KProberI",
    "KProberII",
    "Machine",
    "MachineConfig",
    "PersistentRootkit",
    "PredictiveEvader",
    "ProbeController",
    "ProberAccelerationOracle",
    "ProberConfig",
    "RaceParameters",
    "ReproError",
    "RichOS",
    "IrqStormAttacker",
    "KnoxBypassAttack",
    "Satin",
    "SatinConfig",
    "SynchronousIntrospection",
    "TZEvader",
    "UserLevelProber",
    "World",
    "boot_rich_os",
    "build_machine",
    "build_stack",
    "install_satin",
    "generic_octa_config",
    "juno_r1_config",
    "smm_like_config",
    "max_safe_area_size",
    "pkm_like",
    "random_whole_kernel",
    "run_ablations",
    "run_detection_experiment",
    "run_escape_comparison",
    "run_figure4",
    "run_figure7",
    "run_prober_comparison",
    "run_race_analysis",
    "run_recover_delay",
    "run_single_core_ratio",
    "run_switch_delay",
    "run_table1",
    "run_table2",
    "run_user_prober_eval",
    "run_campaign",
    "s_bound",
    "unprotected_fraction",
    "__version__",
]
