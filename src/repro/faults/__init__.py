"""Deterministic fault injection and the chaos sweep harness.

The subsystem has three layers:

* :mod:`repro.faults.plan` — declarative fault plans: which fault
  classes strike, at what rate, with what parameters;
* :mod:`repro.faults.injector` — the seed-driven injector that wires a
  plan into a live machine/SATIN stack through dedicated hardware hooks
  (its RNG streams are derived from ``(config_digest, fault_seed)``, so
  baseline draws are never perturbed);
* :mod:`repro.faults.chaos` — the campaign-pool sweep behind
  ``python -m repro chaos`` and its survival/detection matrix.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "ChaosResult": "repro.faults.chaos",
    "ChaosSpec": "repro.faults.chaos",
    "run_chaos": "repro.faults.chaos",
    "run_chaos_trial": "repro.faults.chaos",
    "FaultInjector": "repro.faults.injector",
    "Injection": "repro.faults.injector",
    "FAULT_CLASSES": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "FaultSpec": "repro.faults.plan",
    "plan_by_name": "repro.faults.plan",
    "plan_names": "repro.faults.plan",
})

__all__ = [
    "FAULT_CLASSES",
    "ChaosResult",
    "ChaosSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "Injection",
    "plan_by_name",
    "plan_names",
    "run_chaos",
    "run_chaos_trial",
]
