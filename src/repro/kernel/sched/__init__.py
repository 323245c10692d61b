"""Rich OS scheduling: per-core run queues and the two-class scheduler."""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "CoreRunQueue": "repro.kernel.sched.runqueue",
    "RichScheduler": "repro.kernel.sched.scheduler",
})

__all__ = ["CoreRunQueue", "RichScheduler"]
