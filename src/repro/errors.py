"""Exception hierarchy for the SATIN reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the simulator with a single clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used inconsistently."""


class SchedulingError(SimulationError):
    """A scheduler invariant was violated (e.g. two tasks on one core)."""


class HardwareError(ReproError):
    """A simulated hardware component was misconfigured or misused."""


class SecureAccessError(HardwareError):
    """Normal-world code attempted to touch a secure-world resource.

    This models the TrustZone hardware fault: the secure address space,
    secure timers, and secure registers are invisible to the normal world.
    """


class MemoryAccessError(HardwareError):
    """An access fell outside the physical memory map."""


class KernelError(ReproError):
    """The simulated rich OS detected an inconsistent operation."""


class ConfigurationError(ReproError):
    """A configuration dataclass carried out-of-range values."""


class IntrospectionError(ReproError):
    """The secure-world introspection engine was misconfigured."""


class AttackError(ReproError):
    """An attack component (rootkit / prober / evader) was misused."""


class CampaignError(ReproError):
    """A Monte-Carlo campaign was misconfigured or its cache is unusable."""


class ObservabilityError(ReproError):
    """The telemetry subsystem (metrics / trace export) was misused."""


class ServiceError(ReproError):
    """The campaign service (jobs, executors, HTTP API) was misused."""


class JobTransitionError(ServiceError):
    """A job was asked to make an invalid lifecycle transition."""


class BackpressureError(ServiceError):
    """The service refused a submission to protect itself.

    Raised when the pending queue is at capacity or a client exceeds its
    in-flight cap (HTTP 429), or while the server is draining (HTTP 503).
    ``retry_after`` is the suggested wait in seconds; the HTTP layer
    forwards it as a ``Retry-After`` header.
    """

    def __init__(
        self, message: str, retry_after: float = 1.0, status: int = 429
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.status = status


class SettingsError(CampaignError, ServiceError):
    """A sweep's execution or planner settings were out of range (one check
    serves the library and the service, so it is both kinds of error)."""


class FaultError(ReproError):
    """Base class for the fault-injection subsystem (:mod:`repro.faults`)."""


class FaultPlanError(FaultError):
    """A fault plan was unknown, malformed, or carried bad parameters."""


class FaultInjectionError(FaultError):
    """The fault injector was wired or driven inconsistently."""
