"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "SignatureError",
    "SchedulingError",
    "AllocationError",
    "WorkloadError",
    "SimulationError",
    "JobError",
    "ServiceError",
    "ProtocolError",
    "ServiceTimeout",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with invalid or inconsistent parameters."""


class GeometryError(ConfigurationError):
    """A cache/filter geometry parameter is invalid (non power-of-two, ...)."""


class SignatureError(ReproError):
    """Invalid use of the Bloom-filter signature infrastructure."""


class SchedulingError(ReproError):
    """The OS/hypervisor scheduling model was driven into an invalid state."""


class AllocationError(ReproError):
    """A resource-allocation policy received unusable input."""


class WorkloadError(ReproError, ValueError):
    """A workload/trace generator was misconfigured."""


class SimulationError(ReproError):
    """The closed-loop performance simulation reached an invalid state."""


class JobError(ReproError):
    """A job-orchestration failure: a worker crashed past its retry
    budget, a job timed out, or a run spec could not be executed."""


class ServiceError(ReproError):
    """The online scheduling service was driven into an invalid state
    (duplicate admission, unknown process id, submit after shutdown)."""


class ProtocolError(ServiceError):
    """A malformed or oversized message on the service wire protocol."""


class ServiceTimeout(ServiceError):
    """A service client deadline expired (connect or read).

    Raised instead of blocking forever on a dead or wedged peer; the
    caller cannot tell whether the request was applied, so any retry
    must reuse the same ``(client_id, seq)`` pair and rely on the
    server's idempotency table."""
