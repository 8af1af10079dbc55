"""Exception hierarchy for the AstriFlash reproduction library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "CapacityError",
    "ProtocolError",
    "WorkloadError",
    "FlashTimeoutError",
    "DeviceFailedError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A system configuration is inconsistent or out of range."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class CapacityError(ReproError):
    """A hardware structure (MSR, evict buffer, queue, ...) overflowed
    in a way the design forbids."""


class ProtocolError(ReproError):
    """A component interaction violated the modelled hardware protocol."""


class WorkloadError(ReproError):
    """A workload was asked to do something it cannot (unknown key,
    malformed transaction, exhausted trace, ...)."""


class FlashTimeoutError(ReproError):
    """A flash read exceeded the backside controller's deadline.

    Used as the *payload* of the BC's read-outcome race under fault
    injection (never raised across the engine): when the timeout fires
    first, the miss handler receives an instance of this class instead
    of the completed :class:`~repro.flash.device.FlashRequest`, counts
    the timeout, and reissues the read.
    """


class DeviceFailedError(ReproError):
    """The flash device could not complete a read within the reissue cap.

    Raised by the backside controller when a page read has timed out or
    returned uncorrectable more than ``FaultConfig.bc_max_reissues``
    times — the modelled device is considered failed and the run is
    surfaced to the harness rather than silently retried forever.
    """
