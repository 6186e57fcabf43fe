"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still distinguishing subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class KinematicsError(ReproError):
    """Raised when a kinematic computation fails (e.g. unreachable pose)."""


class InverseKinematicsError(KinematicsError):
    """Raised when inverse kinematics has no solution for a target pose."""


class WorkspaceError(KinematicsError):
    """Raised when a pose or joint vector violates workspace/joint limits."""


class DynamicsError(ReproError):
    """Raised on invalid dynamic-model configuration or state."""


class IntegrationError(DynamicsError):
    """Raised when a numerical integration step fails (NaN/Inf state)."""


class PacketError(ReproError):
    """Raised on malformed protocol packets (USB or ITP)."""


class ChecksumError(PacketError):
    """Raised when a packet checksum does not match its payload."""


class StateMachineError(ReproError):
    """Raised on an illegal operational state-machine transition."""


class SyscallError(ReproError):
    """Raised by the simulated system-call layer (bad fd, closed table)."""


class LinkerError(ReproError):
    """Raised by the simulated dynamic linker (unknown symbol, bad wrapper)."""


class AttackConfigError(ReproError):
    """Raised when an attack scenario is configured inconsistently."""


class DetectorError(ReproError):
    """Raised when the anomaly detector is used before calibration."""


class SimulationError(ReproError):
    """Raised when the simulation rig is wired or driven incorrectly."""


class ExecutionError(ReproError):
    """Raised by the parallel execution engine (worker fan-out, caching)."""


class TaskExecutionError(ExecutionError):
    """A task failed every attempt the engine's retry policy allowed.

    Carries the batch ``label``, the failing ``index`` within it, and the
    number of ``attempts`` made, so campaign interrupts are attributable
    to one grid cell.
    """

    def __init__(self, label: str, index: int, attempts: int, cause: BaseException):
        super().__init__(
            f"{label}[{index}] failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.label = label
        self.index = index
        self.attempts = attempts


class CacheCorruptionError(ExecutionError):
    """A cache file failed validation and could not be quarantined."""


class ChaosFault(ExecutionError):
    """An error injected deliberately by the fault-injection harness."""


class FleetError(ReproError):
    """Raised by the fleet supervisor (session registry, ingest, packs)."""


class SessionStoreError(FleetError):
    """A session-store operation failed after exhausting its retry policy."""


class SnapshotIntegrityError(SessionStoreError):
    """A stored session snapshot failed its checksum or schema validation."""


class ServiceError(ReproError):
    """Raised by the detection-as-a-service layer (workers, frontend)."""


class ProtocolError(ServiceError):
    """A wire message violated the service protocol (bad framing, bad
    JSON, unsupported version, or a malformed/oversized payload)."""


class WorkerUnavailableError(ServiceError):
    """A service worker could not be reached (connection refused, reset,
    or EOF mid-conversation) — the trigger for session re-homing."""

    def __init__(self, worker: str, detail: str) -> None:
        super().__init__(f"worker {worker!r} unavailable: {detail}")
        self.worker = worker
