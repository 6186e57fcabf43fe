"""Resilient fleet supervisor: detection-as-a-service over many rigs.

The :mod:`repro.fleet` package multiplexes many teleoperated-rig sessions
through one batched detector runtime (:class:`repro.core.\
BatchedNextStateEstimator` lanes behind the guard's batch-sink seam) with
fail-operational guarantees:

- **durable sessions** — per-session guard state checkpoints into a
  versioned, checksummed :class:`SessionStore` (in-memory or sqlite); a
  killed session resumes bit-identically from its last checkpoint;
- **lane quarantine** — a session that throws, stalls, or fails snapshot
  integrity is ejected from the batch (survivor lanes keep their exact
  bytes) and escalated through the NOMINAL/COASTING/STALE/ESTOPPED
  health machine, never crashing the supervisor;
- **bounded ingest** — per-session queues reject frames when full
  (explicit backpressure), and heartbeat watchdogs walk silent sessions
  to a PLC E-STOP decision.

Configuration comes from ``REPRO_FLEET_*`` environment variables via
:class:`FleetConfig`; chaos campaigns inject ``session_kill`` /
``store_corrupt`` / ``slow_consumer`` faults through
:class:`repro.testing.ChaosInjector`.
"""

from repro.fleet.config import FleetConfig
from repro.fleet.session import (
    FleetSession,
    SessionBoard,
    SessionPlc,
    SessionSpec,
    TelemetryFrame,
)
from repro.fleet.store import (
    InMemorySessionStore,
    RetryingSessionStore,
    SessionSnapshot,
    SessionStore,
    SqliteSessionStore,
    canonical_payload,
    payload_checksum,
)
from repro.fleet.supervisor import FleetSupervisor, TickReport

__all__ = [
    "FleetConfig",
    "FleetSession",
    "FleetSupervisor",
    "InMemorySessionStore",
    "RetryingSessionStore",
    "SessionBoard",
    "SessionPlc",
    "SessionSnapshot",
    "SessionSpec",
    "SessionStore",
    "SqliteSessionStore",
    "TelemetryFrame",
    "TickReport",
    "canonical_payload",
    "payload_checksum",
]
