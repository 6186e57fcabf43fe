"""One tenant of the fleet supervisor: a rig session and its guard state.

A :class:`FleetSession` hosts the per-session half of detection as a
service: a scalar :class:`repro.core.GuardSupervisor` (plausibility
screen, coasting, staleness watchdog) attached to a :class:`SessionBoard`
— a minimal virtual USB board whose PLC latches E-STOP decisions for the
remote rig instead of driving motors.  Telemetry arrives as
:class:`TelemetryFrame` objects through a **bounded ingest queue**
(``REPRO_FLEET_QUEUE_DEPTH``); a full queue rejects the frame, which the
caller observes as backpressure, rather than silently shedding the oldest
telemetry.

Every decision the guard makes extends an order-sensitive SHA-256 **hash
chain** (``digest = H(prev_digest || canonical_record)``), so two runs
agree on their entire decision history iff their final digests match —
and the chain resumes from a checkpoint, which is what lets a killed and
restored session prove bit-identical continuation.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from json import dumps
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.control.state_machine import RobotState
from repro.core.detector import AnomalyDetector, FusionRule
from repro.core.dynamic_model import RavenDynamicModel
from repro.core.estimator import NextStateEstimator, hex_vector
from repro.core.mitigation import MitigationStrategy
from repro.core.pipeline import (
    HEALTH_VALUE,
    DetectorGuard,
    GuardHealth,
    GuardSupervisor,
    SupervisorConfig,
)
from repro.core.thresholds import SafetyThresholds
from repro.fleet.config import FleetConfig
from repro.fleet.store import canonical_payload
from repro.hw.usb_packet import CommandPacket, command_packet

#: Schema version of fleet session checkpoints.  v2 added
#: ``frames_ingested``; v1 payloads still restore (the counter is
#: reconstructed as ``frames_processed``, consistent with the cleared
#: queue a resume starts from).
SESSION_SNAPSHOT_VERSION = 2

#: How many recent decision records a session retains for the
#: quarantine flight dump (bounded — sessions are long-lived).
RECENT_DECISIONS = 64


@dataclass(frozen=True)
class TelemetryFrame:
    """One telemetry sample from a remote rig.

    ``dac`` is the commanded DAC triple the rig's control software
    emitted; ``mpos`` is the accompanying motor-shaft measurement
    (radians), or ``None`` when the frame carried no measurement.
    """

    tick: int
    dac: Tuple[int, int, int]
    pedal_down: bool = True
    mpos: Optional[Tuple[float, float, float]] = None

    def to_packet(self) -> CommandPacket:
        """The equivalent on-wire command packet (canonical encoding)."""
        state = RobotState.PEDAL_DOWN if self.pedal_down else RobotState.PEDAL_UP
        return command_packet(state, True, self.dac)

    def mpos_array(self) -> Optional[np.ndarray]:
        if self.mpos is None:
            return None
        return np.asarray(self.mpos, dtype=float)


class SessionPlc:
    """E-STOP latch for a remote rig (the fleet's PLC stand-in).

    The guard's mitigation chain calls :meth:`trigger_estop` exactly like
    the hardware PLC's; here the latch is the decision the service
    reports back to the rig, not a brake line.
    """

    def __init__(self) -> None:
        self.estop_latched = False
        self.estop_reason: Optional[str] = None

    def trigger_estop(self, reason: str) -> None:
        if self.estop_latched:
            return
        self.estop_latched = True
        self.estop_reason = reason


class SessionBoard:
    """Minimal virtual USB board a guard can attach to.

    Provides exactly the surface the guard touches on the fleet path:
    the ``plc`` (E-STOP escalation) and the ``guard`` attachment slot.
    Measurements never come from this board — they arrive in telemetry
    frames through :meth:`repro.core.GuardSupervisor.process`.

    The board holds its guard weakly.  The session owns the guard, and
    the guard holds the board, so a strong slot would make a cycle: a
    dropped session's guard state, transition log included, would then
    outlive it until the cyclic collector ran.
    """

    def __init__(self) -> None:
        self.plc = SessionPlc()
        self._guard: Optional[Callable[[], Any]] = None

    @property
    def guard(self) -> Any:
        return None if self._guard is None else self._guard()

    @guard.setter
    def guard(self, guard: Any) -> None:
        self._guard = None if guard is None else weakref.ref(guard)


@dataclass(frozen=True)
class SessionSpec:
    """Configuration of one fleet session (config, not state).

    Resume rebuilds the session from the *same spec*, then restores the
    checkpointed state into it — mirroring how
    :meth:`repro.core.GuardSupervisor.restore` refuses snapshots taken
    under a different :class:`SupervisorConfig`.
    """

    session_id: str
    thresholds: SafetyThresholds
    strategy: MitigationStrategy = MitigationStrategy.BLOCK
    fusion: FusionRule = FusionRule.ALL
    decision_window: Optional[Tuple[int, int]] = None
    parameter_error: float = 1.03
    integrator: str = "euler"
    supervisor: Optional[SupervisorConfig] = None

    def supervisor_config(self, fleet: FleetConfig) -> SupervisorConfig:
        """The session's supervisor config (fleet defaults unless set)."""
        if self.supervisor is not None:
            return self.supervisor
        return SupervisorConfig(
            max_coast_cycles=fleet.max_coast_ticks,
            staleness_timeout_cycles=fleet.stale_after_ticks,
        )

    def build_supervisor(self, fleet: FleetConfig) -> GuardSupervisor:
        """A pristine supervised guard for this session."""
        model = RavenDynamicModel(
            integrator=self.integrator, parameter_error=self.parameter_error
        )
        guard = DetectorGuard(
            estimator=NextStateEstimator(model),
            detector=AnomalyDetector(
                thresholds=self.thresholds,
                fusion=self.fusion,
                decision_window=self.decision_window,
            ),
            strategy=self.strategy,
        )
        return GuardSupervisor(guard, self.supervisor_config(fleet))


def _chain_digest(prev_hex: str, record: Dict[str, Any]) -> str:
    """One link of the decision hash chain."""
    encoded = dumps(record, sort_keys=True, separators=(",", ":"))
    return sha256((prev_hex + encoded).encode("utf-8")).hexdigest()


#: The fields of a decision record, in the order the record lists them.
DECISION_FIELDS = (
    "tick",
    "dac",
    "pedal_down",
    "had_mpos",
    "allowed",
    "evaluated",
    "alert",
    "health",
)

#: A decision record's values, in :data:`DECISION_FIELDS` order.
DecisionValues = Tuple[Any, ...]


def decision_record(values: DecisionValues) -> Dict[str, Any]:
    """The record a decision's values stand for (``dac`` as a list)."""
    record = dict(zip(DECISION_FIELDS, values))
    record["dac"] = list(record["dac"])
    return record


#: JSON text of the scalar types the chain and checkpoint formatters write
#: themselves, keyed by exact type: ``json.dumps``'s own spellings
#: (``ensure_ascii``).
_JSON_SCALAR = {
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    str: encode_basestring_ascii,
    type(None): {None: "null"}.__getitem__,
}


def _json_scalar(value: Any) -> str:
    """``json.dumps(value)`` for a ``bool``, ``int``, ``str`` or ``None``
    of exact type; :class:`TypeError` for any other value."""
    try:
        return _JSON_SCALAR[type(value)](value)
    except KeyError:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        ) from None


def _hex_list(hexes: Optional[List[str]]) -> str:
    """JSON text of a :func:`hex_vector` result (``float.hex`` spellings
    need no escaping)."""
    if not hexes:
        return "null" if hexes is None else "[]"
    return '["' + '","'.join(hexes) + '"]'


def _transition_row(entry: Tuple[int, GuardHealth]) -> str:
    """JSON text of one ``(cycle, health)`` transition-log entry."""
    cycle, health = entry
    return f"[{_json_scalar(cycle)},{_json_scalar(HEALTH_VALUE[health])}]"


def _chain_link(prev_hex: str, values: DecisionValues) -> str:
    """:func:`_chain_digest` of :func:`decision_record` ``(values)``,
    formatted directly.

    The record's keys are fixed, so their sorted order is too; each value
    (and each ``dac`` entry) of exact type ``bool``, ``int`` or ``str`` is
    written as ``json.dumps`` writes it.  Any other value falls back to
    :func:`_chain_digest`, which formats — or rejects — it as before.
    """
    tick, dac, pedal_down, had_mpos, allowed, evaluated, alert, health = values
    j = _JSON_SCALAR
    try:
        encoded = (
            f'{{"alert":{j[type(alert)](alert)},'
            f'"allowed":{j[type(allowed)](allowed)},'
            f'"dac":[{",".join([j[type(v)](v) for v in dac])}],'
            f'"evaluated":{j[type(evaluated)](evaluated)},'
            f'"had_mpos":{j[type(had_mpos)](had_mpos)},'
            f'"health":{j[type(health)](health)},'
            f'"pedal_down":{j[type(pedal_down)](pedal_down)},'
            f'"tick":{j[type(tick)](tick)}}}'
        )
    except KeyError:
        return _chain_digest(prev_hex, decision_record(values))
    return sha256((prev_hex + encoded).encode("utf-8")).hexdigest()


class FleetSession:
    """One registered session: supervised guard + ingest queue + chain."""

    def __init__(self, spec: SessionSpec, fleet: FleetConfig) -> None:
        self.spec = spec
        self.fleet = fleet
        self.supervisor = spec.build_supervisor(fleet)
        self.board = SessionBoard()
        self.supervisor.attach(self.board)
        self.queue: Deque[TelemetryFrame] = deque()
        #: Frames whose verdict arrives from the batched finalize pass,
        #: each with the session's health the moment it was processed —
        #: by dispatch time a later frame in the same drain burst may
        #: already have moved the health machine on.
        self.pending: List[Tuple[TelemetryFrame, str]] = []
        #: The last decisions' values (see :meth:`recent_records`).
        self.recent: Deque[DecisionValues] = deque(maxlen=RECENT_DECISIONS)
        # The chain's genesis is the session id, so two sessions with
        # identical decision histories still have distinct digests.
        self.digest = sha256(spec.session_id.encode("utf-8")).hexdigest()
        self.frames_ingested = 0
        self.frames_rejected = 0
        self.frames_processed = 0
        self.decisions = 0
        self.checkpoint_version = 0  # repro: allow[RPR006] store-managed, set by FleetSupervisor.checkpoint/resume
        self.last_checkpoint_tick: Optional[int] = None  # repro: allow[RPR006] store-managed, set by FleetSupervisor.checkpoint/resume
        self.last_frame: Optional[TelemetryFrame] = None
        self.quarantined = False
        self.quarantine_reason: Optional[str] = None
        #: ``slow_consumer`` chaos: ticks before which drain() is a no-op.
        self.stalled_until_tick = -1
        #: The supervisor config's canonical JSON: configuration, written
        #: into every checkpoint as is.
        self._config_text = canonical_payload(self.supervisor.config.to_dict())
        #: Each transition-log entry's JSON text, keyed by the entry, for
        #: the entries live at the last checkpoint.
        self._transition_text: Dict[Tuple[int, GuardHealth], str] = {}

    @property
    def session_id(self) -> str:
        return self.spec.session_id

    @property
    def health(self) -> str:
        return HEALTH_VALUE[self.supervisor.stats.health]

    # -- ingest (bounded queue, explicit backpressure) ---------------------------

    def offer(self, frame: TelemetryFrame) -> bool:
        """Enqueue one frame; ``False`` (backpressure) when full."""
        if len(self.queue) >= self.fleet.queue_depth:
            self.frames_rejected += 1
            return False
        self.queue.append(frame)
        self.frames_ingested += 1
        return True

    def stalled(self, tick: int) -> bool:
        return tick < self.stalled_until_tick

    # -- decision chain ----------------------------------------------------------

    def record_decision(
        self,
        tick: int,
        frame: TelemetryFrame,
        allowed: bool,
        evaluated: bool,
        alert: bool,
        health: Optional[str] = None,
    ) -> None:
        """Extend the hash chain with one decision (and keep it in ``recent``)."""
        values = (
            tick,
            tuple(frame.dac),
            frame.pedal_down,
            frame.mpos is not None,
            allowed,
            evaluated,
            alert,
            self.health if health is None else health,
        )
        self.digest = _chain_link(self.digest, values)
        self.decisions += 1
        self.recent.append(values)

    def recent_records(self, count: Optional[int] = None) -> List[Dict[str, Any]]:
        """The last ``count`` retained decision records (default: all),
        oldest first."""
        values = list(self.recent)
        if count is not None:
            values = values[-count:]
        return [decision_record(v) for v in values]

    def fingerprint(self) -> Dict[str, Any]:
        """Comparable identity of this session's entire history."""
        return {
            "digest": self.digest,
            "decisions": self.decisions,
            "frames_processed": self.frames_processed,
            "frames_rejected": self.frames_rejected,
            "health": self.health,
            "estopped": self.board.plc.estop_latched,
            "stats": self.supervisor.stats.summary(),
        }

    # -- durable state -----------------------------------------------------------

    def snapshot_payload(self, tick: int) -> Dict[str, Any]:
        """The checkpoint payload (guard state + fleet-layer counters).

        The caller must have written the session's batched-lane estimator
        state back into the scalar estimator first (see
        ``_SessionPack.writeback``); queued-but-unprocessed frames are
        deliberately *not* checkpointed — on resume the feed replays from
        ``frames_processed``.

        This is the specification of a checkpoint; the fleet stores
        :meth:`checkpoint_text`, which writes ``canonical_payload`` of this
        payload without building it.
        """
        return {
            "version": SESSION_SNAPSHOT_VERSION,
            "session_id": self.session_id,
            "tick": tick,
            "supervisor": self.supervisor.snapshot(),
            "digest": self.digest,
            "decisions": self.decisions,
            "frames_ingested": self.frames_ingested,
            "frames_processed": self.frames_processed,
            "frames_rejected": self.frames_rejected,
            "estop_latched": self.board.plc.estop_latched,
            "estop_reason": self.board.plc.estop_reason,
        }

    def checkpoint_text(self, tick: int) -> str:
        """``canonical_payload(self.snapshot_payload(tick))``, written
        directly: the same characters, with no payload tree built.

        Keys are written in sorted order, scalars as ``json.dumps`` writes
        them (:func:`_json_scalar`) and float vectors through
        :func:`hex_vector`.  The config text is computed once, at
        construction; the rarely non-empty alert events and debouncer
        window are ``canonical_payload`` of their own snapshots.  Each
        transition-log entry is rendered once and reused while it stays in
        the log.  Same preconditions as :meth:`snapshot_payload`.
        """
        j = _json_scalar
        supervisor = self.supervisor
        guard = supervisor.guard
        stats = guard.stats
        detector = guard.detector
        debouncer = detector.debouncer
        estimator = guard.estimator.snapshot()
        plc = self.board.plc

        log = stats.health_transitions
        cache = self._transition_text
        rows = [cache.get(entry) or _transition_row(entry) for entry in log]
        self._transition_text = dict(zip(log, rows))
        events = (
            canonical_payload(stats.alert_events_snapshot())
            if stats.alert_events
            else "[]"
        )
        dropped = (
            f',"transitions_dropped":{j(stats.transitions_dropped)}'
            if stats.transitions_dropped
            else ""
        )
        window = "null" if debouncer is None else canonical_payload(debouncer.snapshot())
        return (
            f'{{"decisions":{j(self.decisions)},'
            f'"digest":{j(self.digest)},'
            f'"estop_latched":{j(plc.estop_latched)},'
            f'"estop_reason":{j(plc.estop_reason)},'
            f'"frames_ingested":{j(self.frames_ingested)},'
            f'"frames_processed":{j(self.frames_processed)},'
            f'"frames_rejected":{j(self.frames_rejected)},'
            f'"session_id":{j(self.session_id)},'
            f'"supervisor":{{"coast_streak":{j(supervisor._coast_streak)},'
            f'"config":{self._config_text},'
            f'"cycle":{j(supervisor._cycle)},'
            f'"guard":{{"block_streak":{j(guard._block_streak)},'
            f'"cycle":{j(guard._cycle)},'
            f'"detector":{{"alerts":{j(detector.alerts)},'
            f'"debouncer":{window},'
            f'"evaluations":{j(detector.evaluations)}}},'
            f'"estimator":{{"coast_streak":{j(estimator["coast_streak"])},'
            f'"jpos":{_hex_list(estimator["jpos"])},'
            f'"jvel":{_hex_list(estimator["jvel"])},'
            f'"predicted_jpos":{_hex_list(estimator["predicted_jpos"])},'
            f'"predicted_jvel":{_hex_list(estimator["predicted_jvel"])}}},'
            f'"stats":{{"alert_events":{events},'
            f'"alerts":{j(stats.alerts)},'
            f'"alerts_dropped":{j(stats.alerts_dropped)},'
            f'"blocked":{j(stats.blocked)},'
            f'"coasted_cycles":{j(stats.coasted_cycles)},'
            f'"health":{j(HEALTH_VALUE[stats.health])},'
            f'"health_transitions":[{",".join(rows)}],'
            f'"implausible_measurements":{j(stats.implausible_measurements)},'
            f'"packets_evaluated":{j(stats.packets_evaluated)},'
            f'"packets_seen":{j(stats.packets_seen)},'
            f'"stale_escalations":{j(stats.stale_escalations)}{dropped}}}}},'
            f'"last_mpos":{_hex_list(hex_vector(supervisor._last_mpos))},'
            f'"last_packet_cycle":{j(supervisor._last_packet_cycle)},'
            f'"version":{j(supervisor.SNAPSHOT_VERSION)}}},'
            f'"tick":{j(tick)},'
            f'"version":{j(SESSION_SNAPSHOT_VERSION)}}}'
        )

    def restore_payload(self, payload: Dict[str, Any]) -> None:
        """Resume from a checkpoint payload (inverse of the above)."""
        if payload["version"] not in (1, SESSION_SNAPSHOT_VERSION):
            raise ValueError(
                f"session snapshot version {payload['version']} != "
                f"supported {SESSION_SNAPSHOT_VERSION}"
            )
        if payload["session_id"] != self.session_id:
            raise ValueError(
                f"snapshot belongs to {payload['session_id']!r}, "
                f"not {self.session_id!r}"
            )
        self.supervisor.restore(payload["supervisor"])
        self.digest = payload["digest"]
        self.decisions = payload["decisions"]
        # v1 checkpoints predate the ingest counter; a resume starts from
        # an empty queue, so every ingested frame was a processed one.
        self.frames_ingested = payload.get(
            "frames_ingested", payload["frames_processed"]
        )
        self.frames_processed = payload["frames_processed"]
        self.frames_rejected = payload["frames_rejected"]
        self.board.plc.estop_latched = payload["estop_latched"]
        self.board.plc.estop_reason = payload["estop_reason"]
        self.queue.clear()
        self.pending.clear()
        self.recent.clear()
        self._transition_text.clear()
        # Transient per-run state restarts clean: nothing below survives
        # the process that wrote the checkpoint.
        self.last_frame = None
        self.quarantined = False
        self.quarantine_reason = None
        self.stalled_until_tick = -1
