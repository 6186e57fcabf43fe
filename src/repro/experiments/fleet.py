"""Fleet campaign driver: many rig sessions, chaos, crash recovery.

Drives a :class:`repro.fleet.FleetSupervisor` with deterministic
per-session telemetry streams so that two campaigns with the same seed —
or one campaign killed partway and resumed from its
:class:`repro.fleet.SessionStore` — can be compared fingerprint for
fingerprint.  Telemetry is a pure function of ``(seed, session, frame
index)``: smooth sinusoidal motor positions (they must pass the
supervisor's plausibility gate) with a periodic measurement dropout to
exercise coasting, so replaying frames after a crash regenerates exactly
the bytes the dead worker saw.

Recorded sim runs plug into the same machinery through
:func:`frames_from_trace`, which converts a
:meth:`repro.sim.RunTrace.detector_stream` into telemetry frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.thresholds import SafetyThresholds
from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    SessionSpec,
    SessionStore,
    TelemetryFrame,
    TickReport,
)

#: Wide-open nominal thresholds: campaign streams are benign, so the
#: interesting events are fleet-level (kills, quarantines), not alerts.
NOMINAL_THRESHOLDS = SafetyThresholds(
    motor_velocity=(50.0, 50.0, 50.0),
    motor_acceleration=(50000.0, 50000.0, 50000.0),
    joint_velocity=(5.0, 5.0, 5.0),
)

#: Every Nth frame of a stream carries no measurement (isolated coast
#: cycles, never enough in a row to trip the coast cap).
DROPOUT_EVERY = 17


def session_id(index: int) -> str:
    """Canonical campaign session id for session ``index``."""
    return f"rig-{index:03d}"


def frame_for(seed: int, session: int, index: int) -> TelemetryFrame:
    """The ``index``-th telemetry frame of one session's stream.

    A pure function — no RNG state — so a resumed campaign regenerates
    any frame a killed worker already consumed.  Motor positions follow a
    small per-session sinusoid (consecutive samples differ by far less
    than the supervisor's implausible-jump gate).
    """
    phase = 0.37 * session + 0.11 * seed
    angle = 0.008 * index + phase
    mpos: Optional[Tuple[float, float, float]] = (
        0.05 * math.sin(angle),
        0.05 * math.cos(angle),
        0.02 * math.sin(2.0 * angle),
    )
    if index % DROPOUT_EVERY == DROPOUT_EVERY - 1:
        mpos = None
    dac = tuple(100 + ((session * 31 + index * 7 + axis) % 50) for axis in range(3))
    return TelemetryFrame(tick=index, dac=dac, pedal_down=True, mpos=mpos)


def frames_from_trace(trace) -> List[TelemetryFrame]:
    """A recorded :class:`repro.sim.RunTrace` as fleet telemetry frames."""
    dac, mpos, pedal_down = trace.detector_stream()
    return [
        TelemetryFrame(
            tick=i,
            dac=tuple(int(v) for v in dac[i]),
            pedal_down=bool(pedal_down[i]),
            mpos=tuple(float(v) for v in mpos[i]),
        )
        for i in range(len(pedal_down))
    ]


@dataclass
class FleetCampaignResult:
    """Outcome of one fleet campaign (or one resumed leg of it)."""

    fingerprints: Dict[str, Dict[str, object]]
    ticks_run: int
    frames_sent: int = 0
    frames_rejected: int = 0
    kills: List[Tuple[str, int]] = field(default_factory=list)
    quarantines: List[Tuple[str, str]] = field(default_factory=list)
    checkpoints: int = 0
    supervisor: Optional[FleetSupervisor] = None


def run_fleet_campaign(
    num_sessions: int = 4,
    ticks: int = 64,
    seed: int = 0,
    store: Optional[SessionStore] = None,
    config: Optional[FleetConfig] = None,
    injector=None,
    resume: bool = False,
    on_tick: Optional[Callable[[int, TickReport], None]] = None,
    thresholds: Optional[SafetyThresholds] = None,
) -> FleetCampaignResult:
    """Run (or resume) a deterministic multi-session fleet campaign.

    Each session receives one frame per tick from its own pure stream
    (:func:`frame_for`).  With ``resume=True`` the sessions are restored
    from ``store`` instead of registered fresh: the stream cursor rewinds
    to each session's checkpointed ``frames_processed`` and ticking
    continues after the newest checkpoint, which is exactly the recovery
    protocol a killed worker's replacement follows.  ``session_kill``
    chaos faults mid-campaign take the same path in-process: the tick
    report says where the resumed session's cursor must rewind to.

    ``on_tick(tick, report)`` runs after every tick, the catch-up ticks
    included — the SIGKILL chaos test uses it to kill the campaign
    process at a chosen tick.
    """
    thresholds = thresholds if thresholds is not None else NOMINAL_THRESHOLDS
    fleet = FleetSupervisor(store=store, config=config, injector=injector)
    specs = [
        SessionSpec(session_id=session_id(i), thresholds=thresholds)
        for i in range(num_sessions)
    ]
    cursor: Dict[str, int] = {}
    start_tick = 0
    if resume:
        for spec in specs:
            session = fleet.resume(spec)
            cursor[spec.session_id] = session.frames_processed
            last = session.last_checkpoint_tick
            if last is not None:
                start_tick = max(start_tick, last + 1)
    else:
        for spec in specs:
            fleet.register(spec)
            cursor[spec.session_id] = 0

    result = FleetCampaignResult(
        fingerprints={}, ticks_run=0, supervisor=fleet
    )
    index_of = {spec.session_id: i for i, spec in enumerate(specs)}

    def behind() -> bool:
        # Replayed sessions may still be behind the stream when the tick
        # budget runs out; ticking goes on until every live cursor catches
        # up, so a resumed campaign is comparable to an uninterrupted one.
        return any(
            cursor[spec.session_id] < ticks
            and not fleet.sessions[spec.session_id].quarantined
            for spec in specs
        )

    tick = start_tick
    while tick < ticks or behind():
        for spec in specs:
            sid = spec.session_id
            if fleet.sessions[sid].quarantined:
                continue
            if cursor[sid] >= ticks:
                continue  # a resumed session replaying: stream is finite
            frame = frame_for(seed, index_of[sid], cursor[sid])
            result.frames_sent += 1
            if fleet.ingest(sid, frame):
                cursor[sid] += 1
            else:
                result.frames_rejected += 1
        report = fleet.tick(tick)
        result.ticks_run += 1
        result.kills.extend(report.killed)
        result.quarantines.extend(report.quarantined)
        result.checkpoints += len(report.checkpointed)
        for sid, resumed_at in report.killed:
            # Everything after the checkpoint died with the worker; the
            # stream replays from the checkpointed frame count.
            cursor[sid] = resumed_at
        if on_tick is not None:
            on_tick(tick, report)
        tick += 1

    result.fingerprints = fleet.fingerprints()
    return result


def format_results(result: FleetCampaignResult) -> str:
    """Human-readable campaign summary (CLI + results artifact)."""
    lines = [
        f"sessions: {len(result.fingerprints)}",
        f"ticks run: {result.ticks_run}",
        f"frames sent: {result.frames_sent} "
        f"(rejected by backpressure: {result.frames_rejected})",
        f"checkpoints written: {result.checkpoints}",
        f"session kills survived: {len(result.kills)}",
        f"quarantines: {len(result.quarantines)}",
        "",
        f"{'session':<12} {'decisions':>9} {'health':>10}  digest",
    ]
    for sid in sorted(result.fingerprints):
        fp = result.fingerprints[sid]
        lines.append(
            f"{sid:<12} {fp['decisions']:>9} {fp['health']:>10}  "
            f"{str(fp['digest'])[:16]}"
        )
    for sid, reason in result.quarantines:
        lines.append(f"quarantined {sid}: {reason}")
    return "\n".join(lines)
