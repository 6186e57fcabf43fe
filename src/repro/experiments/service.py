"""Service campaign driver: fleet campaigns replayed over the wire.

The over-the-wire twin of :func:`repro.experiments.fleet.run_fleet_campaign`:
spawn a worker pool sharing one sqlite session store, shard the sessions
across it through a :class:`~repro.service.ServiceFrontend`, and drive
the same deterministic telemetry streams tick by tick — optionally
SIGKILLing a worker mid-campaign to exercise session re-homing.  The
drive loop mirrors the in-process driver's cursor semantics exactly
(advance on accept, rewind to the checkpointed frame count on
kill/re-home, catch-up ticking until every stream finishes), which is
what makes the two comparable fingerprint for fingerprint: the
differential golden in ``tests/test_service.py`` asserts the decision
hash chains are byte-identical.

Streams are either the pure :func:`repro.experiments.fleet.frame_for`
synthetics or explicit per-session frame lists (e.g. a recorded
scenario-B run via :func:`repro.experiments.fleet.frames_from_trace`);
:func:`run_inprocess_reference` replays explicit streams through a local
:class:`~repro.fleet.FleetSupervisor` with the identical loop, producing
the baseline the service run is held to.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.thresholds import SafetyThresholds
from repro.experiments.fleet import (
    NOMINAL_THRESHOLDS,
    frame_for,
    session_id,
)
from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    SessionSpec,
    SessionStore,
    TelemetryFrame,
)
from repro.service.frontend import connect_frontend
from repro.service.spawn import WorkerProcess, spawn_pool


@dataclass
class ServiceCampaignResult:
    """Outcome of one over-the-wire fleet campaign."""

    fingerprints: Dict[str, Dict[str, object]]
    ticks_run: int
    frames_sent: int = 0
    frames_rejected: int = 0
    #: Sessions re-homed after a worker death → frame count replayed from.
    rehomed: Dict[str, int] = field(default_factory=dict)
    lost: Dict[str, str] = field(default_factory=dict)
    quarantines: List[Tuple[str, str]] = field(default_factory=list)
    dead_workers: List[str] = field(default_factory=list)
    #: Session ids flushed by the final checkpoint-on-drain, per worker.
    drained: Dict[str, List[str]] = field(default_factory=dict)
    #: Worker placement at campaign end (session -> worker name).
    owners: Dict[str, str] = field(default_factory=dict)


def _make_specs(
    num_sessions: int, thresholds: Optional[SafetyThresholds]
) -> List[SessionSpec]:
    thresholds = thresholds if thresholds is not None else NOMINAL_THRESHOLDS
    return [
        SessionSpec(session_id=session_id(i), thresholds=thresholds)
        for i in range(num_sessions)
    ]


def run_service_campaign(
    store_path: str,
    num_sessions: int = 4,
    ticks: int = 64,
    seed: int = 0,
    workers: int = 2,
    fleet: Optional[FleetConfig] = None,
    thresholds: Optional[SafetyThresholds] = None,
    streams: Optional[Sequence[Sequence[TelemetryFrame]]] = None,
    kill_worker: Optional[Tuple[int, str]] = None,
    max_frame_bytes: Optional[int] = None,
) -> ServiceCampaignResult:
    """Run a deterministic fleet campaign through a spawned worker pool.

    With ``streams`` each session ``i`` replays ``streams[i]`` verbatim;
    otherwise session ``i`` streams :func:`frame_for`\\ ``(seed, i, ·)``
    for ``ticks`` frames, matching
    :func:`~repro.experiments.fleet.run_fleet_campaign`.
    ``kill_worker=(tick, name)`` SIGKILLs worker ``name`` right after
    that tick round; its sessions re-home onto the survivors and their
    telemetry cursors rewind to the checkpointed frame counts, exactly
    like the in-process ``session_kill`` chaos path.
    """
    if streams is not None:
        num_sessions = len(streams)
    specs = _make_specs(num_sessions, thresholds)
    pool = spawn_pool(
        workers,
        store_path,
        fleet_config=fleet,
        max_frame_bytes=max_frame_bytes,
    )
    try:
        return asyncio.run(
            _drive(pool, specs, ticks, seed, streams, kill_worker)
        )
    finally:
        for proc in pool:
            proc.stop(timeout=10.0)


async def _drive(
    pool: List[WorkerProcess],
    specs: List[SessionSpec],
    ticks: int,
    seed: int,
    streams: Optional[Sequence[Sequence[TelemetryFrame]]],
    kill_worker: Optional[Tuple[int, str]],
) -> ServiceCampaignResult:
    by_name = {proc.name: proc for proc in pool}
    frontend = await connect_frontend(
        {proc.name: proc.address for proc in pool}
    )
    result = ServiceCampaignResult(fingerprints={}, ticks_run=0)
    try:
        for spec in specs:
            await frontend.register(spec)

        index_of = {spec.session_id: i for i, spec in enumerate(specs)}
        cursor = {spec.session_id: 0 for spec in specs}
        blocked: set = set()

        def stream_len(sid: str) -> int:
            if streams is not None:
                return len(streams[index_of[sid]])
            return ticks

        def frame_at(sid: str, index: int) -> TelemetryFrame:
            if streams is not None:
                return streams[index_of[sid]][index]
            return frame_for(seed, index_of[sid], index)

        tick = 0
        while any(
            cursor[spec.session_id] < stream_len(spec.session_id)
            and spec.session_id not in blocked
            for spec in specs
        ):
            frames: Dict[str, TelemetryFrame] = {}
            for spec in specs:
                sid = spec.session_id
                if sid in blocked or cursor[sid] >= stream_len(sid):
                    continue
                frames[sid] = frame_at(sid, cursor[sid])
                result.frames_sent += 1
            outcome = await frontend.run_tick(tick, frames)
            result.ticks_run += 1
            for sid, accepted in outcome.accepted.items():
                if accepted:
                    cursor[sid] += 1
                else:
                    result.frames_rejected += 1
            for report in outcome.reports.values():
                for sid, reason in report["quarantined"]:
                    blocked.add(sid)
                    result.quarantines.append((sid, reason))
            # Everything a dead worker held since its last checkpoints is
            # gone; the streams replay from the checkpointed frame counts.
            for sid, replay_from in outcome.rewinds.items():
                cursor[sid] = replay_from
                result.rehomed[sid] = replay_from
            for sid, reason in outcome.lost.items():
                blocked.add(sid)
                result.lost[sid] = reason
            result.dead_workers.extend(outcome.dead_workers)
            if kill_worker is not None and tick == kill_worker[0]:
                victim = by_name[kill_worker[1]]
                victim.kill()
                victim.wait(timeout=10.0)
            tick += 1

        result.drained = await frontend.drain_all()
        result.fingerprints = await frontend.fingerprints()
        result.owners = dict(frontend.owners)
        return result
    finally:
        await frontend.close(shutdown_workers=True)


def run_inprocess_reference(
    streams: Sequence[Sequence[TelemetryFrame]],
    thresholds: Optional[SafetyThresholds] = None,
    fleet: Optional[FleetConfig] = None,
    store: Optional[SessionStore] = None,
) -> Dict[str, Dict[str, object]]:
    """Replay explicit streams through a local supervisor (the baseline).

    The same drive loop as :func:`run_service_campaign`, minus the
    network and the chaos: the returned fingerprints are what any
    service run of the same streams — across any number of workers,
    kills, and re-homings — must reproduce byte for byte.
    """
    supervisor = FleetSupervisor(store=store, config=fleet)
    specs = _make_specs(len(streams), thresholds)
    for spec in specs:
        supervisor.register(spec)
    index_of = {spec.session_id: i for i, spec in enumerate(specs)}
    cursor = {spec.session_id: 0 for spec in specs}
    tick = 0
    while any(
        cursor[spec.session_id] < len(streams[index_of[spec.session_id]])
        and not supervisor.sessions[spec.session_id].quarantined
        for spec in specs
    ):
        for spec in specs:
            sid = spec.session_id
            if supervisor.sessions[sid].quarantined:
                continue
            if cursor[sid] >= len(streams[index_of[sid]]):
                continue
            if supervisor.ingest(sid, streams[index_of[sid]][cursor[sid]]):
                cursor[sid] += 1
        supervisor.tick(tick)
        tick += 1
    supervisor.drain()
    return supervisor.fingerprints()


def format_service_results(result: ServiceCampaignResult) -> str:
    """Human-readable campaign summary (CLI + results artifact)."""
    lines = [
        f"sessions: {len(result.fingerprints)}",
        f"ticks run: {result.ticks_run}",
        f"frames sent: {result.frames_sent} "
        f"(rejected by backpressure: {result.frames_rejected})",
        f"workers killed: {len(result.dead_workers)} "
        f"({', '.join(result.dead_workers) or 'none'})",
        f"sessions re-homed: {len(result.rehomed)}",
        f"sessions lost: {len(result.lost)}",
        f"quarantines: {len(result.quarantines)}",
        "",
        f"{'session':<12} {'worker':<8} {'decisions':>9} {'health':>10}  digest",
    ]
    for sid in sorted(result.fingerprints):
        fp = result.fingerprints[sid]
        lines.append(
            f"{sid:<12} {result.owners.get(sid, '-'):<8} "
            f"{fp['decisions']:>9} {fp['health']:>10}  "
            f"{str(fp['digest'])[:16]}"
        )
    return "\n".join(lines)
