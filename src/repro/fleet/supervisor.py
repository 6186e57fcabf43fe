"""The fleet supervisor: fail-operational multiplexing of many sessions.

:class:`FleetSupervisor` drives N registered sessions through one
**batched lane pack**: each session's guard keeps its own scalar
detector, statistics and supervisor state machine, but the numeric core
(estimator sync/coast, one-step model prediction) runs once per tick
through a shared :class:`repro.core.BatchedNextStateEstimator`, reached
through the guard's batch-sink seam (``DetectorGuard._batch_sink`` /
``_finish_evaluation``).  A lane's decisions are byte-identical to its
guard processing the same frames inline, whoever else is packed with it
(``tests/test_fleet.py`` checks both).

Fail-operational guarantees:

- **lane fault isolation** — a session whose evaluation throws, whose
  checkpoint cannot be persisted, or whose stored state fails integrity
  is *quarantined*: its lane is ejected from the pack
  (:meth:`~repro.core.BatchedNextStateEstimator.remove_lanes` — the
  survivors' rows keep their exact bytes) and its guard is escalated
  through the existing STALE -> PLC E-STOP machine; the supervisor and
  every other session keep running;
- **durable sessions** — guard state checkpoints into a
  :class:`repro.fleet.SessionStore` every ``checkpoint_every`` ticks; a
  killed session resumes from its newest verifiable snapshot and, fed the
  same frames, continues bit-identically (hash-chain digests match an
  uninterrupted run);
- **backpressure and staleness** — bounded ingest queues reject frames
  when full; sessions that stop receiving (or stop draining —
  ``slow_consumer`` chaos) walk the supervisor's coast/STALE/E-STOP
  path instead of stalling the fleet.

Chaos hooks (``session_kill`` / ``store_corrupt`` / ``slow_consumer``
faults from :class:`repro.testing.ChaosInjector`) are consulted at the
top of every tick, keyed on session id and tick, so fault campaigns are
deterministic.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.control.state_machine import RobotState
from repro.core.estimator import BatchedNextStateEstimator, StateEstimate
from repro.core.pipeline import DetectorGuard
from repro.errors import FleetError, SessionStoreError, SnapshotIntegrityError
from repro.fleet.config import FleetConfig
from repro.fleet.session import FleetSession, SessionSpec, TelemetryFrame
from repro.fleet.store import (
    InMemorySessionStore,
    RetryingSessionStore,
    SessionSnapshot,
    SessionStore,
)
from repro.hw.usb_packet import CommandPacket
from repro.obs.export import write_jsonl
from repro.obs.runtime import get_runtime


class _SessionPack:
    """Batch sink multiplexing the sessions' estimators (one lane each).

    Each guard's ``process`` hands its packet to :meth:`capture` instead
    of evaluating inline; :meth:`finalize` then runs masked
    sync/coast/estimate rounds against one
    :class:`BatchedNextStateEstimator` and finishes each lane's decision
    through its scalar detector and mitigation chain.  That per-lane
    scalar work is isolated: a lane that throws is reported as faulted,
    never allowed to unwind the pack.

    A round's masks and measurement/DAC rows live in lane-indexed arrays
    the pack allocates once and clears each round; the estimator reads
    them and keeps none of them.  The per-lane estimates a round hands to
    the guards are rows of arrays :meth:`BatchedNextStateEstimator.estimate`
    allocates afresh and nothing writes again, so a guard's
    ``last_estimate`` may hold those rows without copying them.
    """

    def __init__(self, guards: List[DetectorGuard]) -> None:
        from repro.dynamics.batch import require_homogeneous

        require_homogeneous(
            [g.estimator.model.integrator_name for g in guards], "model integrator"
        )
        require_homogeneous([g.estimator.dt for g in guards], "estimator dt")
        require_homogeneous(
            [g.estimator.alpha for g in guards], "velocity_filter_alpha"
        )
        self.guards = list(guards)
        # Built pristine from the lanes' models, then loaded lane by lane
        # from the scalar estimators — this is also the resume path, where
        # estimators already hold checkpointed state (so
        # ``from_estimators``'s pristine-only constructor cannot be used).
        self.estimator = BatchedNextStateEstimator(
            [g.estimator.model for g in guards],
            dt=guards[0].estimator.dt,
            velocity_filter_alpha=guards[0].estimator.alpha,
        )
        for lane, guard in enumerate(guards):
            self.estimator.load_lane_from(lane, guard.estimator)
        self._captures: List[List[Tuple[CommandPacket, Optional[np.ndarray]]]] = [
            [] for _ in guards
        ]
        self._index_lanes()
        # The fleet owns the pack; guards reach it through a proxy, so no
        # pack <-> guard cycle keeps a dropped fleet's sessions alive.
        sink = weakref.proxy(self)
        for guard in guards:
            guard._batch_sink = sink

    def _index_lanes(self) -> None:
        """(Re)build the lane lookup and the round buffers."""
        num = len(self.guards)
        self._lane_of = {id(g): i for i, g in enumerate(self.guards)}
        self._sync_mask = np.zeros(num, dtype=bool)
        self._coast_mask = np.zeros(num, dtype=bool)
        self._eval_mask = np.zeros(num, dtype=bool)
        self._mpos_rows = np.zeros((num, 3))
        self._dac_rows = np.zeros((num, 3))

    @property
    def num_lanes(self) -> int:
        return len(self.guards)

    def lane_of(self, guard: DetectorGuard) -> int:
        return self._lane_of[id(guard)]

    def pending_captures(self, lane: int) -> int:
        return len(self._captures[lane])

    def capture(self, guard: DetectorGuard, packet, mpos) -> bool:
        """Record one packet for deferred batched evaluation."""
        self._captures[self._lane_of[id(guard)]].append((packet, mpos))
        return True

    def finalize(
        self,
    ) -> Tuple[List[Tuple[int, bool, bool, bool]], List[Tuple[int, BaseException]]]:
        """Run all deferred evaluations, batched; report per-lane verdicts.

        Returns ``(decisions, faults)``: decisions are
        ``(lane, allowed, evaluated, alert)`` in per-lane FIFO order;
        faults are ``(lane, exception)`` for lanes whose scalar evaluation
        raised (their remaining captures are dropped — the session is
        about to be quarantined).
        """
        decisions: List[Tuple[int, bool, bool, bool]] = []
        faults: List[Tuple[int, BaseException]] = []
        estimator = self.estimator
        sync_mask, coast_mask, eval_mask = (
            self._sync_mask,
            self._coast_mask,
            self._eval_mask,
        )
        mpos_rows, dac_rows = self._mpos_rows, self._dac_rows
        while any(self._captures):
            estimator.model.refresh_parameters()
            # A faulted lane's queue is emptied, so it takes no part in
            # any later round.
            round_caps = [
                (lane, *caps.pop(0))
                for lane, caps in enumerate(self._captures)
                if caps
            ]
            sync_mask.fill(False)
            coast_mask.fill(False)
            mpos_rows.fill(0.0)
            for lane, _, mpos in round_caps:
                if mpos is not None:
                    sync_mask[lane] = True
                    mpos_rows[lane] = mpos
                else:
                    coast_mask[lane] = True
            if sync_mask.any():
                estimator.sync(mpos_rows, sync_mask)
            if coast_mask.any():
                estimator.coast(coast_mask)

            synced = estimator.synced.tolist()
            eval_mask.fill(False)
            dac_rows.fill(0.0)
            for lane, packet, _ in round_caps:
                if packet.state is RobotState.PEDAL_DOWN and synced[lane]:
                    eval_mask[lane] = True
                    dac_rows[lane] = packet.dac_values[:3]
            if eval_mask.any():
                batch = estimator.estimate(dac_rows, eval_mask)
            evaluate = eval_mask.tolist()
            for lane, packet, _ in round_caps:
                if not evaluate[lane]:
                    # Pedal up / not yet synced: allowed, not evaluated.
                    decisions.append((lane, True, False, False))
                    continue
                guard = self.guards[lane]
                try:
                    estimate = StateEstimate(
                        motor_velocity=batch.motor_velocity[lane],
                        motor_acceleration=batch.motor_acceleration[lane],
                        joint_velocity=batch.joint_velocity[lane],
                        jpos_next=batch.jpos_next[lane],
                        jvel_next=batch.jvel_next[lane],
                        elapsed_s=batch.elapsed_s,
                    )
                    result = guard.detector.evaluate(estimate)
                    allowed = guard._finish_evaluation(packet, estimate, result)
                except Exception as exc:  # noqa: BLE001 — lane isolation
                    faults.append((lane, exc))
                    self._captures[lane].clear()
                    continue
                decisions.append((lane, allowed, True, result.alert))
        return decisions, faults

    def writeback(self, lane: int) -> None:
        """Copy a lane's batched estimator state into its scalar twin.

        Called before checkpointing (the snapshot serializes the scalar
        estimator) and before rebuilding the pack.
        """
        self.estimator.copy_lane_into(lane, self.guards[lane].estimator)

    def remove_lanes(self, lanes: List[int]) -> None:
        """Eject quarantined lanes; survivors' rows keep their bytes."""
        removed = set(lanes)
        for lane in lanes:
            guard = self.guards[lane]
            self.writeback(lane)  # preserve final state for forensics
            guard._batch_sink = None
        self.estimator.remove_lanes(lanes)
        self.guards = [g for i, g in enumerate(self.guards) if i not in removed]
        self._captures = [
            caps for i, caps in enumerate(self._captures) if i not in removed
        ]
        self._index_lanes()

    def detach(self) -> None:
        for lane, guard in enumerate(self.guards):
            self.writeback(lane)
            guard._batch_sink = None


@dataclass
class TickReport:
    """What one :meth:`FleetSupervisor.tick` did (driver feedback)."""

    tick: int
    frames_processed: int = 0
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    killed: List[Tuple[str, int]] = field(default_factory=list)
    checkpointed: List[str] = field(default_factory=list)


class FleetSupervisor:
    """Multiplexes N rig sessions over one batched detector runtime."""

    def __init__(
        self,
        store: Optional[SessionStore] = None,
        config: Optional[FleetConfig] = None,
        injector=None,
    ) -> None:
        self.config = config or FleetConfig.from_env()
        backend = store if store is not None else InMemorySessionStore()
        self.store: SessionStore = RetryingSessionStore(
            backend,
            retries=self.config.store_retries,
            backoff_s=self.config.store_backoff_s,
        )
        self.injector = injector
        self.sessions: Dict[str, FleetSession] = {}
        self._order: List[str] = []  # registration order (determinism)
        self._pack: Optional[_SessionPack] = None
        self.tick_count = 0
        self.sessions_killed = 0
        self.stores_corrupted = 0
        self._obs = get_runtime()
        if self._obs.enabled:
            registry = self._obs.registry
            self._g_active = registry.gauge(
                "repro_fleet_active_sessions", "registered, non-quarantined sessions"
            )
            self._g_quarantined = registry.gauge(
                "repro_fleet_quarantined_sessions", "sessions ejected from the pack"
            )
            self._c_frames = registry.counter(
                "repro_fleet_frames_total", "telemetry frames processed"
            )
            self._c_rejected = registry.counter(
                "repro_fleet_backpressure_total", "frames rejected by full queues"
            )
        else:
            self._g_active = None
            self._g_quarantined = None
            self._c_frames = None
            self._c_rejected = None
        self._tenant_counters: Dict[str, Any] = {}

    # -- roster ------------------------------------------------------------------

    @property
    def active(self) -> List[FleetSession]:
        """Non-quarantined sessions, in registration order."""
        return [
            self.sessions[sid]
            for sid in self._order
            if not self.sessions[sid].quarantined
        ]

    def register(self, spec: SessionSpec) -> FleetSession:
        """Add a session to the fleet (rebuilds the lane pack)."""
        self._check_admission(spec)
        session = FleetSession(spec, self.config)
        self._admit(session)
        return session

    def resume(self, spec: SessionSpec) -> FleetSession:
        """Register a session and restore it from its stored checkpoint.

        Loads the newest *verifiable* snapshot (older versions are the
        fallback when the newest is corrupt).  Raises
        :class:`SnapshotIntegrityError` when snapshots exist but none
        verifies, and :class:`FleetError` when the store holds nothing.

        The checkpoint is restored into the new session *before* it joins
        the pack, so its lane is built from the restored estimator.  A
        session whose restore fails is still registered, quarantined
        (``"restore failed"``), and the error re-raised.
        """
        snapshot = self.store.load(spec.session_id)
        if snapshot is None:
            raise FleetError(
                f"session {spec.session_id!r} has no stored checkpoint"
            )
        self._check_admission(spec)
        session = FleetSession(spec, self.config)
        try:
            session.restore_payload(snapshot.payload)
        except Exception:
            # Joins the roster already ejected: no lane is built for it.
            session.quarantined = True
            self._admit(session)
            self._quarantine([spec.session_id], "restore failed")
            raise
        # Number the next checkpoint past every stored version: after a
        # fallback the newer, unverifiable rows still hold their versions.
        session.checkpoint_version = max(snapshot.version, snapshot.newest_stored or 0)
        session.last_checkpoint_tick = snapshot.payload.get("tick")
        self._admit(session)
        return session

    def _check_admission(self, spec: SessionSpec) -> None:
        """Refuse a duplicate session id or a session past the cap."""
        if spec.session_id in self.sessions:
            raise FleetError(f"session {spec.session_id!r} already registered")
        if len(self.sessions) >= self.config.max_sessions:
            raise FleetError(
                f"fleet is full ({self.config.max_sessions} sessions)"
            )

    def _admit(self, session: FleetSession) -> None:
        """Add an admitted session to the roster (and, live, to the pack)."""
        self.sessions[session.session_id] = session
        self._order.append(session.session_id)
        if not session.quarantined:
            self._rebuild_pack()
        self._update_gauges()

    def _rebuild_pack(self) -> None:
        """Rebuild the batched pack over the active sessions.

        Live lane state is written back into the scalar estimators first,
        so re-packing is state-preserving (the snapshot round-trip is
        bit-exact; see ``tests/test_guard_snapshot.py``).
        """
        if self._pack is not None:
            self._pack.detach()
            self._pack = None
        guards = [s.supervisor.guard for s in self.active]
        if guards:
            self._pack = _SessionPack(guards)

    # -- ingest ------------------------------------------------------------------

    def ingest(self, session_id: str, frame: TelemetryFrame) -> bool:
        """Offer one telemetry frame; ``False`` signals backpressure
        (or a quarantined session, which no longer accepts frames)."""
        session = self.sessions.get(session_id)
        if session is None:
            raise FleetError(f"unknown session {session_id!r}")
        if session.quarantined:
            return False
        accepted = session.offer(frame)
        if not accepted and self._c_rejected is not None:
            self._c_rejected.inc()
        return accepted

    # -- the tick ----------------------------------------------------------------

    def tick(self, tick: Optional[int] = None) -> TickReport:
        """Advance the fleet one tick: chaos, watchdogs, drain, decide,
        quarantine, checkpoint."""
        if tick is None:
            tick = self.tick_count
        self.tick_count = tick + 1
        report = TickReport(tick=tick)

        self._apply_chaos(tick, report)

        # Watchdogs + drain (registration order, deterministic).
        for session in self.active:
            session.supervisor.tick_cycle(tick)
            if session.stalled(tick):
                continue
            while session.queue:
                frame = session.queue.popleft()
                self._process_frame(session, frame)
                report.frames_processed += 1

        # Batched evaluation + per-lane verdict dispatch.
        faulted: List[Tuple[str, str]] = []
        if self._pack is not None:
            decisions, faults = self._pack.finalize()
            lanes = self.active
            for lane, allowed, evaluated, alert in decisions:
                session = lanes[lane]
                frame, health = session.pending.pop(0)
                session.record_decision(
                    frame.tick, frame, allowed, evaluated, alert, health=health
                )
            for lane, exc in faults:
                session = lanes[lane]
                session.pending.clear()
                faulted.append(
                    (
                        session.session_id,
                        f"evaluation raised {type(exc).__name__}: {exc}",
                    )
                )
        for sid, reason in faulted:
            self._quarantine([sid], reason, tick=tick)
            report.quarantined.append((sid, reason))

        self._checkpoint_due(tick, report)
        self._update_gauges()
        return report

    def _process_frame(self, session: FleetSession, frame: TelemetryFrame) -> None:
        """Run one frame through the session's supervisor.

        Decisions that defer into the pack are recorded after finalize;
        immediate verdicts (E-STOPPED fast path, coast-cap escalation)
        are recorded on the spot.
        """
        session.last_frame = frame
        lane = (
            self._pack.lane_of(session.supervisor.guard)
            if self._pack is not None
            else None
        )
        before = self._pack.pending_captures(lane) if lane is not None else 0
        allowed = session.supervisor.process(frame.to_packet(), frame.mpos_array())
        session.frames_processed += 1
        if self._c_frames is not None:
            self._c_frames.inc()
            self._tenant_counter(session.session_id).inc()
        # Decisions are recorded against the *frame's* tick, not the fleet
        # tick, so a resumed session replaying old frames at later fleet
        # ticks still reproduces the uninterrupted run's exact chain.
        if lane is not None and self._pack.pending_captures(lane) > before:
            session.pending.append((frame, session.health))
        else:
            session.record_decision(
                frame.tick, frame, allowed, evaluated=False, alert=False
            )

    # -- chaos -------------------------------------------------------------------

    def _apply_chaos(self, tick: int, report: TickReport) -> None:
        if self.injector is None or not self.injector.wants_fleet_faults:
            return
        for session in list(self.active):
            spec = self.injector.fleet_fault(session.session_id, tick)
            if spec is None:
                continue
            if spec.kind == "slow_consumer":
                session.stalled_until_tick = tick + max(1, int(spec.hang_s))
                self._obs.log_event(
                    "fleet_slow_consumer",
                    session=session.session_id,
                    tick=tick,
                    until=session.stalled_until_tick,
                )
            elif spec.kind == "store_corrupt":
                if self.store.corrupt_latest(session.session_id):
                    self.stores_corrupted += 1
                    self._obs.log_event(
                        "fleet_store_corrupt",
                        session=session.session_id,
                        tick=tick,
                    )
            elif spec.kind == "session_kill":
                self._kill_and_resume(session, tick, report)

    def _kill_and_resume(
        self, session: FleetSession, tick: int, report: TickReport
    ) -> None:
        """``session_kill`` chaos: drop the runtime, resume from the store.

        Everything since the last checkpoint is lost — including queued
        frames — exactly like a killed worker process.  The session either
        resumes from its newest verifiable snapshot (the driver replays
        frames from ``frames_processed``) or, with no usable checkpoint,
        is quarantined.
        """
        sid = session.session_id
        self.sessions_killed += 1
        self._obs.log_event("fleet_session_kill", session=sid, tick=tick)
        spec = session.spec
        # Drop the in-memory runtime.
        self._quarantine([sid], reason=None, tick=None)
        del self.sessions[sid]
        self._order.remove(sid)
        try:
            resumed = self.resume(spec)
        except (FleetError, SessionStoreError) as exc:
            # No (usable) checkpoint: the session is gone; register a
            # quarantined tombstone so its loss is visible, not silent.
            tombstone = FleetSession(spec, self.config)
            tombstone.quarantined = True
            tombstone.quarantine_reason = f"killed, not resumable: {exc}"
            tombstone.supervisor._escalate_stale(
                f"fleet: session killed and not resumable ({exc})"
            )
            self.sessions[sid] = tombstone
            self._order.append(sid)
            report.quarantined.append((sid, tombstone.quarantine_reason))
            return
        report.killed.append((sid, resumed.frames_processed))

    # -- quarantine --------------------------------------------------------------

    def quarantine(self, session_id: str, reason: str) -> None:
        """Eject one session from the pack and escalate its guard."""
        self._quarantine([session_id], reason, tick=self.tick_count)

    def _quarantine(
        self,
        session_ids: List[str],
        reason: Optional[str],
        tick: Optional[int] = None,
    ) -> None:
        """Remove lanes from the pack; survivors are untouched.

        ``reason=None`` means a silent ejection (session_kill teardown);
        otherwise the session's own guard walks STALE -> E-STOP and the
        event is logged + flight-dumped.
        """
        active = self.active
        lanes = [
            i for i, s in enumerate(active) if s.session_id in set(session_ids)
        ]
        if self._pack is not None and lanes:
            if len(lanes) == self._pack.num_lanes:
                self._pack.detach()
                self._pack = None
            else:
                self._pack.remove_lanes(lanes)
        for sid in session_ids:
            session = self.sessions[sid]
            session.quarantined = True
            if reason is None:
                continue
            session.quarantine_reason = reason
            session.supervisor._escalate_stale(f"fleet quarantine: {reason}")
            self._obs.log_event(
                "fleet_quarantine", session=sid, tick=tick, reason=reason
            )
            self._dump_quarantine(session, tick if tick is not None else -1, reason)
        self._update_gauges()

    def _dump_quarantine(
        self, session: FleetSession, tick: int, reason: str
    ) -> None:
        """Flight-recorder dump of the session's recent decisions."""
        path = self._obs.flight_dump_path(
            label=f"fleet-{session.session_id}",
            seed=0,
            cycle=tick,
            reason="quarantine",
        )
        if path is None:
            return
        records: List[dict] = [
            {
                "session": session.session_id,
                "tick": tick,
                "reason": reason,
                "health": session.health,
                "digest": session.digest,
            }
        ]
        records.extend(session.recent_records())
        write_jsonl(path, records)

    # -- checkpoints -------------------------------------------------------------

    def _checkpoint_due(self, tick: int, report: TickReport) -> None:
        due = [
            session.session_id
            for session in self.active
            if session.last_checkpoint_tick is None
            or tick - session.last_checkpoint_tick >= self.config.checkpoint_every
        ]
        failed = self._checkpoint_isolated(due, tick, "checkpoint failed")
        report.quarantined.extend(failed)
        failed_ids = {sid for sid, _ in failed}
        report.checkpointed.extend(sid for sid in due if sid not in failed_ids)

    def drain(self, tick: Optional[int] = None) -> List[str]:
        """Checkpoint every live session, now (clean-shutdown flush).

        Cadence-based checkpointing (:meth:`_checkpoint_due`) can leave up
        to ``checkpoint_every`` ticks of decisions unpersisted, so a clean
        SIGTERM that only relied on it would still lose frames.  Shutdown
        paths (service workers, campaign teardown) call this to flush every
        active session at ``tick`` (default: the last completed tick).

        Sessions already checkpointed at that exact tick are skipped (their
        stored state is current); a session whose store write fails is
        quarantined — consistent with the cadence path — and the remaining
        sessions still drain.  Returns the drained session ids in
        registration order.
        """
        if tick is None:
            tick = max(0, self.tick_count - 1)
        live = [session.session_id for session in self.active]
        due = [
            sid for sid in live if self.sessions[sid].last_checkpoint_tick != tick
        ]
        failed = self._checkpoint_isolated(due, tick, "drain checkpoint failed")
        failed_ids = {sid for sid, _ in failed}
        drained = [sid for sid in live if sid not in failed_ids]
        self._obs.log_event("fleet_drain", tick=tick, sessions=drained)
        return drained

    def _checkpoint_isolated(
        self, session_ids: List[str], tick: int, prefix: str
    ) -> List[Tuple[str, str]]:
        """Checkpoint ``session_ids`` in one store write, isolating failures.

        The batch is all-or-none, so when it fails every session is
        written again on its own: only a session whose own write fails is
        quarantined, with reason ``"<prefix>: <error>"``.  Returns the
        ``(session_id, reason)`` of each quarantine.
        """
        failed: List[Tuple[str, str]] = []
        if not session_ids:
            return failed
        try:
            self.checkpoint(session_ids, tick)
        except SessionStoreError:
            for sid in session_ids:
                try:
                    self.checkpoint(sid, tick)
                except SessionStoreError as exc:
                    reason = f"{prefix}: {exc}"
                    self._quarantine([sid], reason, tick=tick)
                    failed.append((sid, reason))
        return failed

    def checkpoint(
        self, session_ids: Union[str, Sequence[str]], tick: int
    ) -> Union[SessionSnapshot, List[SessionSnapshot]]:
        """Write sessions' current state to the store, now.

        Takes one session id (returns its snapshot) or several (returns
        their snapshots, in order).  Several are written in a single
        all-or-none :meth:`SessionStore.save`; each session's
        ``checkpoint_version`` and ``last_checkpoint_tick`` advance only
        once that write has committed.  Each snapshot is built from the
        session's checkpoint text (:meth:`FleetSession.checkpoint_text`),
        so its ``payload`` is parsed only if a caller reads it.
        """
        single = isinstance(session_ids, str)
        ids = [session_ids] if single else list(session_ids)
        snapshots: List[SessionSnapshot] = []
        for sid in ids:
            session = self.sessions[sid]
            if self._pack is not None and not session.quarantined:
                self._pack.writeback(self._pack.lane_of(session.supervisor.guard))
            snapshots.append(
                SessionSnapshot.create(
                    session_id=sid,
                    version=session.checkpoint_version + 1,
                    encoded=session.checkpoint_text(tick),
                )
            )
        self.store.save(snapshots)
        for snapshot in snapshots:
            session = self.sessions[snapshot.session_id]
            session.checkpoint_version = snapshot.version
            session.last_checkpoint_tick = tick
        return snapshots[0] if single else snapshots

    # -- reporting ---------------------------------------------------------------

    def fingerprints(self) -> Dict[str, Dict[str, Any]]:
        """Per-session identity of everything that happened (sorted)."""
        return {
            sid: self.sessions[sid].fingerprint() for sid in sorted(self._order)
        }

    def _tenant_counter(self, session_id: str):
        counter = self._tenant_counters.get(session_id)
        if counter is None:
            slug = "".join(
                ch if (ch.isalnum() or ch == "_") else "_" for ch in session_id
            )
            counter = self._obs.registry.counter(
                f"repro_fleet_frames_total_{slug}",
                f"frames processed for session {session_id}",
            )
            self._tenant_counters[session_id] = counter
        return counter

    def _update_gauges(self) -> None:
        if self._g_active is None:
            return
        quarantined = sum(1 for s in self.sessions.values() if s.quarantined)
        self._g_active.set(len(self.sessions) - quarantined)
        self._g_quarantined.set(quarantined)
