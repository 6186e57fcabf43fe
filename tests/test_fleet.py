"""Fleet supervisor: durable sessions, quarantine, backpressure, chaos.

The fail-operational contract under test:

- session state round-trips through both :class:`SessionStore` backends
  and survives corruption (fallback to the previous version);
- a killed session resumes *bit-identically* — its decision hash chain
  converges to the digest of an uninterrupted run;
- quarantining a faulty lane leaves every healthy lane's fingerprint
  byte-identical to a no-fault run (the differential proof that lane
  removal is non-disruptive);
- bounded queues reject frames instead of silently shedding, and silent
  sessions walk the coast -> STALE -> PLC E-STOP machine.
"""

from __future__ import annotations

import gc
import hashlib
import sqlite3
import weakref
from contextlib import closing

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.detector import FusionRule
from repro.core.mitigation import MitigationStrategy
from repro.core.pipeline import (
    HEALTH_VALUE,
    MAX_HEALTH_TRANSITIONS,
    GuardHealth,
    SupervisorConfig,
)
from repro.core.thresholds import SafetyThresholds
from repro.errors import (
    FleetError,
    IntegrationError,
    SessionStoreError,
    SnapshotIntegrityError,
)
from repro.experiments.fleet import (
    DROPOUT_EVERY,
    frame_for,
    frames_from_trace,
    run_fleet_campaign,
    session_id,
)
from repro.fleet import (
    FleetConfig,
    FleetSession,
    FleetSupervisor,
    InMemorySessionStore,
    RetryingSessionStore,
    SessionBoard,
    SessionSnapshot,
    SessionSpec,
    SqliteSessionStore,
    TelemetryFrame,
    canonical_payload,
)
from repro.obs.runtime import ENV_DIR, ENV_ENABLE, reset_runtime
from repro.testing import ChaosInjector, FaultPlan, FaultSpec

pytestmark = [pytest.mark.fleet, pytest.mark.robustness]

THRESHOLDS = SafetyThresholds(
    motor_velocity=np.array([50.0, 50.0, 50.0]),
    motor_acceleration=np.array([50000.0, 50000.0, 50000.0]),
    joint_velocity=np.array([5.0, 5.0, 5.0]),
)


def spec(sid: str, **kwargs) -> SessionSpec:
    return SessionSpec(session_id=sid, thresholds=THRESHOLDS, **kwargs)


def nominal_frame(tick: int) -> TelemetryFrame:
    return TelemetryFrame(tick=tick, dac=(100, 100, 100), mpos=(0.0, 0.0, 0.0))


def payload(sid: str = "s", tick: int = 0) -> dict:
    return {"session_id": sid, "tick": tick, "data": [1.5, -2.25]}


def comma_payload(tick: int) -> dict:
    """A payload whose encoding has a ``,`` where ``corrupt_latest`` flips."""
    for count in range(16):
        candidate = {**payload(tick=tick), "zeros": [0] * count}
        encoded = canonical_payload(candidate)
        if encoded[len(encoded) // 2] == ",":
            return candidate
    raise AssertionError("no padding puts a comma in the middle")


def tear_sqlite_rows(store: SqliteSessionStore, versions) -> None:
    """Truncate stored payloads to half their length (a torn write)."""
    with closing(sqlite3.connect(store.path)) as conn, conn:
        conn.executemany(
            "UPDATE snapshots SET payload = substr(payload, 1, length(payload) / 2)"
            " WHERE version = ?",
            [(v,) for v in versions],
        )


class TearingStore(InMemorySessionStore):
    """``corrupt_latest`` truncates the newest row instead of flipping a byte."""

    def corrupt_latest(self, session_id: str) -> bool:
        rows = self._rows.get(session_id)
        if not rows:
            return False
        encoded, checksum = rows[max(rows)]
        rows[max(rows)] = (encoded[: len(encoded) // 2], checksum)
        return True


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemorySessionStore()
    return SqliteSessionStore(tmp_path / "fleet.sqlite")


class TestSessionStore:
    def test_round_trip_preserves_payload_exactly(self, store):
        snap = SessionSnapshot.create("s", 1, payload())
        store.save(snap)
        loaded = store.load("s")
        assert loaded.payload == snap.payload
        assert loaded.version == 1
        assert loaded.checksum == snap.checksum

    def test_load_returns_newest_version(self, store):
        store.save(SessionSnapshot.create("s", 1, payload(tick=1)))
        store.save(SessionSnapshot.create("s", 2, payload(tick=2)))
        assert store.load("s").payload["tick"] == 2

    def test_duplicate_version_rejected(self, store):
        store.save(SessionSnapshot.create("s", 1, payload()))
        with pytest.raises(SessionStoreError, match="already has"):
            store.save(SessionSnapshot.create("s", 1, payload()))

    def test_unknown_session_loads_none(self, store):
        assert store.load("ghost") is None

    def test_corruption_falls_back_to_previous_version(self, store):
        store.save(SessionSnapshot.create("s", 1, payload(tick=1)))
        store.save(SessionSnapshot.create("s", 2, payload(tick=2)))
        assert store.corrupt_latest("s")
        loaded = store.load("s")
        assert loaded.version == 1
        assert loaded.payload["tick"] == 1

    def test_all_versions_corrupt_is_an_integrity_error(self, store):
        store.save(SessionSnapshot.create("s", 1, payload()))
        assert store.corrupt_latest("s")
        with pytest.raises(SnapshotIntegrityError, match="all 1 stored"):
            store.load("s")

    def test_truncated_newest_sqlite_row_falls_back(self, tmp_path):
        """A torn row fails its checksum before anything parses it."""
        store = SqliteSessionStore(tmp_path / "fleet.sqlite")
        store.save(SessionSnapshot.create("s", 1, payload(tick=1)))
        store.save(SessionSnapshot.create("s", 2, payload(tick=2)))
        tear_sqlite_rows(store, [2])
        loaded = store.load("s")
        assert (loaded.version, loaded.payload["tick"]) == (1, 1)

    def test_flipped_comma_falls_back(self):
        store = InMemorySessionStore()
        store.save(SessionSnapshot.create("s", 1, payload(tick=1)))
        store.save(SessionSnapshot.create("s", 2, comma_payload(tick=2)))
        assert store.corrupt_latest("s")
        loaded = store.load("s")
        assert (loaded.version, loaded.payload["tick"]) == (1, 1)

    def test_all_rows_torn_is_an_integrity_error(self, tmp_path):
        store = SqliteSessionStore(tmp_path / "fleet.sqlite")
        store.save(SessionSnapshot.create("s", 1, payload(tick=1)))
        store.save(SessionSnapshot.create("s", 2, payload(tick=2)))
        tear_sqlite_rows(store, [1, 2])
        with pytest.raises(SnapshotIntegrityError, match="all 2 stored"):
            store.load("s")

    def test_snapshot_from_text_matches_snapshot_from_payload(self):
        from_dict = SessionSnapshot.create("s", 1, payload())
        from_text = SessionSnapshot.create("s", 1, encoded=from_dict.encoded)
        assert from_text == from_dict
        assert from_text.checksum == from_dict.checksum
        assert from_text.payload == from_dict.payload
        with pytest.raises(TypeError, match="exactly one"):
            SessionSnapshot.create("s", 1, payload(), encoded=from_dict.encoded)
        with pytest.raises(TypeError, match="exactly one"):
            SessionSnapshot.create("s", 1)

    def test_sessions_and_delete(self, store):
        store.save(SessionSnapshot.create("a", 1, payload("a")))
        store.save(SessionSnapshot.create("b", 1, payload("b")))
        assert store.session_ids() == ["a", "b"]
        store.delete("a")
        assert store.session_ids() == ["b"]
        assert store.versions("a") == []

    def test_batch_round_trip(self, store):
        batch = [SessionSnapshot.create(sid, 1, payload(sid)) for sid in "abc"]
        store.save(batch)
        assert store.session_ids() == ["a", "b", "c"]
        for snap in batch:
            assert store.load(snap.session_id) == snap

    def test_batch_with_a_stored_version_writes_none(self, store):
        store.save(SessionSnapshot.create("b", 1, payload("b", tick=1)))
        batch = [
            SessionSnapshot.create("a", 1, payload("a")),
            SessionSnapshot.create("b", 1, payload("b", tick=2)),
            SessionSnapshot.create("c", 1, payload("c")),
        ]
        with pytest.raises(SessionStoreError, match="already has"):
            store.save(batch)
        assert store.session_ids() == ["b"]
        assert store.load("b").payload["tick"] == 1

    def test_batch_repeating_a_version_writes_none(self, store):
        batch = [
            SessionSnapshot.create("a", 1, payload("a", tick=1)),
            SessionSnapshot.create("a", 1, payload("a", tick=2)),
        ]
        with pytest.raises(SessionStoreError, match="already has"):
            store.save(batch)
        assert store.session_ids() == []


class _FlakyStore(InMemorySessionStore):
    """Fails writes that touch a session in ``failing`` (transient error).

    ``failures`` caps how many writes fail (``None``: every one);
    ``attempts`` counts every ``save`` call.
    """

    def __init__(self, failing=(), failures=None) -> None:
        super().__init__()
        self.failing = set(failing)
        self.failures = failures
        self.attempts = 0

    def save(self, snapshots) -> None:
        self.attempts += 1
        batch = [snapshots] if isinstance(snapshots, SessionSnapshot) else snapshots
        if any(snap.session_id in self.failing for snap in batch) and (
            self.failures is None or self.failures > 0
        ):
            if self.failures is not None:
                self.failures -= 1
            raise OSError("disk hiccup")
        super().save(snapshots)


class _CountingStore(InMemorySessionStore):
    """Records the size of every ``save`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.batches = []

    def save(self, snapshots) -> None:
        self.batches.append(len(snapshots))
        super().save(snapshots)


class TestRetryingStore:
    def test_transient_failures_are_retried(self):
        flaky = _FlakyStore({"s"}, failures=2)
        retrying = RetryingSessionStore(flaky, retries=2, backoff_s=0.0)
        retrying.save(SessionSnapshot.create("s", 1, payload()))
        assert flaky.attempts == 3
        assert retrying.load("s").version == 1

    def test_exhausted_retries_surface_as_store_error(self):
        flaky = _FlakyStore({"s"})
        retrying = RetryingSessionStore(flaky, retries=2, backoff_s=0.0)
        with pytest.raises(SessionStoreError, match="after 3 attempt"):
            retrying.save(SessionSnapshot.create("s", 1, payload()))

    def test_integrity_errors_are_not_retried(self):
        backend = InMemorySessionStore()
        backend.save(SessionSnapshot.create("s", 1, payload()))
        backend.corrupt_latest("s")
        retrying = RetryingSessionStore(backend, retries=5, backoff_s=0.0)
        with pytest.raises(SnapshotIntegrityError):
            retrying.load("s")


class TestBackpressure:
    def test_full_queue_rejects_frames(self):
        fleet = FleetSupervisor(config=FleetConfig(queue_depth=2))
        fleet.register(spec("s"))
        assert fleet.ingest("s", nominal_frame(0))
        assert fleet.ingest("s", nominal_frame(1))
        assert not fleet.ingest("s", nominal_frame(2))
        assert fleet.sessions["s"].frames_rejected == 1
        # Draining makes room again.
        fleet.tick(0)
        assert fleet.ingest("s", nominal_frame(3))

    def test_quarantined_session_rejects_frames(self):
        fleet = FleetSupervisor(config=FleetConfig())
        fleet.register(spec("a"))
        fleet.register(spec("b"))
        fleet.quarantine("a", "test")
        assert not fleet.ingest("a", nominal_frame(0))
        assert fleet.ingest("b", nominal_frame(0))

    def test_unknown_session_raises(self):
        fleet = FleetSupervisor(config=FleetConfig())
        with pytest.raises(FleetError, match="unknown session"):
            fleet.ingest("ghost", nominal_frame(0))

    def test_registration_cap(self):
        fleet = FleetSupervisor(config=FleetConfig(max_sessions=1))
        fleet.register(spec("a"))
        with pytest.raises(FleetError, match="fleet is full"):
            fleet.register(spec("b"))


class TestStalenessWatchdog:
    def test_silent_session_walks_to_estop(self):
        cfg = FleetConfig(stale_after_ticks=5)
        fleet = FleetSupervisor(config=cfg)
        fleet.register(spec("s"))
        fleet.ingest("s", nominal_frame(0))
        fleet.tick(0)
        assert fleet.sessions["s"].health == "nominal"
        # Telemetry goes silent; the watchdog escalates past the timeout.
        for tick in range(1, 8):
            fleet.tick(tick)
        session = fleet.sessions["s"]
        assert session.health == "estopped"
        assert session.board.plc.estop_latched
        assert "stale" in session.board.plc.estop_reason

    def test_slow_consumer_defers_but_preserves_decisions(self):
        base = run_fleet_campaign(num_sessions=2, ticks=40, seed=7)
        plan = FaultPlan(
            specs=[FaultSpec(kind="slow_consumer", match="rig-001", index=10, hang_s=8)]
        )
        slow = run_fleet_campaign(
            num_sessions=2, ticks=40, seed=7, injector=ChaosInjector(plan)
        )
        # The stalled session drains late but in order: identical chain.
        assert slow.fingerprints == base.fingerprints


class TestQuarantineDifferential:
    def test_healthy_lanes_unaffected_by_quarantine(self):
        cfg = FleetConfig(checkpoint_every=8)
        base = run_fleet_campaign(num_sessions=3, ticks=30, seed=5, config=cfg)

        fleet = FleetSupervisor(config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))
        for tick in range(30):
            for i in range(3):
                sid = session_id(i)
                if not fleet.sessions[sid].quarantined:
                    fleet.ingest(sid, frame_for(5, i, tick))
            if tick == 12:
                fleet.quarantine(session_id(1), "operator pulled the plug")
            fleet.tick(tick)

        fps = fleet.fingerprints()
        # Differential proof: survivors' bytes as if the lane never left.
        assert fps[session_id(0)] == base.fingerprints[session_id(0)]
        assert fps[session_id(2)] == base.fingerprints[session_id(2)]
        quarantined = fleet.sessions[session_id(1)]
        assert quarantined.quarantined
        assert quarantined.health == "estopped"
        assert quarantined.board.plc.estop_latched

    def test_throwing_lane_is_quarantined_not_fatal(self):
        cfg = FleetConfig(checkpoint_every=8)
        base = run_fleet_campaign(num_sessions=3, ticks=30, seed=5, config=cfg)

        fleet = FleetSupervisor(config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))

        class _Bomb(Exception):
            pass

        def explode(estimate):
            raise _Bomb("detector hardware fault")

        reports = []
        for tick in range(30):
            for i in range(3):
                sid = session_id(i)
                if not fleet.sessions[sid].quarantined:
                    fleet.ingest(sid, frame_for(5, i, tick))
            if tick == 15:
                fleet.sessions[session_id(1)].supervisor.guard.detector.evaluate = (
                    explode
                )
            reports.append(fleet.tick(tick))

        bad = fleet.sessions[session_id(1)]
        assert bad.quarantined
        assert "_Bomb" in bad.quarantine_reason
        assert bad.health == "estopped"
        assert any(q for r in reports for q in r.quarantined)
        fps = fleet.fingerprints()
        assert fps[session_id(0)] == base.fingerprints[session_id(0)]
        assert fps[session_id(2)] == base.fingerprints[session_id(2)]

    def test_nonfinite_prediction_quarantines_its_lane_alone(self):
        """A finite but huge measurement makes one lane's prediction
        non-finite.  While that lane is not evaluated its rows raise
        nothing; once evaluated, it alone is quarantined, with the error
        its scalar estimator raises, and the other sessions decide as in
        a fleet that never had it."""
        cfg = FleetConfig(checkpoint_every=8)
        poisoned = session_id(1)
        huge = (1e150, 1e150, 1e150)
        poison = {
            0: TelemetryFrame(tick=0, dac=(100, 100, 100), pedal_down=False, mpos=huge),
            1: TelemetryFrame(tick=1, dac=(100, 100, 100), mpos=huge),
        }

        twin = spec(poisoned).build_supervisor(cfg)
        twin.attach(SessionBoard())
        with np.errstate(all="ignore"):
            assert twin.process(poison[0].to_packet(), poison[0].mpos_array())
            with pytest.raises(IntegrationError) as scalar:
                twin.process(poison[1].to_packet(), poison[1].mpos_array())

        def run(indices):
            fleet = FleetSupervisor(config=cfg)
            for i in indices:
                fleet.register(spec(session_id(i)))
            reports = []
            for tick in range(30):
                for i in indices:
                    sid = session_id(i)
                    if fleet.sessions[sid].quarantined:
                        continue
                    if sid == poisoned and tick in poison:
                        fleet.ingest(sid, poison[tick])
                    else:
                        fleet.ingest(sid, frame_for(5, i, tick))
                with np.errstate(all="ignore"):
                    reports.append(fleet.tick(tick))
            return fleet, reports

        fleet, reports = run([0, 1, 2])
        control, _ = run([0, 2])

        reason = f"evaluation raised IntegrationError: {scalar.value}"
        assert reports[0].quarantined == []
        assert reports[1].quarantined == [(poisoned, reason)]
        bad = fleet.sessions[poisoned]
        assert bad.quarantined and bad.quarantine_reason == reason
        fps = fleet.fingerprints()
        for i in (0, 2):
            sid = session_id(i)
            assert fps[sid] == control.fingerprints()[sid]
            assert fleet.sessions[sid].supervisor.stats.packets_evaluated > 0

    def test_quarantine_writes_flight_dump(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        reset_runtime()
        try:
            fleet = FleetSupervisor(config=FleetConfig())
            fleet.register(spec("dump-me"))
            fleet.ingest("dump-me", nominal_frame(0))
            fleet.tick(0)
            fleet.quarantine("dump-me", "forced for the dump test")
            dumps = list((tmp_path / "flight").glob("flight-fleet-dump-me-*.jsonl"))
            assert len(dumps) == 1
            text = dumps[0].read_text()
            assert "forced for the dump test" in text
        finally:
            reset_runtime()


class TestPackMatchesInline:
    """The fleet's deferred path decides exactly like inline guards.

    A packed guard hands each packet to the lane pack, which syncs or
    coasts, estimates in one batched call, and finishes the decision
    through ``_finish_evaluation``.  A twin built from the same spec
    processes the same frames one by one, inline.  Every verdict and
    the final guard state must be identical.
    """

    #: The recorded run's frames from just before Pedal Down (cycle 400)
    #: to its end, so the stream crosses pedal-up frames, the engage
    #: transient and the attack (active from cycle 501).
    FIRST_FRAME = 380
    TICKS = 320

    @staticmethod
    def attack_frames():
        from repro.sim.runner import run_scenario_b

        trace = run_scenario_b(
            seed=5, error_dac=20000, period_ms=64, duration_s=0.7,
            attack_delay_cycles=100, raven_safety_enabled=False,
        ).trace
        return frames_from_trace(trace)

    def test_pack_decisions_equal_inline_supervisors(self):
        cfg = FleetConfig(queue_depth=8, checkpoint_every=16)
        # The replayed stream hands the attacked DAC to the model too, so
        # a tighter envelope than THRESHOLDS keeps the detector firing.
        tight = SafetyThresholds(
            motor_velocity=np.array([4.5, 4.5, 2.4]),
            motor_acceleration=np.array([360.0, 360.0, 270.0]),
            joint_velocity=np.array([0.15, 0.15, 0.03]),
        )
        attack = self.attack_frames()
        specs = [
            SessionSpec(session_id="attack", thresholds=tight),
            SessionSpec(
                session_id="attack-debounced",
                thresholds=tight,
                strategy=MitigationStrategy.MONITOR,
                decision_window=(2, 3),
                parameter_error=1.05,
            ),
            spec("coasting"),
            spec(
                "strict",
                supervisor=SupervisorConfig(
                    max_coast_cycles=0, staleness_timeout_cycles=8
                ),
            ),
        ]
        start = self.FIRST_FRAME
        # ``coasting`` gets two frames a tick, so the pack also sees a
        # lane with more than one capture per round.
        feeds = {
            "attack": lambda t: [attack[start + t]],
            "attack-debounced": lambda t: [attack[start + t]],
            "coasting": lambda t: [frame_for(7, 0, 2 * t), frame_for(7, 0, 2 * t + 1)],
            "strict": lambda t: [frame_for(7, 1, t)],
        }

        fleet = FleetSupervisor(config=cfg)
        twins, boards = {}, {}
        for session_spec in specs:
            fleet.register(session_spec)
            sid = session_spec.session_id
            twins[sid] = session_spec.build_supervisor(cfg)
            boards[sid] = SessionBoard()
            twins[sid].attach(boards[sid])

        for tick in range(self.TICKS):
            expected = {}
            for sid, twin in twins.items():
                twin.tick_cycle(tick)
                rows = []
                for frame in feeds[sid](tick):
                    assert fleet.ingest(sid, frame)
                    stats = twin.stats
                    evaluated, alerts = stats.packets_evaluated, stats.alerts
                    allowed = twin.process(frame.to_packet(), frame.mpos_array())
                    rows.append(
                        (
                            allowed,
                            stats.packets_evaluated > evaluated,
                            stats.alerts > alerts,
                            HEALTH_VALUE[stats.health],
                        )
                    )
                expected[sid] = rows
            fleet.tick(tick)
            for sid, rows in expected.items():
                recent = list(fleet.sessions[sid].recent)[-len(rows):]
                # (allowed, evaluated, alert, health) of each record.
                assert [tuple(v[4:]) for v in recent] == rows, (sid, tick)

        fleet.checkpoint(list(twins), self.TICKS)  # writes every lane back
        for sid, twin in twins.items():
            session = fleet.sessions[sid]
            packed = session.supervisor
            assert packed.stats.summary() == twin.stats.summary(), sid
            assert packed.guard.estimator.snapshot() == twin.guard.estimator.snapshot()
            assert packed.snapshot() == twin.snapshot(), sid
            plc, twin_plc = session.board.plc, boards[sid].plc
            assert (plc.estop_latched, plc.estop_reason) == (
                twin_plc.estop_latched,
                twin_plc.estop_reason,
            ), sid

        # Not vacuous: the attack alerted, a lane coasted, one escalated.
        assert twins["attack"].stats.alerts > 0
        assert twins["attack-debounced"].stats.alerts > 0
        assert twins["coasting"].stats.coasted_cycles > 0
        assert twins["strict"].stats.health is GuardHealth.ESTOPPED


class TestCheckpointResume:
    def test_kill_and_resume_converges_to_baseline(self, store):
        cfg = FleetConfig(checkpoint_every=6)
        base = run_fleet_campaign(num_sessions=3, ticks=40, seed=2, config=cfg)
        plan = FaultPlan(
            specs=[FaultSpec(kind="session_kill", match="rig-001", index=17)]
        )
        chaos = run_fleet_campaign(
            num_sessions=3,
            ticks=40,
            seed=2,
            config=cfg,
            store=store,
            injector=ChaosInjector(plan),
        )
        assert chaos.kills and chaos.kills[0][0] == "rig-001"
        assert chaos.fingerprints == base.fingerprints

    def test_catch_up_ticks_count_their_checkpoints(self, store):
        """The ticks after the budget that let a killed session's cursor
        catch up are ticks like any other: their checkpoints are counted
        and ``on_tick`` sees them."""
        ticks = 40
        plan = FaultPlan(
            specs=[FaultSpec(kind="session_kill", match="rig-001", index=17)]
        )
        seen = []
        chaos = run_fleet_campaign(
            num_sessions=3,
            ticks=ticks,
            seed=2,
            config=FleetConfig(checkpoint_every=6),
            store=store,
            injector=ChaosInjector(plan),
            on_tick=lambda tick, report: seen.append(tick),
        )
        # Precondition: the catch-up ticks crossed a checkpoint boundary.
        assert chaos.ticks_run > ticks
        assert chaos.supervisor.sessions["rig-001"].last_checkpoint_tick >= ticks
        snapshots = sum(len(store.versions(sid)) for sid in store.session_ids())
        assert chaos.checkpoints == snapshots
        assert seen == list(range(chaos.ticks_run))

    def test_corrupt_checkpoint_resumes_from_older_version(self, store):
        cfg = FleetConfig(checkpoint_every=6)
        base = run_fleet_campaign(num_sessions=2, ticks=40, seed=2, config=cfg)
        plan = FaultPlan(
            specs=[
                FaultSpec(kind="store_corrupt", match="rig-000", index=15),
                FaultSpec(kind="session_kill", match="rig-000", index=20),
            ]
        )
        chaos = run_fleet_campaign(
            num_sessions=2,
            ticks=40,
            seed=2,
            config=cfg,
            store=store,
            injector=ChaosInjector(plan),
        )
        # Resumed from the pre-corruption version, replayed further back,
        # still converges to the uninterrupted bytes.
        assert chaos.kills
        assert chaos.fingerprints == base.fingerprints

    def test_kill_after_a_torn_checkpoint_resumes_from_older_version(self):
        """``store_corrupt`` tears the newest row (the tick-18 checkpoint)
        instead of flipping one byte: the kill still resumes, from the
        tick-12 checkpoint before it."""
        cfg = FleetConfig(checkpoint_every=6)
        base = run_fleet_campaign(num_sessions=2, ticks=40, seed=2, config=cfg)
        plan = FaultPlan(
            specs=[
                FaultSpec(kind="store_corrupt", match="rig-000", index=19),
                FaultSpec(kind="session_kill", match="rig-000", index=20),
            ]
        )
        chaos = run_fleet_campaign(
            num_sessions=2,
            ticks=40,
            seed=2,
            config=cfg,
            store=TearingStore(),
            injector=ChaosInjector(plan),
        )
        assert chaos.kills == [("rig-000", 13)]
        assert chaos.fingerprints == base.fingerprints

    def test_resume_after_a_fallback_numbers_past_the_torn_row(self, tmp_path):
        store = SqliteSessionStore(tmp_path / "fleet.sqlite")
        cfg = FleetConfig(checkpoint_every=1000)
        fleet = FleetSupervisor(store=store, config=cfg)
        fleet.register(spec("s"))
        for tick in range(2):
            fleet.ingest("s", nominal_frame(tick))
            fleet.tick(tick)
        fleet.checkpoint("s", 1)
        tear_sqlite_rows(store, [2])

        resumed = FleetSupervisor(store=store, config=cfg)
        session = resumed.resume(spec("s"))
        assert (session.last_checkpoint_tick, session.checkpoint_version) == (0, 2)
        assert resumed.checkpoint("s", 1).version == 3

    def test_kill_without_any_checkpoint_quarantines(self):
        # checkpoint_every larger than the kill tick: nothing stored yet.
        cfg = FleetConfig(checkpoint_every=500)
        fleet = FleetSupervisor(config=cfg)
        fleet.register(spec("s"))

        # Defeat the tick-0 checkpoint by corrupting the store's only
        # snapshot, then kill: resume must fail onto the tombstone path.
        fleet.ingest("s", nominal_frame(0))
        fleet.tick(0)
        fleet.store.delete("s")
        plan = FaultPlan(specs=[FaultSpec(kind="session_kill", match="s")])
        fleet.injector = ChaosInjector(plan)
        report = fleet.tick(1)
        assert report.quarantined
        session = fleet.sessions["s"]
        assert session.quarantined
        assert "not resumable" in session.quarantine_reason
        assert session.health == "estopped"

    def test_resume_without_checkpoint_raises(self):
        fleet = FleetSupervisor(config=FleetConfig())
        with pytest.raises(FleetError, match="no stored checkpoint"):
            fleet.resume(spec("ghost"))

    def test_explicit_checkpoint_round_trip(self, store):
        cfg = FleetConfig(checkpoint_every=1000)
        fleet = FleetSupervisor(store=store, config=cfg)
        fleet.register(spec("s"))
        for tick in range(10):
            fleet.ingest("s", frame_for(0, 0, tick))
            fleet.tick(tick)
        snap = fleet.checkpoint("s", 9)
        digest = fleet.sessions["s"].digest

        other = FleetSupervisor(store=store, config=cfg)
        resumed = other.resume(spec("s"))
        assert resumed.digest == digest
        assert resumed.frames_processed == 10
        assert resumed.checkpoint_version == snap.version
        assert resumed.last_checkpoint_tick == 9

    def test_resume_preserves_ingest_counter(self, store):
        cfg = FleetConfig(checkpoint_every=1000)
        fleet = FleetSupervisor(store=store, config=cfg)
        fleet.register(spec("s"))
        for tick in range(5):
            fleet.ingest("s", frame_for(0, 0, tick))
            fleet.tick(tick)
        assert fleet.sessions["s"].frames_ingested == 5
        fleet.checkpoint("s", 4)

        other = FleetSupervisor(store=store, config=cfg)
        resumed = other.resume(spec("s"))
        assert resumed.frames_ingested == 5
        assert resumed.frames_processed == 5

    def test_v1_payload_restores_with_reconstructed_counter(self):
        """Pre-``frames_ingested`` checkpoints (schema v1) still resume:
        the counter is reconstructed as ``frames_processed`` because a
        resume starts from an empty queue."""
        cfg = FleetConfig()
        fleet = FleetSupervisor(config=cfg)
        session = fleet.register(spec("s"))
        for tick in range(3):
            fleet.ingest("s", nominal_frame(tick))
            fleet.tick(tick)
        v1 = session.snapshot_payload(2)
        del v1["frames_ingested"]
        v1["version"] = 1

        fresh = FleetSession(spec("s"), cfg)
        fresh.quarantined = True
        fresh.quarantine_reason = "stale"
        fresh.restore_payload(v1)
        assert fresh.frames_ingested == 3
        assert fresh.frames_processed == 3
        assert fresh.digest == session.digest
        # Transient per-run state restarts clean on restore.
        assert not fresh.quarantined
        assert fresh.quarantine_reason is None
        assert fresh.last_frame is None

    def test_unknown_snapshot_version_is_rejected(self):
        cfg = FleetConfig()
        session = FleetSession(spec("s"), cfg)
        bad = session.snapshot_payload(0)
        bad["version"] = 99
        with pytest.raises(ValueError, match="snapshot version"):
            session.restore_payload(bad)

    def test_resume_into_a_frame_without_measurement(self, store):
        """A resumed session keeps its restored estimator: resumed right
        before a frame that carries no measurement, it must still
        evaluate that frame exactly like the uninterrupted run."""
        cfg = FleetConfig(checkpoint_every=16)
        # Ticks 0..32 checkpoint at 32; frame 33 is a dropout.
        assert 33 % DROPOUT_EVERY == DROPOUT_EVERY - 1
        base = run_fleet_campaign(num_sessions=1, ticks=48, seed=3, config=cfg)
        run_fleet_campaign(num_sessions=1, ticks=33, seed=3, config=cfg, store=store)
        resumed = run_fleet_campaign(
            num_sessions=1, ticks=48, seed=3, config=cfg, store=store, resume=True
        )
        session = resumed.supervisor.sessions[session_id(0)]
        assert session.last_checkpoint_tick == 32
        assert resumed.fingerprints == base.fingerprints

    def test_failed_restore_registers_a_quarantined_session(self):
        store = InMemorySessionStore()
        bad = FleetSession(spec("bad"), FleetConfig()).snapshot_payload(0)
        bad["version"] = 99
        store.save(SessionSnapshot.create("bad", 1, bad))
        fleet = FleetSupervisor(store=store, config=FleetConfig())
        fleet.register(spec("ok"))
        with pytest.raises(ValueError, match="snapshot version"):
            fleet.resume(spec("bad"))
        session = fleet.sessions["bad"]
        assert session.quarantined
        assert session.quarantine_reason == "restore failed"
        assert session.health == "estopped"
        assert [s.session_id for s in fleet.active] == ["ok"]
        # The live session's lane still runs.
        fleet.ingest("ok", nominal_frame(0))
        assert fleet.tick(0).frames_processed == 1
        with pytest.raises(FleetError, match="already registered"):
            fleet.resume(spec("bad"))

    def test_resume_into_a_full_fleet_raises(self, store):
        store.save(SessionSnapshot.create("s", 1, payload()))
        fleet = FleetSupervisor(store=store, config=FleetConfig(max_sessions=1))
        fleet.register(spec("a"))
        with pytest.raises(FleetError, match="fleet is full"):
            fleet.resume(spec("s"))
        assert list(fleet.sessions) == ["a"]


class TestBatchedCheckpoint:
    def _drive(self, fleet, sessions, ticks):
        reports = []
        for tick in ticks:
            for i in range(sessions):
                sid = session_id(i)
                if not fleet.sessions[sid].quarantined:
                    fleet.ingest(sid, frame_for(1, i, tick))
            reports.append(fleet.tick(tick))
        return reports

    def test_one_store_write_per_checkpoint_tick(self):
        counting = _CountingStore()
        fleet = FleetSupervisor(store=counting, config=FleetConfig(checkpoint_every=4))
        for i in range(64):
            fleet.register(spec(session_id(i)))
        reports = self._drive(fleet, 64, range(9))
        assert counting.batches == [64, 64, 64]
        assert [len(r.checkpointed) for r in reports] == [64, 0, 0, 0, 64, 0, 0, 0, 64]
        assert all(s.checkpoint_version == 3 for s in fleet.sessions.values())

    def test_failing_session_is_quarantined_alone(self):
        backend = _FlakyStore()
        cfg = FleetConfig(checkpoint_every=4, store_retries=0, store_backoff_s=0.0)
        fleet = FleetSupervisor(store=backend, config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))
        self._drive(fleet, 3, range(4))
        assert {sid: s.checkpoint_version for sid, s in fleet.sessions.items()} == {
            session_id(i): 1 for i in range(3)
        }

        backend.failing = {session_id(1)}
        (report,) = self._drive(fleet, 3, [4])
        assert report.checkpointed == [session_id(0), session_id(2)]
        [(sid, reason)] = report.quarantined
        assert sid == session_id(1)
        assert reason.startswith("checkpoint failed: ")
        bad = fleet.sessions[session_id(1)]
        assert bad.quarantined and bad.quarantine_reason == reason
        # The failed write advanced nothing; the others are persisted.
        assert (bad.checkpoint_version, bad.last_checkpoint_tick) == (1, 0)
        assert backend.versions(session_id(1)) == [1]
        for sid in (session_id(0), session_id(2)):
            assert fleet.sessions[sid].checkpoint_version == 2
            assert fleet.sessions[sid].last_checkpoint_tick == 4
            assert backend.load(sid).payload["tick"] == 4

    def test_checkpoint_never_builds_the_payload(self, store, monkeypatch):
        """Checkpoints store :meth:`FleetSession.checkpoint_text`; the
        payload dict (the specification) is never built on that path."""
        fleet = FleetSupervisor(store=store, config=FleetConfig(checkpoint_every=4))
        for i in range(3):
            fleet.register(spec(session_id(i)))

        def refuse(self, tick):
            raise AssertionError("checkpoint built the payload dict")

        monkeypatch.setattr(FleetSession, "snapshot_payload", refuse)
        reports = self._drive(fleet, 3, range(9))
        assert [len(r.checkpointed) for r in reports] == [3, 0, 0, 0, 3, 0, 0, 0, 3]
        fleet.checkpoint(session_id(0), 9)
        assert fleet.drain(9) == [session_id(i) for i in range(3)]
        monkeypatch.undo()
        for sid, session in fleet.sessions.items():
            stored = store.load(sid)
            assert stored.encoded == canonical_payload(session.snapshot_payload(9))

    def test_explicit_batch_checkpoint_returns_snapshots(self, store):
        fleet = FleetSupervisor(store=store, config=FleetConfig(checkpoint_every=1000))
        for sid in ("a", "b"):
            fleet.register(spec(sid))
        snaps = fleet.checkpoint(["a", "b"], 7)
        assert [(s.session_id, s.version) for s in snaps] == [("a", 1), ("b", 1)]
        assert store.load("b") == snaps[1]
        assert fleet.sessions["a"].last_checkpoint_tick == 7


class TestCheckpointBytes:
    """The stored checkpoint bytes themselves, pinned.

    Fingerprints and chains do not cover everything a checkpoint stores
    (the transition log, alert margins, estimator and debouncer state), so
    a change to the stored payload would pass the goldens unnoticed.
    """

    #: sha256 of ``canonical_payload`` for rig-001's checkpoint below.
    PINNED = "1ce69a1f6533de60bed1292f4ce31f7a00c62484a2b205a140c22fadbd83409c"

    def test_checkpoint_payload_bytes_are_pinned(self):
        thresholds = SafetyThresholds(
            motor_velocity=np.array([50.0, 50.0, 50.0]),
            motor_acceleration=np.array([2000.0, 2000.0, 2000.0]),
            joint_velocity=np.array([5.0, 5.0, 5.0]),
        )
        fleet = FleetSupervisor(config=FleetConfig())
        specs = [
            SessionSpec(
                session_id=session_id(i),
                thresholds=thresholds,
                fusion=FusionRule.ANY,
                decision_window=(1, 2),
            )
            for i in range(3)
        ]
        for s in specs:
            fleet.register(s)
        for tick in range(300):
            for i, s in enumerate(specs):
                frame = frame_for(0, i, tick)
                if i == 1 and 200 <= tick < 203:  # a DAC spike: alerts, blocked
                    frame = TelemetryFrame(tick, (32000, -32000, 32000), mpos=frame.mpos)
                if i == 1 and tick == 120:  # an implausible encoder jump
                    frame = TelemetryFrame(tick, frame.dac, mpos=(1.0, 1.0, 1.0))
                fleet.ingest(s.session_id, frame)
            fleet.tick(tick)
        payload = fleet.checkpoint(session_id(1), 300).payload
        stats = payload["supervisor"]["guard"]["stats"]
        # Each dropout (every DROPOUT_EVERY-th frame) and the jump log two.
        assert len(stats["health_transitions"]) == 36
        assert stats["alerts"] == 4 and stats["implausible_measurements"] == 1
        encoded = canonical_payload(payload).encode("utf-8")
        assert hashlib.sha256(encoded).hexdigest() == self.PINNED


def run_ticks(fleet, ticks, sid=session_id(0)):
    for tick in ticks:
        fleet.ingest(sid, frame_for(0, 0, tick))
        fleet.tick(tick)


class TestCheckpointBytesPastCap:
    """A session whose transition log overflowed the cap, pinned.

    Two transitions per dropout fill the 64-entry log by tick ~550, so
    every later checkpoint carries a full log and ``transitions_dropped``.
    """

    #: sha256 of ``canonical_payload`` for the tick-3000 checkpoint below.
    PINNED = "b69d7ad607c4db22c3a1923c3d28ed1cade03ffb372c1bd3e6de26812403c0ff"

    def test_payload_bytes_are_pinned_and_do_not_grow_with_age(self):
        sid = session_id(0)
        fleet = FleetSupervisor(config=FleetConfig(checkpoint_every=10**6))
        fleet.register(spec(sid))
        run_ticks(fleet, range(1001))
        young = canonical_payload(fleet.checkpoint(sid, 1000).payload)
        run_ticks(fleet, range(1001, 3001))
        payload = fleet.checkpoint(sid, 3000).payload
        old = canonical_payload(payload)

        stats = payload["supervisor"]["guard"]["stats"]
        assert len(stats["health_transitions"]) == MAX_HEALTH_TRANSITIONS
        assert stats["transitions_dropped"] == 288
        # Age-bound: only digits grow.  Each logged cycle and each counter
        # may gain one; 2000 more ticks of an uncapped log add ~4 KB.
        assert abs(len(old) - len(young)) <= MAX_HEALTH_TRANSITIONS + 16
        assert hashlib.sha256(old.encode("utf-8")).hexdigest() == self.PINNED

    def test_resume_from_an_uncapped_log(self, monkeypatch):
        """A checkpoint written before the cap (the whole log, no
        ``transitions_dropped``) resumes into the capped session: from
        then on it checkpoints the same bytes as a session that ran
        capped all along, with the same fingerprint."""
        sid = session_id(0)
        cfg = FleetConfig(checkpoint_every=10**6)
        store = InMemorySessionStore()
        monkeypatch.setattr(pipeline, "MAX_HEALTH_TRANSITIONS", 10**9)
        uncapped = FleetSupervisor(store=store, config=cfg)
        uncapped.register(spec(sid))
        log = uncapped.sessions[sid].supervisor.stats.health_transitions
        tick = -1
        while len(log) < 200:
            tick += 1
            run_ticks(uncapped, [tick])
        stats = uncapped.checkpoint(sid, tick).payload["supervisor"]["guard"]["stats"]
        assert len(stats["health_transitions"]) == 200
        assert "transitions_dropped" not in stats
        monkeypatch.undo()

        resumed = FleetSupervisor(store=store, config=cfg)
        restored = resumed.resume(spec(sid)).supervisor.stats
        assert len(restored.health_transitions) == MAX_HEALTH_TRANSITIONS
        assert restored.transitions_dropped == 200 - MAX_HEALTH_TRANSITIONS
        live = FleetSupervisor(config=cfg)
        live.register(spec(sid))
        end = tick + 100
        run_ticks(live, range(end + 1))
        run_ticks(resumed, range(tick + 1, end + 1))

        assert canonical_payload(resumed.checkpoint(sid, end).payload) == (
            canonical_payload(live.checkpoint(sid, end).payload)
        )
        assert resumed.fingerprints() == live.fingerprints()


class TestNoReferenceCycles:
    def test_dropped_fleet_is_freed_by_reference_counting(self):
        """Neither board <-> guard nor pack <-> guard forms a cycle, so a
        dropped (or resumed-over) fleet frees its sessions' guard state at
        once instead of waiting for the cyclic collector."""
        store = InMemorySessionStore()
        fleet = FleetSupervisor(store=store, config=FleetConfig(checkpoint_every=4))
        for i in range(3):
            fleet.register(spec(session_id(i)))
        for tick in range(10):
            for i in range(3):
                fleet.ingest(session_id(i), frame_for(0, i, tick))
            fleet.tick(tick)
        resumed = FleetSupervisor(store=store, config=FleetConfig())
        for i in range(3):
            resumed.resume(spec(session_id(i)))
        watched = self._watch(fleet) + self._watch(resumed)
        gc.disable()
        try:
            del fleet, resumed
            assert [ref() for ref in watched] == [None] * len(watched)
        finally:
            gc.enable()

    @staticmethod
    def _watch(fleet):
        session = fleet.sessions[session_id(1)]
        guard = session.supervisor.guard
        owned = (fleet._pack, session.board, session.supervisor, guard, guard.stats)
        return [weakref.ref(obj) for obj in owned]


class TestDrain:
    def test_drain_checkpoints_every_live_session(self, store):
        # Cadence far beyond the run: nothing persists except tick 0.
        cfg = FleetConfig(checkpoint_every=1000)
        fleet = FleetSupervisor(store=store, config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))
        for tick in range(12):
            for i in range(3):
                fleet.ingest(session_id(i), frame_for(4, i, tick))
            fleet.tick(tick)
        digests = {sid: fleet.sessions[sid].digest for sid in fleet.sessions}

        drained = fleet.drain()
        assert drained == [session_id(i) for i in range(3)]

        # A fresh supervisor resumes every session from the drained state,
        # bit-identically — nothing past the last cadence point was lost.
        other = FleetSupervisor(store=store, config=cfg)
        for i in range(3):
            resumed = other.resume(spec(session_id(i)))
            assert resumed.digest == digests[session_id(i)]
            assert resumed.frames_processed == 12
            assert resumed.last_checkpoint_tick == 11

    def test_drain_skips_sessions_already_current(self, store):
        fleet = FleetSupervisor(store=store, config=FleetConfig(checkpoint_every=1000))
        fleet.register(spec("s"))
        for tick in range(5):
            fleet.ingest("s", nominal_frame(tick))
            fleet.tick(tick)
        fleet.checkpoint("s", 4)
        version = fleet.sessions["s"].checkpoint_version

        # Already checkpointed at the last completed tick: drain reports
        # it as drained but writes no redundant snapshot.
        assert fleet.drain() == ["s"]
        assert fleet.sessions["s"].checkpoint_version == version

    def test_drain_store_failure_quarantines_not_fatal(self):
        flaky = _FlakyStore()
        fleet = FleetSupervisor(
            store=flaky,
            config=FleetConfig(
                checkpoint_every=1000, store_retries=0, store_backoff_s=0.0
            ),
        )
        fleet.register(spec("a"))
        fleet.register(spec("b"))
        for tick in range(3):
            fleet.ingest("a", nominal_frame(tick))
            fleet.ingest("b", nominal_frame(tick))
            fleet.tick(tick)
        # Writes of session "a" blow up from here on; "b" must still flush.
        flaky.failing = {"a"}
        drained = fleet.drain()
        assert drained == ["b"]
        assert fleet.sessions["a"].quarantined
        assert "drain checkpoint failed" in fleet.sessions["a"].quarantine_reason

    def test_drain_excludes_quarantined_sessions(self, store):
        fleet = FleetSupervisor(store=store, config=FleetConfig())
        fleet.register(spec("a"))
        fleet.register(spec("b"))
        fleet.ingest("a", nominal_frame(0))
        fleet.ingest("b", nominal_frame(0))
        fleet.tick(0)
        fleet.quarantine("a", "pulled")
        assert fleet.drain() == ["b"]


class TestSimBridge:
    @pytest.mark.slow
    def test_recorded_trace_feeds_a_fleet_session(self):
        from repro.sim.runner import run_fault_free

        trace = run_fault_free(seed=3, duration_s=0.5)
        frames = frames_from_trace(trace)
        assert len(frames) == len(trace)
        fleet = FleetSupervisor(config=FleetConfig(queue_depth=8))
        fleet.register(spec("sim"))
        for tick, frame in enumerate(frames):
            assert fleet.ingest("sim", frame)
            fleet.tick(tick)
        session = fleet.sessions["sim"]
        assert session.frames_processed == len(frames)
        assert not session.quarantined
        assert session.health == "nominal"
