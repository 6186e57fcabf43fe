"""Tests for the degraded-mode detector runtime.

Covers the M-of-N alarm debouncer, the GuardSupervisor's plausibility
gate / coasting / staleness watchdog, the BLOCK->E-STOP escalation path,
and the GuardStats bookkeeping (alerts_dropped, health transitions).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.control.state_machine import RobotState
from repro.core.detector import AlarmDebouncer, AnomalyDetector
from repro.core.estimator import NextStateEstimator
from repro.core.mitigation import MitigationStrategy
from repro.core.pipeline import (
    MAX_HEALTH_TRANSITIONS,
    DetectorGuard,
    GuardHealth,
    GuardStats,
    GuardSupervisor,
    SupervisorConfig,
)
from repro.dynamics.plant import RavenPlant
from repro.hw.encoder import EncoderBank
from repro.hw.motor_controller import MotorController
from repro.hw.plc import Plc
from repro.hw.usb_board import UsbBoard
from repro.hw.usb_packet import encode_command_packet
from repro.kinematics.workspace import Workspace

pytestmark = pytest.mark.robustness

PD = RobotState.PEDAL_DOWN
UP = RobotState.PEDAL_UP


def make_board():
    plant = RavenPlant(initial_jpos=Workspace().neutral())
    plant.release_brakes()
    mc = MotorController(plant)
    plc = Plc(plant, mc)
    return UsbBoard(mc, plc, EncoderBank()), plant, mc, plc


def make_guard(thresholds, strategy=MitigationStrategy.MONITOR, **kwargs):
    return DetectorGuard(
        estimator=NextStateEstimator(),
        detector=AnomalyDetector(thresholds),
        strategy=strategy,
        **kwargs,
    )


def quiet_packet():
    return encode_command_packet(PD, True, [100, 0, 0])


def loud_packet():
    return encode_command_packet(PD, True, [20000, 0, 0])


class TestAlarmDebouncer:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlarmDebouncer(0, 3)
        with pytest.raises(ValueError):
            AlarmDebouncer(4, 3)
        with pytest.raises(ValueError):
            AlarmDebouncer(1, 0)

    def test_m_of_n_decision(self):
        deb = AlarmDebouncer(2, 3)
        assert not deb.update(True)  # 1 of [T]
        assert deb.update(True)  # 2 of [T, T]
        assert deb.update(False)  # 2 of [T, T, F]
        assert not deb.update(False)  # 1 of [T, F, F]

    def test_reset_forgets_window(self):
        deb = AlarmDebouncer(1, 2)
        deb.update(True)
        deb.reset()
        assert deb.window == ()
        assert not deb.update(False)

    def test_detector_decision_window_defers_alert(self, tight_thresholds):
        """With a 2-of-3 window, one alarming cycle is not yet an alert."""
        board, _plant, _mc, _plc = make_board()
        guard = DetectorGuard(
            estimator=NextStateEstimator(),
            detector=AnomalyDetector(tight_thresholds, decision_window=(2, 3)),
            strategy=MitigationStrategy.MONITOR,
        )
        guard.attach(board)
        board.fd_write(loud_packet())
        assert guard.stats.alerts == 0  # raw alarm, debounced away
        board.fd_write(loud_packet())
        assert guard.stats.alerts == 1  # second alarming cycle confirms
        result = guard.stats.alert_events[0].result
        assert result.raw_alert is True


class TestBlockEscalation:
    def test_block_escalates_to_estop_after_streak(self, tight_thresholds):
        """BLOCK mode: a persistent alarm streak latches the PLC E-STOP."""
        board, _plant, _mc, plc = make_board()
        guard = make_guard(
            tight_thresholds, MitigationStrategy.BLOCK, escalate_after_blocks=3
        )
        guard.attach(board)
        for i in range(3):
            assert not plc.estop_latched, f"escalated too early at block {i}"
            board.fd_write(loud_packet())
        assert plc.estop_latched
        assert "escalating" in plc.estop_reason
        assert guard.stats.blocked == 3

    def test_quiet_cycle_resets_block_streak(self):
        # Sized between a 100-count and a 20000-count command from rest, so
        # loud packets alarm and quiet ones do not.
        from repro.core.thresholds import SafetyThresholds

        mid_thresholds = SafetyThresholds(
            motor_velocity=np.array([1.0, 1.0, 1.0]),
            motor_acceleration=np.array([1000.0, 1000.0, 1000.0]),
            joint_velocity=np.array([0.05, 0.05, 0.05]),
        )
        board, _plant, _mc, plc = make_board()
        guard = make_guard(
            mid_thresholds, MitigationStrategy.BLOCK, escalate_after_blocks=2
        )
        guard.attach(board)
        board.fd_write(loud_packet())  # block 1
        board.fd_write(quiet_packet())  # quiet: streak resets
        board.fd_write(loud_packet())  # block 1 again
        assert guard.stats.blocked == 2
        assert not plc.estop_latched
        board.fd_write(loud_packet())  # block 2 consecutive
        assert plc.estop_latched


class TestGuardStats:
    def test_alerts_dropped_counted_past_cap(self, tight_thresholds):
        board, _plant, _mc, _plc = make_board()
        guard = make_guard(tight_thresholds)
        guard.max_recorded_alerts = 2
        guard.attach(board)
        for _ in range(5):
            board.fd_write(loud_packet())
        assert guard.stats.alerts == 5
        assert len(guard.stats.alert_events) == 2
        assert guard.stats.alerts_dropped == 3
        summary = guard.stats.summary()
        assert summary["alerts_dropped"] == 3
        assert summary["alerts_recorded"] == 2

    def test_reset_clears_detector_counters(self, tight_thresholds):
        """The run-to-run state leak: reset() must also clear the
        AnomalyDetector's own evaluation/alert counters."""
        board, _plant, _mc, _plc = make_board()
        guard = make_guard(tight_thresholds)
        guard.attach(board)
        board.fd_write(loud_packet())
        assert guard.detector.evaluations == 1
        assert guard.detector.alerts == 1
        guard.reset()
        assert guard.detector.evaluations == 0
        assert guard.detector.alerts == 0
        assert guard.stats.alerts == 0

    def test_record_health_logs_transitions_once(self):
        stats = DetectorGuard(
            estimator=NextStateEstimator(), detector=AnomalyDetector()
        ).stats
        stats.record_health(5, GuardHealth.COASTING)
        stats.record_health(6, GuardHealth.COASTING)  # no-op
        stats.record_health(9, GuardHealth.NOMINAL)
        assert stats.health_transitions == [
            (5, GuardHealth.COASTING),
            (9, GuardHealth.NOMINAL),
        ]


def uncapped_log(calls):
    """The transition log ``record_health`` would keep without a cap."""
    log, health = [], GuardHealth.NOMINAL
    for cycle, new in calls:
        if new is not health:
            health = new
            log.append((cycle, new))
    return log


#: 200 transitions: NOMINAL -> COASTING -> NOMINAL -> ... (one per cycle).
ALTERNATING = [
    (cycle, GuardHealth.COASTING if cycle % 2 == 0 else GuardHealth.NOMINAL)
    for cycle in range(200)
]


class TestTransitionLogCap:
    """``record_health`` keeps the newest ``MAX_HEALTH_TRANSITIONS``
    transitions and counts the rest; the uncapped log is the spec."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**9), st.sampled_from(list(GuardHealth))),
            max_size=400,
        )
    )
    @example(ALTERNATING)
    @example(ALTERNATING[:MAX_HEALTH_TRANSITIONS])
    @example(ALTERNATING[: MAX_HEALTH_TRANSITIONS + 1])
    def test_log_is_the_uncapped_logs_tail(self, calls):
        stats = GuardStats()
        for cycle, health in calls:
            stats.record_health(cycle, health)
        spec = uncapped_log(calls)
        dropped = max(0, len(spec) - MAX_HEALTH_TRANSITIONS)
        assert stats.health_transitions == spec[-MAX_HEALTH_TRANSITIONS:]
        assert stats.transitions_dropped == dropped

        snapshot = stats.snapshot()
        if dropped:
            assert snapshot["transitions_dropped"] == dropped
        else:
            # Nothing dropped: exactly the keys a pre-cap snapshot had.
            assert "transitions_dropped" not in snapshot
            assert set(snapshot) == set(GuardStats().snapshot())
        restored = GuardStats.from_snapshot(snapshot)
        assert restored == stats
        assert restored.snapshot() == snapshot
        assert restored.summary() == stats.summary()

    def test_from_uncapped_snapshot_keeps_the_newest(self):
        """A snapshot written before the cap holds the whole log; restored,
        it equals the stats that recorded the same transitions capped."""
        uncapped = GuardStats(health=GuardHealth.NOMINAL)
        uncapped.health_transitions = uncapped_log(ALTERNATING)
        payload = uncapped.snapshot()
        assert len(payload["health_transitions"]) == 200
        assert "transitions_dropped" not in payload

        capped = GuardStats()
        for cycle, health in ALTERNATING:
            capped.record_health(cycle, health)
        restored = GuardStats.from_snapshot(payload)
        assert restored == capped
        assert restored.transitions_dropped == 200 - MAX_HEALTH_TRANSITIONS
        newest = uncapped.health_transitions[-MAX_HEALTH_TRANSITIONS:]
        assert restored.health_transitions == newest
        assert restored.snapshot() == capped.snapshot()


class GlitchableBank:
    """Test helper: flips encoder counts far out of range on demand."""

    def __init__(self, board):
        self.board = board
        self.glitching = False
        board.encoders.count_fault = self._fault

    def _fault(self, counts):
        if self.glitching:
            return counts + 1_000_000
        return counts


def make_supervised(thresholds, config=None):
    board, plant, mc, plc = make_board()
    guard = make_guard(thresholds)
    supervisor = GuardSupervisor(guard, config or SupervisorConfig())
    supervisor.attach(board)
    return board, supervisor, plc


class TestGuardSupervisor:
    def test_attach_installs_supervisor_as_board_guard(self, loose_thresholds):
        board, supervisor, _plc = make_supervised(loose_thresholds)
        assert board.guard is supervisor

    def test_trusted_measurements_stay_nominal(self, loose_thresholds):
        board, supervisor, _plc = make_supervised(loose_thresholds)
        for _ in range(5):
            board.fd_write(quiet_packet())
        assert supervisor.health is GuardHealth.NOMINAL
        assert supervisor.stats.coasted_cycles == 0
        assert supervisor.stats.packets_evaluated == 5

    def test_implausible_measurement_coasts(self, loose_thresholds):
        board, supervisor, _plc = make_supervised(loose_thresholds)
        glitch = GlitchableBank(board)
        board.fd_write(quiet_packet())  # trusted baseline
        glitch.glitching = True
        board.fd_write(quiet_packet())
        assert supervisor.health is GuardHealth.COASTING
        assert supervisor.stats.implausible_measurements == 1
        assert supervisor.stats.coasted_cycles == 1
        # Detection continues while coasting (estimator already synced).
        assert supervisor.stats.packets_evaluated == 2

    def test_recovery_returns_to_nominal(self, loose_thresholds):
        board, supervisor, _plc = make_supervised(loose_thresholds)
        glitch = GlitchableBank(board)
        board.fd_write(quiet_packet())
        glitch.glitching = True
        board.fd_write(quiet_packet())
        glitch.glitching = False
        board.fd_write(quiet_packet())
        assert supervisor.health is GuardHealth.NOMINAL
        transitions = [h for _, h in supervisor.stats.health_transitions]
        assert transitions == [GuardHealth.COASTING, GuardHealth.NOMINAL]

    def test_coast_cap_escalates_to_estop(self, loose_thresholds):
        config = SupervisorConfig(max_coast_cycles=3)
        board, supervisor, plc = make_supervised(loose_thresholds, config)
        glitch = GlitchableBank(board)
        board.fd_write(quiet_packet())
        glitch.glitching = True
        for _ in range(4):
            board.fd_write(quiet_packet())
        assert supervisor.health is GuardHealth.ESTOPPED
        assert plc.estop_latched
        assert supervisor.stats.stale_escalations == 1

    def test_estop_on_stale_disabled_only_records(self, loose_thresholds):
        config = SupervisorConfig(max_coast_cycles=2, estop_on_stale=False)
        board, supervisor, plc = make_supervised(loose_thresholds, config)
        glitch = GlitchableBank(board)
        board.fd_write(quiet_packet())
        glitch.glitching = True
        for _ in range(3):
            board.fd_write(quiet_packet())
        assert supervisor.health is GuardHealth.STALE
        assert not plc.estop_latched
        assert supervisor.stats.stale_escalations == 1

    def test_estopped_supervisor_blocks_packets(self, loose_thresholds):
        config = SupervisorConfig(max_coast_cycles=1)
        board, supervisor, _plc = make_supervised(loose_thresholds, config)
        glitch = GlitchableBank(board)
        board.fd_write(quiet_packet())
        glitch.glitching = True
        board.fd_write(quiet_packet())
        board.fd_write(quiet_packet())  # escalation fires here
        assert supervisor.health is GuardHealth.ESTOPPED
        blocked_before = board.packets_blocked
        board.fd_write(quiet_packet())
        assert board.packets_blocked == blocked_before + 1

    def test_staleness_watchdog_escalates(self, loose_thresholds):
        config = SupervisorConfig(staleness_timeout_cycles=10)
        board, supervisor, plc = make_supervised(loose_thresholds, config)
        supervisor.tick_cycle(0)
        assert supervisor.health is GuardHealth.NOMINAL  # no packet yet
        board.fd_write(quiet_packet())
        supervisor.tick_cycle(5)
        assert supervisor.health is GuardHealth.NOMINAL
        supervisor.tick_cycle(16)  # 16 - 0 > 10: stream is dead
        assert supervisor.health is GuardHealth.ESTOPPED
        assert plc.estop_latched
        assert "stale" in plc.estop_reason

    def test_reset_clears_supervisor_state(self, loose_thresholds):
        config = SupervisorConfig(max_coast_cycles=1, estop_on_stale=False)
        board, supervisor, _plc = make_supervised(loose_thresholds, config)
        glitch = GlitchableBank(board)
        board.fd_write(quiet_packet())
        glitch.glitching = True
        board.fd_write(quiet_packet())
        board.fd_write(quiet_packet())
        assert supervisor.health is GuardHealth.STALE
        supervisor.reset()
        glitch.glitching = False
        assert supervisor.health is GuardHealth.NOMINAL
        board.fd_write(quiet_packet())
        assert supervisor.stats.packets_seen == 1

    def test_non_finite_measurement_rejected(self, loose_thresholds):
        board, supervisor, _plc = make_supervised(loose_thresholds)
        board.fd_write(quiet_packet())
        supervisor.guard.read_measurement = lambda: np.array(
            [np.nan, 0.0, 0.0]
        )
        board.fd_write(quiet_packet())
        assert supervisor.stats.implausible_measurements == 1

    def test_config_round_trips(self):
        config = SupervisorConfig(
            implausible_jump_rad=0.25,
            max_coast_cycles=8,
            staleness_timeout_cycles=32,
            estop_on_stale=False,
        )
        assert SupervisorConfig.from_dict(config.to_dict()) == config
