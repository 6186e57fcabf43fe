"""Batched detector kernels: per-lane equivalence with the scalar path.

The fleet supervisor packs every session's estimator into one
:class:`BatchedNextStateEstimator`; the detector replay oracle
(:mod:`repro.experiments.batch`) also runs :class:`BatchedAnomalyDetector`.
Both promise that each lane behaves exactly like its own scalar object.
These tests pin the per-lane bookkeeping that promise rests on:

- the M-of-N decision window is per lane;
- removing a lane (fleet quarantine) leaves every survivor's counters,
  debouncer ring and estimator bytes untouched;
- ``lane_state`` / ``load_lane_state`` / ``reset`` round-trip with the
  scalar ``snapshot`` / ``restore`` / ``reset`` surface.

The end-to-end check, the fleet pack against inline guards fed the same
frames, is in ``tests/test_fleet.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AnomalyDetector,
    BatchedAnomalyDetector,
    BatchedNextStateEstimator,
    BatchedStateEstimate,
    FusionRule,
    NextStateEstimator,
    RavenDynamicModel,
    SafetyThresholds,
    StateEstimate,
)

pytestmark = pytest.mark.batch


def detection_thresholds() -> SafetyThresholds:
    """Thresholds that fault-free motion respects but the attacks exceed."""
    return SafetyThresholds(
        motor_velocity=np.array([3.0, 3.0, 8.0]),
        motor_acceleration=np.array([1500.0, 1500.0, 4000.0]),
        joint_velocity=np.array([0.25, 0.25, 0.08]),
    )


class TestPerLaneAlarmBookkeeping:
    def test_batched_debouncer_is_per_lane(self):
        """BatchedAnomalyDetector keeps one M-of-N window per lane."""
        thresholds = SafetyThresholds(
            motor_velocity=np.array([1.0, 1.0, 1.0]),
            motor_acceleration=np.array([10.0, 10.0, 10.0]),
            joint_velocity=np.array([1.0, 1.0, 1.0]),
        )

        def estimate(hot: bool) -> StateEstimate:
            scale = 50.0 if hot else 0.0
            return StateEstimate(
                motor_velocity=np.full(3, scale),
                motor_acceleration=np.full(3, 10 * scale),
                joint_velocity=np.full(3, scale),
                jpos_next=np.zeros(3),
                jvel_next=np.zeros(3),
                elapsed_s=0.0,
            )

        scalars = [
            AnomalyDetector(thresholds, FusionRule.ANY, decision_window=(2, 3))
            for _ in range(2)
        ]
        batched = BatchedAnomalyDetector.from_detectors(
            [
                AnomalyDetector(thresholds, FusionRule.ANY, decision_window=(2, 3))
                for _ in range(2)
            ]
        )
        # Lane 0 alarms every cycle; lane 1 only on the last — their
        # debounce windows must not bleed into each other.
        schedule = [(True, False), (True, False), (True, True)]
        for hot0, hot1 in schedule:
            r0 = scalars[0].evaluate(estimate(hot0))
            r1 = scalars[1].evaluate(estimate(hot1))
            scale = np.where(np.array([hot0, hot1]), 50.0, 0.0)
            be = BatchedStateEstimate(
                motor_velocity=np.tile(scale[:, None], 3),
                motor_acceleration=np.tile(10 * scale[:, None], 3),
                joint_velocity=np.tile(scale[:, None], 3),
                jpos_next=np.zeros((2, 3)),
                jvel_next=np.zeros((2, 3)),
                elapsed_s=0.0,
            )
            br = batched.evaluate(be, np.ones(2, dtype=bool))
            assert br.alert[0] == r0.alert
            assert br.alert[1] == r1.alert
        # Lane 0 passed 2-of-3 and alarmed; lane 1's single raw alarm
        # was debounced away.  Counters are per lane.
        assert batched.alerts[0] == scalars[0].alerts > 0
        assert batched.alerts[1] == scalars[1].alerts == 0
        assert list(batched.evaluations) == [3, 3]


class TestLaneRemoval:
    """Ejecting a lane must not shift the surviving lanes' state.

    The fleet supervisor quarantines faulted sessions by removing their
    lane from the batched pack mid-run; the regression pinned here is the
    bookkeeping one: after ``remove_lanes``, every surviving lane's
    GuardStats-feeding counters, debouncer ring slots and estimator state
    bytes must be exactly what a never-batched-with-the-ejected-lane run
    produces.
    """

    @staticmethod
    def hot_estimate(scales: np.ndarray) -> BatchedStateEstimate:
        """Per-lane estimates: scale 0 is quiet, large scales alarm."""
        scales = np.asarray(scales, dtype=float)
        return BatchedStateEstimate(
            motor_velocity=np.tile(scales[:, None], 3),
            motor_acceleration=np.tile(10 * scales[:, None], 3),
            joint_velocity=np.tile(scales[:, None], 3),
            jpos_next=np.zeros((len(scales), 3)),
            jvel_next=np.zeros((len(scales), 3)),
            elapsed_s=0.0,
        )

    def test_detector_removal_preserves_survivor_state(self):
        thresholds = SafetyThresholds(
            motor_velocity=np.array([1.0, 1.0, 1.0]),
            motor_acceleration=np.array([10.0, 10.0, 10.0]),
            joint_velocity=np.array([1.0, 1.0, 1.0]),
        )

        def build(num):
            return BatchedAnomalyDetector.from_detectors(
                [
                    AnomalyDetector(thresholds, FusionRule.ANY, decision_window=(2, 3))
                    for _ in range(num)
                ]
            )

        # Three lanes with distinct alarm phases, so any slot shift on
        # removal would change a survivor's 2-of-3 decision.
        full = build(3)
        schedule = [(50.0, 0.0, 50.0), (0.0, 50.0, 50.0), (50.0, 0.0, 0.0)]
        for scales in schedule:
            full.evaluate(self.hot_estimate(np.array(scales)))

        survivors = full.remove_lanes([1])
        assert survivors == [0, 2]
        assert full.num_lanes == 2

        # Control: lanes 0 and 2 alone, fed their own columns only.
        control = build(2)
        for scales in schedule:
            control.evaluate(self.hot_estimate(np.array([scales[0], scales[2]])))

        assert list(full.evaluations) == list(control.evaluations)
        assert list(full.alerts) == list(control.alerts)
        for lane in range(2):
            assert full.debouncer.lane_window(lane) == (
                control.debouncer.lane_window(lane)
            )
        # Future decisions stay aligned too (ring positions survived).
        tail = [(0.0, 50.0), (50.0, 50.0)]
        for scales in tail:
            r_full = full.evaluate(self.hot_estimate(np.array(scales)))
            r_ctrl = control.evaluate(self.hot_estimate(np.array(scales)))
            assert list(r_full.alert) == list(r_ctrl.alert)
        assert list(full.alerts) == list(control.alerts)

    def test_estimator_removal_preserves_survivor_bytes(self):
        def build(errors):
            return BatchedNextStateEstimator(
                [
                    RavenDynamicModel(integrator="euler", parameter_error=e)
                    for e in errors
                ]
            )

        full = build([1.0, 1.03, 1.05])
        mpos = np.array(
            [[0.001, 0.002, 0.003], [0.002, 0.001, 0.004], [0.003, 0.004, 0.001]]
        )
        dac = np.array([[150.0, -30.0, 12.0]] * 3)
        full.sync(mpos)
        full.sync(mpos + 0.0005)
        full.estimate(dac)
        full.coast(np.array([False, False, True]))  # stagger lane 2

        survivors = full.remove_lanes([0])
        assert survivors == [1, 2]

        control = build([1.03, 1.05])
        control.sync(mpos[1:])
        control.sync(mpos[1:] + 0.0005)
        control.estimate(dac[1:])
        control.coast(np.array([False, True]))

        assert full._jpos.tobytes() == control._jpos.tobytes()
        assert full._jvel.tobytes() == control._jvel.tobytes()
        assert list(full.coast_streak) == list(control.coast_streak)
        for lane in range(2):
            assert full.lane_state(lane) == control.lane_state(lane)
        # And the survivors keep producing identical estimates.
        nxt = np.array([[80.0, 40.0, -5.0]] * 2)
        mask = np.array([True, False])  # lane 1 kept coasting
        a = full.estimate(nxt, mask)
        b = control.estimate(nxt, mask)
        assert a.motor_velocity.tobytes() == b.motor_velocity.tobytes()
        assert a.jpos_next.tobytes() == b.jpos_next.tobytes()

    def test_removing_every_lane_is_rejected(self):
        thresholds = detection_thresholds()
        detector = BatchedAnomalyDetector([thresholds, thresholds])
        with pytest.raises(ValueError):
            detector.remove_lanes([0, 1])
        estimator = BatchedNextStateEstimator(
            [RavenDynamicModel(integrator="euler") for _ in range(2)]
        )
        with pytest.raises(ValueError):
            estimator.remove_lanes([0, 1])


class TestLaneCheckpointParity:
    """Batched ``lane_state``/``load_lane_state``/``reset`` round-trip
    with the scalar ``snapshot``/``restore``/``reset`` surface — the
    parity contract RPR007 pins statically, executed."""

    THRESHOLDS = SafetyThresholds(
        motor_velocity=np.array([1.0, 1.0, 1.0]),
        motor_acceleration=np.array([10.0, 10.0, 10.0]),
        joint_velocity=np.array([1.0, 1.0, 1.0]),
    )

    @staticmethod
    def scalar_estimate(scale: float) -> StateEstimate:
        return StateEstimate(
            motor_velocity=np.full(3, scale),
            motor_acceleration=np.full(3, 10 * scale),
            joint_velocity=np.full(3, scale),
            jpos_next=np.zeros(3),
            jvel_next=np.zeros(3),
            elapsed_s=0.0,
        )

    @staticmethod
    def batched_estimate(scales: np.ndarray) -> BatchedStateEstimate:
        scales = np.asarray(scales, dtype=float)
        return BatchedStateEstimate(
            motor_velocity=np.tile(scales[:, None], 3),
            motor_acceleration=np.tile(10 * scales[:, None], 3),
            joint_velocity=np.tile(scales[:, None], 3),
            jpos_next=np.zeros((len(scales), 3)),
            jvel_next=np.zeros((len(scales), 3)),
            elapsed_s=0.0,
        )

    def build_scalars(self, num: int):
        return [
            AnomalyDetector(self.THRESHOLDS, FusionRule.ANY, decision_window=(2, 3))
            for _ in range(num)
        ]

    def drive(self, scalars, batched, schedule):
        for scales in schedule:
            for lane, scalar in enumerate(scalars):
                scalar.evaluate(self.scalar_estimate(scales[lane]))
            batched.evaluate(self.batched_estimate(np.array(scales)))

    def test_detector_lane_state_matches_scalar_snapshot(self):
        scalars = self.build_scalars(2)
        batched = BatchedAnomalyDetector.from_detectors(self.build_scalars(2))
        self.drive(scalars, batched, [(50.0, 0.0), (0.0, 50.0), (50.0, 50.0)])
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()

    def test_detector_lane_round_trip_both_directions(self):
        scalars = self.build_scalars(2)
        batched = BatchedAnomalyDetector.from_detectors(self.build_scalars(2))
        # An asymmetric prefix so each lane's ring holds distinct bytes.
        self.drive(scalars, batched, [(50.0, 0.0), (50.0, 50.0)])

        # batched lane -> fresh scalar detector
        restored_scalar = self.build_scalars(1)[0]
        restored_scalar.restore(batched.lane_state(0))
        # scalar snapshots -> fresh batched pack
        restored_batched = BatchedAnomalyDetector.from_detectors(
            self.build_scalars(2)
        )
        for lane, scalar in enumerate(scalars):
            restored_batched.load_lane_state(lane, scalar.snapshot())

        # All three continue in lockstep after the round-trip.
        tail = [(0.0, 50.0), (50.0, 0.0), (50.0, 50.0)]
        for scales in tail:
            r_scalar0 = scalars[0].evaluate(self.scalar_estimate(scales[0]))
            r_restored = restored_scalar.evaluate(
                self.scalar_estimate(scales[0])
            )
            r_batched = restored_batched.evaluate(
                self.batched_estimate(np.array(scales))
            )
            assert r_restored.alert == r_scalar0.alert
            assert r_batched.alert[0] == r_scalar0.alert
        assert restored_batched.lane_state(0) == scalars[0].snapshot()

    def test_detector_window_mismatch_is_rejected(self):
        batched = BatchedAnomalyDetector.from_detectors(self.build_scalars(2))
        bad = batched.lane_state(0)
        bad["debouncer"]["n"] = 4
        with pytest.raises(ValueError, match="decision-window mismatch"):
            batched.load_lane_state(0, bad)
        windowless = BatchedAnomalyDetector([self.THRESHOLDS, self.THRESHOLDS])
        with pytest.raises(ValueError, match="presence mismatch"):
            windowless.load_lane_state(0, batched.lane_state(0))

    def test_estimator_reset_matches_scalar(self):
        errors = [1.0, 1.03]
        scalars = [
            NextStateEstimator(
                RavenDynamicModel(integrator="euler", parameter_error=e)
            )
            for e in errors
        ]
        batched = BatchedNextStateEstimator(
            [
                RavenDynamicModel(integrator="euler", parameter_error=e)
                for e in errors
            ]
        )
        mpos = np.array([[0.001, 0.002, 0.003], [0.002, 0.001, 0.004]])
        dac = np.array([[150.0, -30.0, 12.0]] * 2)
        for lane, scalar in enumerate(scalars):
            scalar.sync(mpos[lane])
            scalar.sync(mpos[lane] + 0.0005)
            scalar.estimate(dac[lane])
            scalar.reset()
        batched.sync(mpos)
        batched.sync(mpos + 0.0005)
        batched.estimate(dac)
        batched.reset()
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()
        # A reset pack behaves like pristine scalar lanes from here on.
        for lane, scalar in enumerate(scalars):
            scalar.sync(mpos[lane])
        batched.sync(mpos)
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()
