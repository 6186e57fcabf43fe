"""Tests for repro.core.thresholds and repro.core.detector."""

import numpy as np
import pytest

from repro.core.detector import AnomalyDetector, FusionRule
from repro.core.estimator import StateEstimate
from repro.core.thresholds import VARIABLE_GROUPS, SafetyThresholds, ThresholdLearner
from repro.errors import DetectorError


def make_estimate(mv=0.0, ma=0.0, jv=0.0):
    """A StateEstimate with uniform per-axis magnitudes."""
    return StateEstimate(
        motor_velocity=np.full(3, mv),
        motor_acceleration=np.full(3, ma),
        joint_velocity=np.full(3, jv),
        jpos_next=np.zeros(3),
        jvel_next=np.zeros(3),
        elapsed_s=1e-5,
    )


class TestSafetyThresholds:
    def test_wrong_shape_rejected(self):
        with pytest.raises(DetectorError):
            SafetyThresholds(
                motor_velocity=np.ones(2),
                motor_acceleration=np.ones(3),
                joint_velocity=np.ones(3),
            )

    def test_non_positive_rejected(self):
        with pytest.raises(DetectorError):
            SafetyThresholds(
                motor_velocity=np.zeros(3),
                motor_acceleration=np.ones(3),
                joint_velocity=np.ones(3),
            )

    def test_scaled(self, loose_thresholds):
        scaled = loose_thresholds.scaled(2.0)
        assert np.allclose(scaled.motor_velocity, 2 * loose_thresholds.motor_velocity)

    def test_json_roundtrip(self, tmp_path, loose_thresholds):
        path = tmp_path / "th.json"
        loose_thresholds.save(path)
        loaded = SafetyThresholds.load(path)
        assert np.allclose(loaded.motor_velocity, loose_thresholds.motor_velocity)
        assert np.allclose(
            loaded.motor_acceleration, loose_thresholds.motor_acceleration
        )
        assert loaded.percentile == loose_thresholds.percentile


class TestThresholdLearner:
    def test_defaults_to_paper_band_midpoint(self):
        learner = ThresholdLearner()
        assert 99.8 <= learner.percentile <= 99.9

    def test_fit_without_samples_raises(self):
        with pytest.raises(DetectorError):
            ThresholdLearner().fit()

    def test_invalid_percentile_rejected(self):
        with pytest.raises(DetectorError):
            ThresholdLearner(percentile=10.0)

    def test_invalid_margin_rejected(self):
        with pytest.raises(DetectorError):
            ThresholdLearner(margin=0.0)

    def test_fit_takes_percentile_of_samples(self, rng):
        learner = ThresholdLearner(percentile=90.0)
        for _ in range(1000):
            learner.observe(
                make_estimate(
                    mv=abs(rng.normal()), ma=abs(rng.normal()), jv=abs(rng.normal())
                )
            )
        thresholds = learner.fit()
        # 90th percentile of |N(0,1)| is about 1.64.
        assert np.allclose(thresholds.motor_velocity, 1.64, atol=0.2)

    def test_margin_scales_thresholds(self, rng):
        samples = [
            make_estimate(mv=abs(rng.normal()), ma=1.0, jv=1.0) for _ in range(500)
        ]
        plain = ThresholdLearner(margin=1.0)
        wide = ThresholdLearner(margin=2.0)
        for s in samples:
            plain.observe(s)
            wide.observe(s)
        assert np.allclose(
            wide.fit().motor_velocity, 2 * plain.fit().motor_velocity
        )

    def test_fit_range_returns_band_ends(self, rng):
        learner = ThresholdLearner()
        for _ in range(2000):
            learner.observe(make_estimate(mv=abs(rng.normal()), ma=1.0, jv=1.0))
        lo, hi = learner.fit_range()
        assert lo.percentile == 99.8 and hi.percentile == 99.9
        assert np.all(hi.motor_velocity >= lo.motor_velocity)

    def test_run_counter(self):
        learner = ThresholdLearner()
        learner.finish_run()
        learner.finish_run()
        assert learner.runs_observed == 2


class TestFusionRule:
    @pytest.mark.parametrize(
        "rule,alarm_counts,expected",
        [
            (FusionRule.ALL, 3, True),
            (FusionRule.ALL, 2, False),
            (FusionRule.MAJORITY, 2, True),
            (FusionRule.MAJORITY, 1, False),
            (FusionRule.ANY, 1, True),
            (FusionRule.ANY, 0, False),
        ],
    )
    def test_decisions(self, rule, alarm_counts, expected):
        alarms = {f"g{i}": i < alarm_counts for i in range(3)}
        assert rule.decide(alarms) is expected


class TestAnomalyDetector:
    def test_uncalibrated_raises(self):
        with pytest.raises(DetectorError):
            AnomalyDetector().evaluate(make_estimate())

    def test_quiet_estimate_no_alert(self, loose_thresholds):
        detector = AnomalyDetector(loose_thresholds)
        result = detector.evaluate(make_estimate(mv=0.1, ma=1.0, jv=0.01))
        assert not result.alert
        assert result.alarm_count == 0

    def test_all_fusion_requires_all_groups(self, loose_thresholds):
        detector = AnomalyDetector(loose_thresholds)
        # Only acceleration above threshold.
        result = detector.evaluate(make_estimate(mv=0.1, ma=1e6, jv=0.01))
        assert result.alarms["motor_acceleration"]
        assert not result.alert

    def test_all_groups_over_threshold_alerts(self, loose_thresholds):
        detector = AnomalyDetector(loose_thresholds)
        result = detector.evaluate(make_estimate(mv=100.0, ma=1e6, jv=10.0))
        assert result.alert
        assert result.alarm_count == 3

    def test_any_fusion_alerts_on_single_group(self, loose_thresholds):
        detector = AnomalyDetector(loose_thresholds, fusion=FusionRule.ANY)
        assert detector.evaluate(make_estimate(ma=1e6)).alert

    def test_margins_are_ratios(self):
        uniform = SafetyThresholds(
            motor_velocity=np.full(3, 10.0),
            motor_acceleration=np.full(3, 100.0),
            joint_velocity=np.full(3, 1.0),
        )
        detector = AnomalyDetector(uniform)
        result = detector.evaluate(make_estimate(mv=20.0, ma=0.0, jv=0.0))
        assert result.margins["motor_velocity"] == pytest.approx(2.0)

    def test_counters(self, loose_thresholds):
        detector = AnomalyDetector(loose_thresholds)
        detector.evaluate(make_estimate())
        detector.evaluate(make_estimate(mv=1e3, ma=1e9, jv=1e3))
        assert detector.evaluations == 2
        assert detector.alerts == 1
        detector.reset_counters()
        assert detector.evaluations == 0

    def test_calibrate_replaces_thresholds(self, loose_thresholds, tight_thresholds):
        detector = AnomalyDetector(loose_thresholds)
        assert not detector.evaluate(make_estimate(mv=1.0, ma=1.0, jv=0.1)).alert
        detector.calibrate(tight_thresholds)
        assert detector.evaluate(make_estimate(mv=1.0, ma=1.0, jv=0.1)).alert

    def test_calibrate_between_evaluations_matches_a_fresh_detector(
        self, rng, loose_thresholds
    ):
        """The detector's float copies of its thresholds follow
        ``calibrate()``: the next decision is, bit for bit, that of a
        detector built with the new thresholds."""

        def estimate(limits):
            rows = {g: rng.normal(size=3) * getattr(limits, g) for g in VARIABLE_GROUPS}
            return StateEstimate(
                **rows, jpos_next=np.zeros(3), jvel_next=np.zeros(3), elapsed_s=0.0
            )

        def bits(result):
            margins = {g: m.hex() for g, m in result.margins.items()}
            return result.alert, result.raw_alert, result.alarms, margins

        detector = AnomalyDetector(loose_thresholds)
        for scale in (0.37, 1.9, 0.8):
            detector.evaluate(estimate(loose_thresholds))
            new = loose_thresholds.scaled(scale)
            detector.calibrate(new)
            after = estimate(loose_thresholds)
            assert bits(detector.evaluate(after)) == bits(AnomalyDetector(new).evaluate(after))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("group", VARIABLE_GROUPS)
    def test_nan_axis_gives_nan_margin_and_no_alarm(self, loose_thresholds, group, axis):
        """A NaN on any axis makes its group's margin NaN, as ``np.max``
        does, so that group cannot alarm — even with its other axes far
        over the limit, and wherever the NaN sits."""
        hot = {g: np.full(3, 1e6) for g in VARIABLE_GROUPS}
        hot[group][axis] = np.nan
        estimate = StateEstimate(
            **hot, jpos_next=np.zeros(3), jvel_next=np.zeros(3), elapsed_s=0.0
        )
        result = AnomalyDetector(loose_thresholds).evaluate(estimate)
        assert np.isnan(result.margins[group])
        assert not result.alarms[group]
        assert not result.alert  # ALL fusion: one silent group vetoes
        for other in VARIABLE_GROUPS:
            if other != group:
                assert result.alarms[other]
                assert result.margins[other] > 1.0
        anyone = AnomalyDetector(loose_thresholds, fusion=FusionRule.ANY)
        assert anyone.evaluate(estimate).alert

    def test_per_axis_maximum_drives_alarm(self, loose_thresholds):
        detector = AnomalyDetector(loose_thresholds, fusion=FusionRule.ANY)
        estimate = StateEstimate(
            motor_velocity=np.array([0.0, 0.0, 60.0]),  # only axis 3 over
            motor_acceleration=np.zeros(3),
            joint_velocity=np.zeros(3),
            jpos_next=np.zeros(3),
            jvel_next=np.zeros(3),
            elapsed_s=0.0,
        )
        assert detector.evaluate(estimate).alarms["motor_velocity"]
