"""Tests for the experiments caching layer (calibration + campaigns)."""

import json

import numpy as np

from repro.attacks.campaign import CampaignCell, CampaignResult, RunOutcome
from repro.core.thresholds import SafetyThresholds
from repro.experiments.calibration import (
    get_thresholds,
    thresholds_cache_path,
    write_thresholds_cache,
)
from repro.experiments.campaigns import (
    _outcome_from_dict,
    _outcome_to_dict,
    campaign_cache_path,
)
from repro.experiments.scale import SMOKE, Scale

TINY = Scale(
    name="tiny-test",
    training_runs=1,
    training_duration_s=0.7,
    errors_a_mm=(0.1,),
    errors_b_dac=(20000,),
    periods_ms=(8,),
    repetitions=1,
    fault_free_runs=1,
    run_duration_s=0.7,
    validation_runs=1,
    validation_duration_s=0.7,
    syscall_samples=10,
    capture_runs=1,
    capture_duration_s=0.7,
)


class TestThresholdCaching:
    def test_cache_path_per_scale(self, tmp_path):
        assert "tiny-test" in str(thresholds_cache_path(TINY, tmp_path))
        assert "smoke" in str(thresholds_cache_path(SMOKE, tmp_path))

    def test_trains_and_caches(self, tmp_path):
        thresholds = get_thresholds(TINY, cache_dir=tmp_path)
        path = thresholds_cache_path(TINY, tmp_path)
        assert path.exists()
        # Second call loads the cache (identical values, no retraining).
        again = get_thresholds(TINY, cache_dir=tmp_path)
        assert np.allclose(again.motor_velocity, thresholds.motor_velocity)

    def test_force_retrain_overwrites(self, tmp_path):
        get_thresholds(TINY, cache_dir=tmp_path)
        path = thresholds_cache_path(TINY, tmp_path)
        # Poison the cache, then force retraining.
        poisoned = SafetyThresholds(
            motor_velocity=np.full(3, 1e9),
            motor_acceleration=np.full(3, 1e9),
            joint_velocity=np.full(3, 1e9),
        )
        write_thresholds_cache(path, poisoned, TINY)
        refreshed = get_thresholds(TINY, cache_dir=tmp_path, force_retrain=True)
        assert np.all(refreshed.motor_velocity < 1e6)

    def test_poisoned_cache_loaded_without_force(self, tmp_path):
        path = thresholds_cache_path(TINY, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        marker = SafetyThresholds(
            motor_velocity=np.full(3, 123.0),
            motor_acceleration=np.full(3, 1.0),
            joint_velocity=np.full(3, 1.0),
        )
        write_thresholds_cache(path, marker, TINY)
        loaded = get_thresholds(TINY, cache_dir=tmp_path)
        assert loaded.motor_velocity[0] == 123.0

    def test_legacy_unversioned_cache_invalidated(self, tmp_path):
        """A raw (pre-engine) thresholds JSON is retrained, not trusted."""
        path = thresholds_cache_path(TINY, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        legacy = SafetyThresholds(
            motor_velocity=np.full(3, 123.0),
            motor_acceleration=np.full(3, 1.0),
            joint_velocity=np.full(3, 1.0),
        )
        legacy.save(path)  # legacy layout: bare to_dict(), no version
        loaded = get_thresholds(TINY, cache_dir=tmp_path)
        assert loaded.motor_velocity[0] != 123.0

    def test_schema_mismatch_invalidated(self, tmp_path):
        path = thresholds_cache_path(TINY, tmp_path)
        marker = SafetyThresholds(
            motor_velocity=np.full(3, 123.0),
            motor_acceleration=np.full(3, 1.0),
            joint_velocity=np.full(3, 1.0),
        )
        write_thresholds_cache(path, marker, TINY)
        payload = json.loads(path.read_text())
        payload["schema"] = -1
        path.write_text(json.dumps(payload))
        loaded = get_thresholds(TINY, cache_dir=tmp_path)
        assert loaded.motor_velocity[0] != 123.0

    def test_config_change_invalidated(self, tmp_path):
        """Thresholds cached under different training settings retrain."""
        import dataclasses

        path = thresholds_cache_path(TINY, tmp_path)
        marker = SafetyThresholds(
            motor_velocity=np.full(3, 123.0),
            motor_acceleration=np.full(3, 1.0),
            joint_velocity=np.full(3, 1.0),
        )
        other = dataclasses.replace(TINY, training_duration_s=0.9)
        write_thresholds_cache(path, marker, other)
        loaded = get_thresholds(TINY, cache_dir=tmp_path)
        assert loaded.motor_velocity[0] != 123.0


class TestCampaignSerialization:
    def test_outcome_roundtrip(self):
        outcome = RunOutcome(
            cell=CampaignCell("B", 18000, 64),
            seed=3,
            label=True,
            raven_detected=False,
            model_detected=True,
            deviation_mm=2.5,
            attack_fired=True,
        )
        restored = _outcome_from_dict(
            json.loads(json.dumps(_outcome_to_dict(outcome)))
        )
        assert restored == outcome

    def test_fault_free_outcome_roundtrip(self):
        outcome = RunOutcome(
            cell=None,
            seed=9,
            label=False,
            raven_detected=False,
            model_detected=False,
            deviation_mm=0.0,
            attack_fired=False,
        )
        restored = _outcome_from_dict(_outcome_to_dict(outcome))
        assert restored.is_fault_free
        assert restored == outcome

    def test_cache_path_per_scenario_and_scale(self, tmp_path):
        a = campaign_cache_path("A", TINY, tmp_path)
        b = campaign_cache_path("B", TINY, tmp_path)
        assert a != b
        assert "tiny-test" in str(a)

    def test_confusion_survives_roundtrip(self):
        result = CampaignResult(scenario="B")
        result.outcomes = [
            RunOutcome(CampaignCell("B", 1, 2), 0, True, False, True, 1.0, True),
            RunOutcome(None, 1, False, False, False, 0.0, False),
        ]
        restored = CampaignResult(scenario="B")
        restored.outcomes = [
            _outcome_from_dict(_outcome_to_dict(o)) for o in result.outcomes
        ]
        assert (
            restored.confusion("model").tp == result.confusion("model").tp == 1
        )
