"""Dynamic model-based detection and mitigation (the paper's Section IV).

The framework intercepts every DAC command on its way from the control
software to the motor controllers, estimates — with a real-time dynamic
model of the robot — the motor and joint state that executing the command
would produce in the next control period, and raises an alarm *before
execution* when the estimated instant motor acceleration, motor velocity
and joint velocity all exceed thresholds learned from fault-free runs.

Public API
----------
- :class:`RavenDynamicModel` — the real-time parallel model.
- :class:`NextStateEstimator`, :class:`StateEstimate` — one-step prediction.
- :class:`BatchedNextStateEstimator` (over :class:`BatchedDynamicModel`)
  — N estimator lanes in one vectorized pass, bit-identical per lane to
  the scalar estimator; the fleet's lane pack runs it.  It carries only
  what the pack runs: masked sync/coast/estimate, per-lane faults, and
  lane copies to and from scalar estimators.
- :class:`BatchedAnomalyDetector` — per-cycle threshold fusion over N
  lanes, no decision window; only the detector replay oracle
  (:mod:`repro.experiments.batch`) runs it.
- :class:`ThresholdLearner`, :class:`SafetyThresholds` — percentile learning.
- :class:`AnomalyDetector`, :class:`DetectionResult` — alarm fusion.
- :class:`DetectorGuard`, :class:`MitigationStrategy` — USB-board insertion.
- :class:`GuardSupervisor`, :class:`SupervisorConfig`, :class:`GuardHealth`
  — degraded-mode runtime (measurement plausibility screen, model coasting,
  staleness watchdog).
- :class:`RavenBaselineDetector` — the robot's built-in checks, as a
  comparable detector.
- :mod:`repro.core.metrics` — ACC/TPR/FPR/F1.
"""

from repro.core.dynamic_model import (
    BatchedDynamicModel,
    BatchedModelPrediction,
    ModelPrediction,
    RavenDynamicModel,
)
from repro.core.estimator import (
    BatchedNextStateEstimator,
    BatchedStateEstimate,
    NextStateEstimator,
    StateEstimate,
)
from repro.core.thresholds import SafetyThresholds, ThresholdLearner
from repro.core.detector import (
    AlarmDebouncer,
    AnomalyDetector,
    BatchedAnomalyDetector,
    BatchedDetectionResult,
    DetectionResult,
    FusionRule,
)
from repro.core.mitigation import MitigationStrategy
from repro.core.pipeline import (
    DetectorGuard,
    GuardHealth,
    GuardStats,
    GuardSupervisor,
    SupervisorConfig,
)
from repro.core.baseline import RavenBaselineDetector
from repro.core.metrics import ConfusionMatrix, classification_report

__all__ = [
    "AlarmDebouncer",
    "AnomalyDetector",
    "BatchedAnomalyDetector",
    "BatchedDetectionResult",
    "BatchedDynamicModel",
    "BatchedModelPrediction",
    "BatchedNextStateEstimator",
    "BatchedStateEstimate",
    "ConfusionMatrix",
    "DetectionResult",
    "DetectorGuard",
    "FusionRule",
    "GuardHealth",
    "GuardStats",
    "GuardSupervisor",
    "SupervisorConfig",
    "MitigationStrategy",
    "ModelPrediction",
    "NextStateEstimator",
    "RavenBaselineDetector",
    "RavenDynamicModel",
    "SafetyThresholds",
    "StateEstimate",
    "ThresholdLearner",
    "classification_report",
]
