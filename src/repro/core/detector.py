"""Anomaly detection with alarm fusion.

One alarm per variable group (motor velocity, motor acceleration, joint
velocity), each raised when any axis exceeds its learned threshold.  "In
order to reduce false alarms due to model inaccuracies and natural noise in
the trajectory, the detector fuses the alarms ... and raises an alert only
when all three variables indicate an abnormality." (paper, Section IV.C)

The fusion rule is configurable (``ALL`` is the paper's choice; ``ANY`` and
``MAJORITY`` support the fusion ablation).

For *in-situ* deployment under degraded measurements (encoder glitches,
packet jitter, model drift) the detector additionally supports an optional
M-of-N **decision window**: the fused per-cycle alarm is debounced so that
an alert is raised only when at least M of the last N evaluations alarmed.
The default (no debounce) reproduces the paper's per-cycle behaviour
bit-exactly.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import BatchedStateEstimate, StateEstimate
from repro.core.thresholds import VARIABLE_GROUPS, SafetyThresholds
from repro.errors import DetectorError
from repro.obs.metrics import MARGIN_RATIO_BUCKETS
from repro.obs.runtime import get_runtime


def _not_calibrated() -> DetectorError:
    return DetectorError(
        "detector not calibrated: provide SafetyThresholds (see ThresholdLearner)"
    )


#: One group's three per-axis thresholds as floats.
Limits = Tuple[float, float, float]


def _limit_floats(
    thresholds: Optional[SafetyThresholds],
) -> Optional[Tuple[Limits, Limits, Limits]]:
    """Each group's thresholds as floats, in ``VARIABLE_GROUPS`` order."""
    if thresholds is None:
        return None
    return tuple(
        tuple(getattr(thresholds, group).tolist()) for group in VARIABLE_GROUPS
    )


def _peak_ratio(values: List[float], limits: Limits) -> float:
    """``float(np.max(np.abs(values) / limits))`` on three Python floats.

    Keeps ``np.maximum``'s reduction rule, under which the first NaN
    wins wherever it sits: a NaN axis gives its group a NaN margin and
    no alarm.  Python's ``max`` would depend on the NaN's position.
    """
    v0, v1, v2 = values
    l0, l1, l2 = limits
    peak = abs(v0) / l0
    ratio = abs(v1) / l1
    if not (peak >= ratio or math.isnan(peak)):
        peak = ratio
    ratio = abs(v2) / l2
    if not (peak >= ratio or math.isnan(peak)):
        peak = ratio
    return peak


class FusionRule(enum.Enum):
    """How per-variable alarms combine into a detector alert."""

    ALL = "all"
    MAJORITY = "majority"
    ANY = "any"

    def decide(self, alarms: Dict[str, bool]) -> bool:
        """Apply the rule to the per-group alarm dict."""
        count = sum(alarms.values())
        if self is FusionRule.ALL:
            return count == len(alarms)
        if self is FusionRule.MAJORITY:
            return count * 2 > len(alarms)
        return count > 0


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of evaluating one intercepted command.

    ``alert`` is the post-debounce decision the guard acts on; ``raw_alert``
    is the undebounced per-cycle fusion outcome (identical to ``alert``
    when no decision window is configured).
    """

    alert: bool
    alarms: Dict[str, bool]
    margins: Dict[str, float]
    raw_alert: Optional[bool] = None

    @property
    def alarm_count(self) -> int:
        """How many variable groups alarmed."""
        return sum(self.alarms.values())


class AlarmDebouncer:
    """M-of-N decision window over the fused per-cycle alarm stream.

    A single glitched measurement or one cycle of model-drift margin
    overshoot should not trip the mitigation chain; requiring M alarming
    cycles out of the last N trades a bounded amount of detection latency
    (at most N control periods) for hysteresis against measurement noise.
    """

    def __init__(self, m: int, n: int) -> None:
        if n < 1:
            raise ValueError("decision window size n must be >= 1")
        if not (1 <= m <= n):
            raise ValueError("decision threshold m must be in [1, n]")
        self.m = m
        self.n = n
        self._window: Deque[bool] = deque(maxlen=n)

    def update(self, raw_alert: bool) -> bool:
        """Push one per-cycle alarm; return the debounced decision."""
        self._window.append(raw_alert)
        return sum(self._window) >= self.m

    def reset(self) -> None:
        """Forget the window (e.g. across runs or E-STOP recovery)."""
        self._window.clear()

    @property
    def window(self) -> Tuple[bool, ...]:
        """The current window contents, oldest first."""
        return tuple(self._window)

    # -- durable state (session checkpoints, see repro.fleet) ----------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the decision-window contents."""
        return {
            "m": self.m,
            "n": self.n,
            "window": [bool(v) for v in self._window],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Load a :meth:`snapshot` payload (exact inverse).

        Raises
        ------
        ValueError
            When the stored window shape differs from this debouncer's
            configuration — a session restores into an identically
            configured pipeline, never a differently shaped one.
        """
        if int(state["m"]) != self.m or int(state["n"]) != self.n:
            raise ValueError(
                f"decision-window mismatch: snapshot ({state['m']}, "
                f"{state['n']}) vs configured ({self.m}, {self.n})"
            )
        self._window = deque((bool(v) for v in state["window"]), maxlen=self.n)


class AnomalyDetector:
    """Thresholds + fusion over estimator outputs."""

    def __init__(
        self,
        thresholds: Optional[SafetyThresholds] = None,
        fusion: FusionRule = FusionRule.ALL,
        decision_window: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Create the detector.

        ``decision_window``: optional ``(m, n)`` M-of-N debounce over the
        fused alarm; ``None`` (the default) keeps the paper's per-cycle
        alerting.
        """
        self._thresholds = thresholds
        self._limits = _limit_floats(thresholds)
        self.fusion = fusion
        self.debouncer = (
            None if decision_window is None else AlarmDebouncer(*decision_window)
        )
        self.evaluations = 0
        self.alerts = 0
        # Telemetry (REPRO_OBS): alarm-path counters and a histogram of
        # the per-cycle worst margin ratio.  All None when disabled, so
        # the evaluate() hot path pays a single is-None branch.
        obs = get_runtime()
        if obs.enabled:
            registry = obs.registry
            self._obs_evaluations = registry.counter(
                "repro_detector_evaluations_total",
                "commands evaluated by the anomaly detector",
            )
            self._obs_alerts = registry.counter(
                "repro_detector_alerts_total",
                "post-debounce detector alerts",
            )
            self._obs_margin = registry.histogram(
                "repro_detector_margin_ratio",
                "per-cycle worst margin ratio (value / threshold)",
                buckets=MARGIN_RATIO_BUCKETS,
            )
        else:
            self._obs_evaluations = None
            self._obs_alerts = None
            self._obs_margin = None

    @property
    def thresholds(self) -> SafetyThresholds:
        """The calibrated thresholds.

        Raises
        ------
        DetectorError
            If the detector has not been calibrated.
        """
        if self._thresholds is None:
            raise _not_calibrated()
        return self._thresholds

    def calibrate(self, thresholds: SafetyThresholds) -> None:
        """Install (or replace) the thresholds."""
        self._thresholds = thresholds
        self._limits = _limit_floats(thresholds)

    def evaluate(self, estimate: StateEstimate) -> DetectionResult:
        """Evaluate one command's estimated instant rates."""
        if self._limits is None:
            raise _not_calibrated()
        mv_limits, ma_limits, jv_limits = self._limits
        mv = _peak_ratio(estimate.motor_velocity.tolist(), mv_limits)
        ma = _peak_ratio(estimate.motor_acceleration.tolist(), ma_limits)
        jv = _peak_ratio(estimate.joint_velocity.tolist(), jv_limits)
        alarms = {
            "motor_velocity": mv > 1.0,
            "motor_acceleration": ma > 1.0,
            "joint_velocity": jv > 1.0,
        }
        margins = {"motor_velocity": mv, "motor_acceleration": ma, "joint_velocity": jv}
        raw_alert = self.fusion.decide(alarms)
        alert = (
            raw_alert
            if self.debouncer is None
            else self.debouncer.update(raw_alert)
        )
        self.evaluations += 1
        if alert:
            self.alerts += 1
        if self._obs_evaluations is not None:
            self._obs_evaluations.inc()
            self._obs_margin.observe(max(margins.values()))
            if alert:
                self._obs_alerts.inc()
        return DetectionResult(
            alert=alert, alarms=alarms, margins=margins, raw_alert=raw_alert
        )

    def reset_counters(self) -> None:
        """Zero the evaluation/alert counters and the decision window."""
        self.evaluations = 0
        self.alerts = 0
        if self.debouncer is not None:
            self.debouncer.reset()

    # -- durable state (session checkpoints, see repro.fleet) ----------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot of counters + decision window.

        Thresholds and the fusion rule are configuration, not state — a
        restored detector is constructed from the same configuration.
        """
        return {
            "evaluations": self.evaluations,
            "alerts": self.alerts,
            "debouncer": (
                None if self.debouncer is None else self.debouncer.snapshot()
            ),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Load a :meth:`snapshot` payload (exact inverse)."""
        window = state.get("debouncer")
        if (window is None) != (self.debouncer is None):
            raise ValueError(
                "decision-window presence mismatch between snapshot and "
                "configured detector"
            )
        self.evaluations = int(state["evaluations"])
        self.alerts = int(state["alerts"])
        if self.debouncer is not None:
            self.debouncer.restore(window)


class BatchedDetectionResult:
    """Per-lane detection outcomes for one batched evaluation."""

    __slots__ = ("alert", "alarms", "margins")

    def __init__(
        self,
        alert: np.ndarray,
        alarms: Dict[str, np.ndarray],
        margins: Dict[str, np.ndarray],
    ) -> None:
        self.alert = alert
        self.alarms = alarms
        self.margins = margins


class BatchedAnomalyDetector:
    """N detector lanes evaluated in one vectorized pass.

    Thresholds may differ per lane; the fusion rule is shared.  Lanes
    alert per cycle: there is no decision window.  Evaluation and alert
    counters are **per lane** — two lanes alarming in the same batched
    cycle each count their own alert.
    """

    def __init__(
        self,
        thresholds: Sequence[SafetyThresholds],
        fusion: FusionRule = FusionRule.ALL,
    ) -> None:
        if not thresholds:
            raise DetectorError("at least one lane of thresholds is required")
        self.num_lanes = len(thresholds)
        self._limits = {
            group: np.stack(
                [np.asarray(getattr(t, group), dtype=float) for t in thresholds]
            )
            for group in VARIABLE_GROUPS
        }
        self.fusion = fusion
        self.evaluations = np.zeros(self.num_lanes, dtype=np.int64)
        self.alerts = np.zeros(self.num_lanes, dtype=np.int64)

    @classmethod
    def from_detectors(
        cls, detectors: Sequence["AnomalyDetector"]
    ) -> "BatchedAnomalyDetector":
        """Build from per-lane scalar detectors (shared fusion rule, no
        decision window)."""
        from repro.dynamics.batch import require_homogeneous

        require_homogeneous([d.fusion for d in detectors], "fusion rule")
        if any(d.debouncer is not None for d in detectors):
            raise DetectorError("batched lanes have no decision window")
        return cls([d.thresholds for d in detectors], fusion=detectors[0].fusion)

    def evaluate(
        self,
        estimate: "BatchedStateEstimate",
        mask: Optional[np.ndarray] = None,
    ) -> BatchedDetectionResult:
        """Evaluate every masked lane's estimated instant rates at once."""
        if mask is None:
            mask = np.ones(self.num_lanes, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
        alarms: Dict[str, np.ndarray] = {}
        margins: Dict[str, np.ndarray] = {}
        counts = np.zeros(self.num_lanes, dtype=np.int64)
        for group in VARIABLE_GROUPS:
            value = np.abs(getattr(estimate, group))
            ratio = np.max(value / self._limits[group], axis=1)
            flags = ratio > 1.0
            alarms[group] = flags
            margins[group] = ratio
            counts += flags
        total = len(VARIABLE_GROUPS)
        if self.fusion is FusionRule.ALL:
            alert = counts == total
        elif self.fusion is FusionRule.MAJORITY:
            alert = counts * 2 > total
        else:
            alert = counts > 0
        self.evaluations[mask] += 1
        self.alerts[mask & alert] += 1
        return BatchedDetectionResult(alert=alert, alarms=alarms, margins=margins)
