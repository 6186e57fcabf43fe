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


def _peak_ratio(values: List[float], limits: List[float]) -> float:
    """``float(np.max(np.abs(values) / limits))`` on Python floats.

    Keeps ``np.maximum``'s reduction rule, under which the first NaN
    wins wherever it sits: a NaN axis gives its group a NaN margin and
    no alarm.  Python's ``max`` would depend on the NaN's position.
    """
    peak = None
    for value, limit in zip(values, limits):
        ratio = abs(value) / limit
        if peak is None or not (peak >= ratio or math.isnan(peak)):
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
            raise DetectorError(
                "detector not calibrated: provide SafetyThresholds "
                "(see ThresholdLearner)"
            )
        return self._thresholds

    def calibrate(self, thresholds: SafetyThresholds) -> None:
        """Install (or replace) the thresholds."""
        self._thresholds = thresholds

    def evaluate(self, estimate: StateEstimate) -> DetectionResult:
        """Evaluate one command's estimated instant rates."""
        thresholds = self.thresholds
        alarms: Dict[str, bool] = {}
        margins: Dict[str, float] = {}
        for group in VARIABLE_GROUPS:
            ratio = _peak_ratio(
                getattr(estimate, group).tolist(), getattr(thresholds, group).tolist()
            )
            alarms[group] = ratio > 1.0
            margins[group] = ratio
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


class BatchedAlarmDebouncer:
    """Per-lane M-of-N decision windows over batched alarm streams.

    One :class:`AlarmDebouncer` per lane, vectorized: a ``(lanes, n)``
    integer ring buffer whose running row sums reproduce each lane's
    ``sum(deque) >= m`` decision exactly (integer arithmetic — no rounding
    concerns).  Each lane's window advances only on its own updates, so
    two lanes alarming in the same cycle debounce independently.
    """

    def __init__(self, m: int, n: int, lanes: int) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if n < 1:
            raise ValueError("decision window size n must be >= 1")
        if not (1 <= m <= n):
            raise ValueError("decision threshold m must be in [1, n]")
        self.m = m
        self.n = n
        self.lanes = lanes
        self._ring = np.zeros((lanes, n), dtype=np.int64)
        self._sums = np.zeros(lanes, dtype=np.int64)
        self._pos = np.zeros(lanes, dtype=np.int64)
        self._filled = np.zeros(lanes, dtype=np.int64)

    def update(
        self, raw_alerts: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Push one per-cycle alarm per masked lane; return decisions.

        Unmasked lanes keep their window untouched and report their
        current decision (``sum >= m`` over the existing window).
        """
        raw = np.asarray(raw_alerts, dtype=np.int64)
        if mask is None:
            mask = np.ones(self.lanes, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
        idx = np.nonzero(mask)[0]
        pos = self._pos[idx]
        evicted = self._ring[idx, pos]
        self._ring[idx, pos] = raw[idx]
        self._sums[idx] += raw[idx] - evicted
        self._pos[idx] = (pos + 1) % self.n
        self._filled[idx] = np.minimum(self._filled[idx] + 1, self.n)
        return self._sums >= self.m

    def reset(self) -> None:
        """Forget every lane's window."""
        self._ring[:] = 0
        self._sums[:] = 0
        self._pos[:] = 0
        self._filled[:] = 0

    def lane_window(self, lane: int) -> Tuple[bool, ...]:
        """One lane's window contents, oldest first (like ``window``)."""
        count = int(self._filled[lane])
        pos = int(self._pos[lane])
        if count < self.n:
            ordered = self._ring[lane, :count]
        else:
            ordered = np.concatenate([self._ring[lane, pos:], self._ring[lane, :pos]])
        return tuple(bool(v) for v in ordered)

    # -- durable state (session checkpoints, see repro.fleet) ----------------------

    def lane_state(self, lane: int) -> Dict[str, Any]:
        """One lane's window as a scalar :meth:`AlarmDebouncer.snapshot`.

        The payload round-trips with the scalar class in both
        directions: a lane extracted here restores into a scalar
        debouncer and vice versa.
        """
        return {
            "m": self.m,
            "n": self.n,
            "window": [bool(v) for v in self.lane_window(lane)],
        }

    def load_lane_state(self, lane: int, state: Dict[str, Any]) -> None:
        """Load one lane from a scalar snapshot payload (exact inverse).

        Raises
        ------
        ValueError
            When the stored window shape differs from this debouncer's
            configuration, mirroring :meth:`AlarmDebouncer.restore`.
        """
        if int(state["m"]) != self.m or int(state["n"]) != self.n:
            raise ValueError(
                f"decision-window mismatch: snapshot ({state['m']}, "
                f"{state['n']}) vs configured ({self.m}, {self.n})"
            )
        window = [int(bool(v)) for v in state["window"]][-self.n :]
        count = len(window)
        # Lay the window down oldest-first from slot 0; the next write
        # position and fill count then reproduce deque(maxlen=n)
        # append/evict behaviour exactly (see lane_window()).
        self._ring[lane, :] = 0
        self._ring[lane, :count] = window
        self._sums[lane] = sum(window)
        self._pos[lane] = count % self.n
        self._filled[lane] = count

    def remove_lanes(self, lanes: Sequence[int]) -> List[int]:
        """Eject ``lanes``; surviving rows keep their ring slots verbatim.

        Rows (not columns) are deleted, so a surviving lane's ring
        contents, write position and fill count — and therefore its next
        M-of-N decisions — are unchanged.  Returns the old indices of the
        surviving lanes, in order.
        """
        keep = np.ones(self.lanes, dtype=bool)
        keep[list(lanes)] = False
        if not keep.any():
            raise ValueError("cannot remove every lane; drop the batch instead")
        survivors = [i for i in range(self.lanes) if keep[i]]
        self._ring = self._ring[keep].copy()
        self._sums = self._sums[keep].copy()
        self._pos = self._pos[keep].copy()
        self._filled = self._filled[keep].copy()
        self.lanes = len(survivors)
        return survivors


class BatchedDetectionResult:
    """Per-lane detection outcomes for one batched evaluation."""

    __slots__ = ("alert", "alarms", "margins", "raw_alert")

    def __init__(
        self,
        alert: np.ndarray,
        alarms: Dict[str, np.ndarray],
        margins: Dict[str, np.ndarray],
        raw_alert: np.ndarray,
    ) -> None:
        self.alert = alert
        self.alarms = alarms
        self.margins = margins
        self.raw_alert = raw_alert

    @property
    def alarm_count(self) -> np.ndarray:
        """Per-lane count of alarming variable groups."""
        counts = np.zeros(self.alert.shape[0], dtype=np.int64)
        for flags in self.alarms.values():
            counts += flags
        return counts

    def lane(self, lane: int) -> DetectionResult:
        """Scalar :class:`DetectionResult` for one lane."""
        return DetectionResult(
            alert=bool(self.alert[lane]),
            alarms={g: bool(v[lane]) for g, v in self.alarms.items()},
            margins={g: float(v[lane]) for g, v in self.margins.items()},
            raw_alert=bool(self.raw_alert[lane]),
        )


class BatchedAnomalyDetector:
    """N detector lanes evaluated in one vectorized pass.

    Thresholds may differ per lane; the fusion rule and decision window
    shape are shared.  Evaluation and alert counters are **per lane** —
    two lanes alarming in the same batched cycle each count their own
    alert (see ``tests/test_batch_equivalence.py``).
    """

    def __init__(
        self,
        thresholds: Sequence[SafetyThresholds],
        fusion: FusionRule = FusionRule.ALL,
        decision_window: Optional[Tuple[int, int]] = None,
    ) -> None:
        if not thresholds:
            raise DetectorError("at least one lane of thresholds is required")
        self.num_lanes = len(thresholds)
        self.lane_thresholds = tuple(thresholds)
        self._limits = {
            group: np.stack(
                [np.asarray(getattr(t, group), dtype=float) for t in thresholds]
            )
            for group in VARIABLE_GROUPS
        }
        self.fusion = fusion
        self.debouncer = (
            None
            if decision_window is None
            else BatchedAlarmDebouncer(*decision_window, lanes=self.num_lanes)
        )
        self.evaluations = np.zeros(self.num_lanes, dtype=np.int64)
        self.alerts = np.zeros(self.num_lanes, dtype=np.int64)

    @classmethod
    def from_detectors(
        cls, detectors: Sequence["AnomalyDetector"]
    ) -> "BatchedAnomalyDetector":
        """Build from per-lane scalar detectors (shared fusion/window)."""
        from repro.dynamics.batch import require_homogeneous

        require_homogeneous([d.fusion for d in detectors], "fusion rule")
        windows = [
            None if d.debouncer is None else (d.debouncer.m, d.debouncer.n)
            for d in detectors
        ]
        require_homogeneous(windows, "decision window")
        return cls(
            [d.thresholds for d in detectors],
            fusion=detectors[0].fusion,
            decision_window=windows[0],
        )

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
            raw_alert = counts == total
        elif self.fusion is FusionRule.MAJORITY:
            raw_alert = counts * 2 > total
        else:
            raw_alert = counts > 0
        if self.debouncer is None:
            alert = raw_alert.copy()
        else:
            alert = self.debouncer.update(raw_alert, mask)
        self.evaluations[mask] += 1
        self.alerts[mask & alert] += 1
        return BatchedDetectionResult(
            alert=alert, alarms=alarms, margins=margins, raw_alert=raw_alert
        )

    def reset_counters(self) -> None:
        """Zero every lane's counters and decision window."""
        self.evaluations[:] = 0
        self.alerts[:] = 0
        if self.debouncer is not None:
            self.debouncer.reset()

    # -- durable state (session checkpoints, see repro.fleet) ----------------------

    def lane_state(self, lane: int) -> Dict[str, Any]:
        """One lane's counters + window as a scalar
        :meth:`AnomalyDetector.snapshot` payload."""
        return {
            "evaluations": int(self.evaluations[lane]),
            "alerts": int(self.alerts[lane]),
            "debouncer": (
                None
                if self.debouncer is None
                else self.debouncer.lane_state(lane)
            ),
        }

    def load_lane_state(self, lane: int, state: Dict[str, Any]) -> None:
        """Load one lane from a scalar snapshot payload (exact inverse).

        Raises
        ------
        ValueError
            On decision-window presence mismatch, mirroring
            :meth:`AnomalyDetector.restore`.
        """
        window = state.get("debouncer")
        if (window is None) != (self.debouncer is None):
            raise ValueError(
                "decision-window presence mismatch between snapshot and "
                "configured detector"
            )
        self.evaluations[lane] = int(state["evaluations"])
        self.alerts[lane] = int(state["alerts"])
        if self.debouncer is not None:
            self.debouncer.load_lane_state(lane, window)

    def remove_lanes(self, lanes: Sequence[int]) -> List[int]:
        """Eject ``lanes`` without disturbing the surviving lanes.

        Per-lane threshold rows, evaluation/alert counters and debouncer
        ring slots are deleted row-wise, so every surviving lane's
        counters and window state — and its subsequent decisions — are
        exactly what they would have been had the ejected lane never been
        batched (``tests/test_batch_equivalence.py`` pins this).  Returns
        the old indices of the surviving lanes, in order.
        """
        keep = np.ones(self.num_lanes, dtype=bool)
        keep[list(lanes)] = False
        if not keep.any():
            raise ValueError("cannot remove every lane; drop the batch instead")
        survivors = [i for i in range(self.num_lanes) if keep[i]]
        self.lane_thresholds = tuple(self.lane_thresholds[i] for i in survivors)
        self._limits = {
            group: rows[keep].copy() for group, rows in self._limits.items()
        }
        self.evaluations = self.evaluations[keep].copy()
        self.alerts = self.alerts[keep].copy()
        if self.debouncer is not None:
            self.debouncer.remove_lanes(lanes)
        self.num_lanes = len(survivors)
        return survivors
