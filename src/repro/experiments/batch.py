"""Vectorized detector replay: the batched detector oracle.

:func:`replay_detector_batched` runs the detector pipeline alone
(estimator sync → one-step model prediction → threshold fusion) over a
recorded command/measurement stream for N detector configurations in
one vectorized pass, through :class:`repro.core.BatchedNextStateEstimator`
and :class:`repro.core.BatchedAnomalyDetector`.  Threshold sweeps and
model-error sensitivity studies iterate this way: record one stream,
replay many detector variants against it without re-simulating the
robot.  :func:`replay_detector_scalar` is the reference loop.

The pair is an independent oracle for the scalar detector:
``benchmarks/bench_campaign_throughput.py`` compares their alert masks,
and perfbench's ``guard_inline`` output check compares the inline
guard's masks with :func:`replay_detector_batched`.  The fleet
supervisor's lane pack (:mod:`repro.fleet.supervisor`) is the other
batched path; it shares the estimator but evaluates each lane with its
scalar detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    AnomalyDetector,
    BatchedAnomalyDetector,
    BatchedNextStateEstimator,
    FusionRule,
    NextStateEstimator,
    RavenDynamicModel,
    SafetyThresholds,
)
from repro.sim.trace import RunTrace

__all__ = [
    "CommandStream",
    "ReplayLaneConfig",
    "ReplayResult",
    "replay_detector_batched",
    "replay_detector_scalar",
]


@dataclass
class CommandStream:
    """The detector-facing slice of one recorded run.

    Per control cycle: the commanded DAC values, the measured motor
    positions, and whether the robot was in Pedal Down (the only state
    the detector evaluates in).  Extracted from any :class:`RunTrace`;
    one stream can be replayed against arbitrarily many detector
    configurations without re-simulating the robot.
    """

    dac: np.ndarray  # (T, 3) float64
    mpos: np.ndarray  # (T, 3) float64
    pedal_down: np.ndarray  # (T,) bool

    def __len__(self) -> int:
        return len(self.pedal_down)

    @classmethod
    def from_trace(cls, trace: RunTrace) -> "CommandStream":
        dac, mpos, pedal_down = trace.detector_stream()
        return cls(dac=dac, mpos=mpos, pedal_down=pedal_down)


@dataclass(frozen=True)
class ReplayLaneConfig:
    """One detector variant to replay a stream against."""

    thresholds: SafetyThresholds
    parameter_error: float = 1.03
    integrator: str = "euler"
    fusion: FusionRule = FusionRule.ALL
    decision_window: Optional[Tuple[int, int]] = None

    def build_scalar(self) -> Tuple[NextStateEstimator, AnomalyDetector]:
        model = RavenDynamicModel(
            integrator=self.integrator, parameter_error=self.parameter_error
        )
        detector = AnomalyDetector(
            thresholds=self.thresholds,
            fusion=self.fusion,
            decision_window=self.decision_window,
        )
        return NextStateEstimator(model), detector


@dataclass
class ReplayResult:
    """Per-lane detector verdicts over one replayed stream."""

    evaluations: np.ndarray  # (N,) int
    alerts: np.ndarray  # (N,) int
    first_alert_cycle: np.ndarray  # (N,) int, -1 when never alerted
    alert_mask: np.ndarray = field(repr=False, default=None)  # (N, T) bool

    @property
    def detected(self) -> np.ndarray:
        """Per-lane boolean: did the detector alert at all?"""
        return self.alerts > 0


def replay_detector_scalar(
    stream: CommandStream, lanes: Sequence[ReplayLaneConfig]
) -> ReplayResult:
    """Reference implementation: one scalar detector pipeline per lane."""
    pipelines = [lane.build_scalar() for lane in lanes]
    n, t = len(pipelines), len(stream)
    alert_mask = np.zeros((n, t), dtype=bool)
    for i, (estimator, detector) in enumerate(pipelines):
        for k in range(t):
            estimator.sync(stream.mpos[k])
            if stream.pedal_down[k]:
                estimate = estimator.estimate(stream.dac[k])
                alert_mask[i, k] = detector.evaluate(estimate).alert
    return _replay_result(alert_mask, [d for _, d in pipelines])


def replay_detector_batched(
    stream: CommandStream, lanes: Sequence[ReplayLaneConfig]
) -> ReplayResult:
    """All lanes at once: batched sync/predict/evaluate per cycle.

    Bit-identical to :func:`replay_detector_scalar` lane by lane (the
    batch layer's contract); per-cycle cost is amortized over N lanes.
    """
    pipelines = [lane.build_scalar() for lane in lanes]
    estimator = BatchedNextStateEstimator.from_estimators(
        [e for e, _ in pipelines]
    )
    detector = BatchedAnomalyDetector.from_detectors([d for _, d in pipelines])
    n, t = len(pipelines), len(stream)
    all_lanes = np.ones(n, dtype=bool)
    alert_mask = np.zeros((n, t), dtype=bool)
    for k in range(t):
        estimator.sync(np.broadcast_to(stream.mpos[k], (n, 3)), all_lanes)
        if stream.pedal_down[k]:
            estimate = estimator.estimate(
                np.broadcast_to(stream.dac[k], (n, 3)), all_lanes
            )
            alert_mask[:, k] = detector.evaluate(estimate, all_lanes).alert
    return ReplayResult(
        evaluations=detector.evaluations.copy(),
        alerts=detector.alerts.copy(),
        first_alert_cycle=_first_alerts(alert_mask),
        alert_mask=alert_mask,
    )


def _first_alerts(alert_mask: np.ndarray) -> np.ndarray:
    firsts = np.full(alert_mask.shape[0], -1, dtype=np.int64)
    rows, cols = np.nonzero(alert_mask)
    # np.nonzero is row-major, so the first hit per row wins.
    for row, col in zip(rows[::-1], cols[::-1]):
        firsts[row] = col
    return firsts


def _replay_result(
    alert_mask: np.ndarray, detectors: Sequence[AnomalyDetector]
) -> ReplayResult:
    return ReplayResult(
        evaluations=np.array([d.evaluations for d in detectors], dtype=np.int64),
        alerts=np.array([d.alerts for d in detectors], dtype=np.int64),
        first_alert_cycle=_first_alerts(alert_mask),
        alert_mask=alert_mask,
    )
