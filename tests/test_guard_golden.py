"""Golden pin of the scalar detector's decision stream on an attacked run.

``TestPackMatchesInline`` and the batch property tests compare two paths
with each other; this golden pins the scalar path's output bits
absolutely.  A recorded scenario-B run whose attack fires is replayed,
from just before Pedal Down to its end, through ``DetectorGuard.process``
under eight detector configurations.  Per packet the digest covers the
guard's verdict, the detection result (``alert``, ``raw_alert``, every
alarm and every margin as ``float.hex``) and every row of the estimate
as ``float.hex``; per configuration it adds the guard's final
``snapshot()``.  Each test asserts its own preconditions, so a change to
the recorded run that stops the detector from firing fails loudly
instead of leaving a golden that pins nothing.

Never re-record ``guard_decisions.json`` to make a failing run pass: a
drift here means the detector's arithmetic changed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.core import (
    AnomalyDetector,
    DetectorGuard,
    MitigationStrategy,
    NextStateEstimator,
    RavenDynamicModel,
    SafetyThresholds,
)
from repro.core.detector import DetectionResult
from repro.core.estimator import StateEstimate
from repro.experiments.batch import CommandStream
from repro.fleet.session import SessionBoard
from repro.hw.usb_packet import command_packet
from repro.robot_state import RobotState
from repro.sim.runner import run_scenario_b

pytestmark = pytest.mark.golden

#: Pedal Down comes at cycle 400; the replay starts just before it so the
#: stream crosses pedal-up packets, the engage transient and the attack.
FIRST_PACKET = 380

#: Tight enough that every configuration alerts on the attacked stream
#: (the envelope ``TestPackMatchesInline`` uses).
TIGHT = SafetyThresholds(
    motor_velocity=np.array([4.5, 4.5, 2.4]),
    motor_acceleration=np.array([360.0, 360.0, 270.0]),
    joint_velocity=np.array([0.15, 0.15, 0.03]),
)

#: name -> (strategy, parameter_error, decision_window, integrator)
CONFIGS: Dict[str, Tuple[MitigationStrategy, float, Optional[Tuple[int, int]], str]] = {
    "monitor-1.00": (MitigationStrategy.MONITOR, 1.0, None, "euler"),
    "monitor-1.03": (MitigationStrategy.MONITOR, 1.03, None, "euler"),
    "block-1.00": (MitigationStrategy.BLOCK, 1.0, None, "euler"),
    "block-1.03": (MitigationStrategy.BLOCK, 1.03, None, "euler"),
    "estop-1.00": (MitigationStrategy.BLOCK_AND_ESTOP, 1.0, None, "euler"),
    "estop-1.03": (MitigationStrategy.BLOCK_AND_ESTOP, 1.03, None, "euler"),
    "monitor-1.03-window-2-3": (MitigationStrategy.MONITOR, 1.03, (2, 3), "euler"),
    "monitor-1.03-rk4": (MitigationStrategy.MONITOR, 1.03, None, "rk4"),
}


def attacked_stream() -> CommandStream:
    """Scenario B at 20000 DAC counts, armed 300 cycles after Pedal Down."""
    trace = run_scenario_b(
        seed=5, error_dac=20000, period_ms=64, duration_s=1.2,
        attack_delay_cycles=300, raven_safety_enabled=False,
    ).trace
    return CommandStream.from_trace(trace)


def _hex(values: np.ndarray) -> List[str]:
    return [v.hex() for v in np.asarray(values, dtype=float).tolist()]


def _result_row(result: Optional[DetectionResult]) -> Any:
    if result is None:
        return None
    return [
        result.alert,
        result.raw_alert,
        sorted(result.alarms.items()),
        [(group, margin.hex()) for group, margin in sorted(result.margins.items())],
    ]


def _estimate_row(estimate: Optional[StateEstimate]) -> Any:
    if estimate is None:
        return None
    return [
        _hex(getattr(estimate, name))
        for name in (
            "motor_velocity",
            "motor_acceleration",
            "joint_velocity",
            "jpos_next",
            "jvel_next",
        )
    ]


def replay(stream: CommandStream, name: str) -> Dict[str, Any]:
    """Replay ``stream`` through one configured guard; its digest and counts."""
    strategy, error, window, integrator = CONFIGS[name]
    guard = DetectorGuard(
        estimator=NextStateEstimator(
            RavenDynamicModel(integrator=integrator, parameter_error=error)
        ),
        detector=AnomalyDetector(thresholds=TIGHT, decision_window=window),
        strategy=strategy,
    )
    board = SessionBoard()
    guard.attach(board)
    digest = hashlib.sha256()
    estop_packet = None
    for k in range(FIRST_PACKET, len(stream)):
        state = RobotState.PEDAL_DOWN if stream.pedal_down[k] else RobotState.PEDAL_UP
        packet = command_packet(state, True, [int(v) for v in stream.dac[k]])
        verdict = guard.process(packet, stream.mpos[k])
        if estop_packet is None and board.plc.estop_latched:
            estop_packet = k
        row = [
            k,
            verdict,
            guard.last_blocked,
            _result_row(guard.last_evaluation),
            _estimate_row(guard.last_estimate),
        ]
        digest.update(json.dumps(row).encode())
        digest.update(b"\n")
    snapshot = guard.snapshot()
    digest.update(json.dumps(snapshot, sort_keys=True).encode())
    stats = guard.stats
    return {
        "packets": len(stream) - FIRST_PACKET,
        "evaluated": stats.packets_evaluated,
        "alerts": stats.alerts,
        "blocked": stats.blocked,
        "estop_packet": estop_packet,
        "sha256": digest.hexdigest(),
    }


def decisions(stream: CommandStream) -> Dict[str, Dict[str, Any]]:
    return {name: replay(stream, name) for name in CONFIGS}


def check_preconditions(actual: Dict[str, Dict[str, Any]]) -> None:
    for name, row in actual.items():
        strategy = CONFIGS[name][0]
        assert row["alerts"] > 0, f"{name}: the detector never alerted"
        if strategy is MitigationStrategy.BLOCK:
            assert row["blocked"] > 0, f"{name}: nothing was blocked"
        if strategy is MitigationStrategy.BLOCK_AND_ESTOP:
            assert row["estop_packet"] is not None, f"{name}: the PLC never latched"


@pytest.fixture(scope="module")
def stream() -> CommandStream:
    return attacked_stream()


class TestGuardDecisionGolden:
    def test_decision_stream_matches_golden(self, golden, stream):
        actual = decisions(stream)
        check_preconditions(actual)
        golden.check("guard_decisions", actual)

    def test_telemetry_on_gives_the_same_stream_and_counts_every_call(
        self, golden, stream, monkeypatch, tmp_path
    ):
        # REPRO_OBS only observes: the digest must not move, and the
        # predict and evaluate histograms must count every call.
        from repro.obs.runtime import get_runtime, reset_runtime

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        reset_runtime()
        try:
            actual = decisions(stream)
            registry = get_runtime().registry
            predicts = registry.histogram("repro_model_predict_seconds").count
            margins = registry.histogram("repro_detector_margin_ratio").count
        finally:
            reset_runtime()
        check_preconditions(actual)
        golden.check("guard_decisions", actual)
        evaluated = sum(row["evaluated"] for row in actual.values())
        assert predicts == evaluated
        assert margins == evaluated
