"""Insertion of the detector into the command path (Figure 7(b)).

The :class:`DetectorGuard` is installed as the guard hook of the USB
interface board — "the last computational component before the motor
controllers" — so it sees every DAC command *after* any malicious
modification (scenario B) and after the PID has reacted to malicious user
inputs (scenario A), but *before* execution on the physical robot.

Per intercepted command packet the guard:

1. reads the current encoder counts (the same quantized measurements the
   control software sees) and syncs the estimator;
2. while the robot is engaged (Pedal Down), runs the one-step dynamic-model
   prediction under the packet's DAC values and evaluates the fused alarm;
3. applies the configured mitigation: monitor, block (robot holds the last
   safe command), or block + PLC E-STOP.

A :class:`GuardSupervisor` wraps a guard for *in-situ* deployment, where
the measurement stream is not perfect: it screens encoder readings for
plausibility, coasts the estimator on the model's own prediction when a
measurement is missing or implausible, caps consecutive coasts, and runs a
staleness watchdog that escalates to a PLC E-STOP when command packets stop
arriving entirely.  Its health state machine:

    NOMINAL --implausible/missing measurement--> COASTING
    COASTING --trusted measurement--> NOMINAL
    COASTING --max_coast_cycles exceeded--> STALE --> (E-STOP)
    any state --staleness_timeout_cycles without packets--> STALE --> (E-STOP)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.control.state_machine import RobotState
from repro.core.detector import AnomalyDetector, DetectionResult
from repro.core.estimator import (
    NextStateEstimator,
    StateEstimate,
    hex_vector,
    unhex_vector,
)
from repro.core.mitigation import MitigationStrategy
from repro.errors import DetectorError
from repro.hw.usb_board import UsbBoard
from repro.hw.usb_packet import CommandPacket
from repro.obs.runtime import get_runtime
from repro.obs.timing import Stopwatch


class GuardHealth(enum.Enum):
    """Typed health state of the detector runtime."""

    #: Trusted measurements; full detection fidelity.
    NOMINAL = "nominal"
    #: Running on the model's own prediction (missing/implausible
    #: measurements); detection continues at reduced fidelity.
    COASTING = "coasting"
    #: Measurements or packets stopped arriving for too long; the
    #: supervisor no longer trusts its state estimate.
    STALE = "stale"
    #: The supervisor escalated to a PLC E-STOP.
    ESTOPPED = "estopped"

    # Members are singletons compared by identity, so an identity hash is
    # consistent with equality; ``Enum``'s own hashes the member name in
    # Python, which dominated a lookup in :data:`HEALTH_VALUE`.
    __hash__ = object.__hash__


#: ``health.value`` of every :class:`GuardHealth`, as a table: the per-row
#: spelling for transition logs and per-frame health labels.
HEALTH_VALUE: Dict[GuardHealth, str] = {health: health.value for health in GuardHealth}

#: How many health transitions :class:`GuardStats` keeps (the newest);
#: older ones are counted in ``transitions_dropped``.  The log is part of
#: every session checkpoint, so an unbounded one made checkpoint cost,
#: payload size and memory grow with session age.  Same bound as a fleet
#: session's recent-decision ring.
MAX_HEALTH_TRANSITIONS = 64


@dataclass
class AlertEvent:
    """One detector alert, for post-run analysis."""

    cycle: int
    state: RobotState
    result: DetectionResult
    blocked: bool


def _result_to_dict(result: DetectionResult) -> Dict[str, Any]:
    """Bit-exact serialization of a :class:`DetectionResult` (margins are
    float64, stored as ``float.hex()`` so JSON round-trips cannot drift)."""
    return {
        "alert": result.alert,
        "alarms": dict(result.alarms),
        "margins": {k: float(v).hex() for k, v in result.margins.items()},
        "raw_alert": result.raw_alert,
    }


def _result_from_dict(data: Dict[str, Any]) -> DetectionResult:
    return DetectionResult(
        alert=data["alert"],
        alarms=dict(data["alarms"]),
        margins={k: float.fromhex(v) for k, v in data["margins"].items()},
        raw_alert=data["raw_alert"],
    )


@dataclass
class GuardStats:
    """Counters accumulated over a run."""

    packets_seen: int = 0
    packets_evaluated: int = 0
    alerts: int = 0
    blocked: int = 0
    #: Alerts raised after ``max_recorded_alerts`` was reached — counted
    #: here instead of silently vanishing from ``alert_events``.
    alerts_dropped: int = 0
    #: Cycles survived on the model's own prediction (degraded mode).
    coasted_cycles: int = 0
    #: Measurements rejected by the supervisor's plausibility screen.
    implausible_measurements: int = 0
    #: Supervisor-initiated E-STOP escalations (stale measurements).
    stale_escalations: int = 0
    #: Current detector-runtime health (NOMINAL without a supervisor).
    health: GuardHealth = GuardHealth.NOMINAL
    #: ``(cycle, health)`` transition log, in order: the newest
    #: :data:`MAX_HEALTH_TRANSITIONS` transitions.
    health_transitions: List[Tuple[int, GuardHealth]] = field(default_factory=list)
    alert_events: List[AlertEvent] = field(default_factory=list)
    #: Transitions that fell off the front of ``health_transitions``.
    transitions_dropped: int = 0

    @property
    def alerted(self) -> bool:
        """Whether any alert was raised."""
        return self.alerts > 0

    @property
    def first_alert_cycle(self) -> Optional[int]:
        """Cycle index of the first alert (None if never alerted)."""
        return self.alert_events[0].cycle if self.alert_events else None

    def summary(self) -> dict:
        """Flat summary of all counters (reports, logs, robustness sweeps)."""
        return {
            "packets_seen": self.packets_seen,
            "packets_evaluated": self.packets_evaluated,
            "alerts": self.alerts,
            "alerts_recorded": len(self.alert_events),
            "alerts_dropped": self.alerts_dropped,
            "blocked": self.blocked,
            "coasted_cycles": self.coasted_cycles,
            "implausible_measurements": self.implausible_measurements,
            "stale_escalations": self.stale_escalations,
            "health": self.health.value,
            "first_alert_cycle": self.first_alert_cycle,
        }

    def record_health(self, cycle: int, health: GuardHealth) -> None:
        """Transition to ``health`` (no-op when already there)."""
        if health is self.health:
            return
        self.health = health
        self.health_transitions.append((cycle, health))
        if len(self.health_transitions) > MAX_HEALTH_TRANSITIONS:
            del self.health_transitions[0]
            self.transitions_dropped += 1

    def alert_events_snapshot(self) -> List[Dict[str, Any]]:
        """The ``alert_events`` entry of :meth:`snapshot`."""
        return [
            {
                "cycle": event.cycle,
                "state": event.state.name,
                "result": _result_to_dict(event.result),
                "blocked": event.blocked,
            }
            for event in self.alert_events
        ]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every counter and event log.

        ``transitions_dropped`` is written only once it is non-zero, so a
        log that never overflowed keeps the payload it had before the cap.
        """
        data = {
            "packets_seen": self.packets_seen,
            "packets_evaluated": self.packets_evaluated,
            "alerts": self.alerts,
            "blocked": self.blocked,
            "alerts_dropped": self.alerts_dropped,
            "coasted_cycles": self.coasted_cycles,
            "implausible_measurements": self.implausible_measurements,
            "stale_escalations": self.stale_escalations,
            "health": self.health.value,
            "health_transitions": [
                [cycle, HEALTH_VALUE[health]]
                for cycle, health in self.health_transitions
            ],
            "alert_events": self.alert_events_snapshot(),
        }
        if self.transitions_dropped:
            data["transitions_dropped"] = self.transitions_dropped
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "GuardStats":
        """Rebuild the exact stats object :meth:`snapshot` captured.

        A log longer than :data:`MAX_HEALTH_TRANSITIONS` (written before
        the cap) keeps its newest entries; the rest are counted as
        dropped, exactly as if the cap had been there all along.
        """
        transitions = data["health_transitions"]
        excess = max(0, len(transitions) - MAX_HEALTH_TRANSITIONS)
        return cls(
            packets_seen=data["packets_seen"],
            packets_evaluated=data["packets_evaluated"],
            alerts=data["alerts"],
            blocked=data["blocked"],
            alerts_dropped=data["alerts_dropped"],
            coasted_cycles=data["coasted_cycles"],
            implausible_measurements=data["implausible_measurements"],
            stale_escalations=data["stale_escalations"],
            health=GuardHealth(data["health"]),
            health_transitions=[
                (cycle, GuardHealth(value)) for cycle, value in transitions[excess:]
            ],
            alert_events=[
                AlertEvent(
                    cycle=event["cycle"],
                    state=RobotState[event["state"]],
                    result=_result_from_dict(event["result"]),
                    blocked=event["blocked"],
                )
                for event in data["alert_events"]
            ],
            transitions_dropped=data.get("transitions_dropped", 0) + excess,
        )


class DetectorGuard:
    """The dynamic-model detector wired into the USB board's guard hook."""

    def __init__(
        self,
        estimator: NextStateEstimator,
        detector: AnomalyDetector,
        strategy: MitigationStrategy = MitigationStrategy.MONITOR,
        max_recorded_alerts: int = 1000,
        escalate_after_blocks: int = 50,
    ) -> None:
        """Create the guard.

        ``escalate_after_blocks``: in BLOCK mode, a run of this many
        *consecutive* blocked commands (the controller keeps producing
        alarming commands, so holding the safe state is not converging)
        escalates to a PLC E-STOP — blocking alone has no recovery path
        when the alarm condition persists.
        """
        self.estimator = estimator
        self.detector = detector
        self.strategy = strategy
        self.max_recorded_alerts = max_recorded_alerts
        self.escalate_after_blocks = escalate_after_blocks
        self.stats = GuardStats()
        self._board: Optional[UsbBoard] = None
        self._cycle = 0
        self._block_streak = 0
        # Batched execution hook (the fleet supervisor's lane pack, see
        # repro.fleet.supervisor): when set, process() records the packet
        # with the sink instead of evaluating inline; the sink later runs
        # the numeric work through the batched estimator and calls
        # _finish_evaluation() with the results.
        self._batch_sink = None
        # Forensic stash read by the flight recorder each control cycle:
        # the most recent evaluation, the estimate it was based on, the
        # DAC values the guard actually saw (post-tamper, in scenario B
        # they differ from what the controller commanded), and whether
        # the command was blocked.  All None/False on unevaluated cycles.
        self.last_evaluation: Optional[DetectionResult] = None
        self.last_estimate: Optional[StateEstimate] = None
        self.last_dac: Optional[Tuple[int, ...]] = None
        self.last_blocked = False
        # Telemetry (REPRO_OBS): guard-decision counters and evaluation
        # latency.  None when disabled — the per-packet path then pays
        # only is-None branches, keeping the disabled build overhead-free.
        obs = get_runtime()
        if obs.enabled:
            registry = obs.registry
            self._obs_packets = registry.counter(
                "repro_guard_packets_total", "command packets seen"
            )
            self._obs_alerts = registry.counter(
                "repro_guard_alerts_total", "detector alerts acted on"
            )
            self._obs_blocked = registry.counter(
                "repro_guard_blocked_total", "command packets blocked"
            )
            self._obs_eval_seconds = registry.histogram(
                "repro_guard_eval_seconds",
                "estimator + detector latency per evaluated packet",
            )
        else:
            self._obs_packets = None
            self._obs_alerts = None
            self._obs_blocked = None
            self._obs_eval_seconds = None

    def attach(self, board: UsbBoard) -> None:
        """Install this guard on a USB board."""
        self._board = board
        board.guard = self

    def reset(self) -> None:
        """Clear per-run state (estimator memory, detector counters and
        statistics)."""
        self.estimator.reset()
        self.detector.reset_counters()
        self.stats = GuardStats()
        self._cycle = 0
        self._block_streak = 0
        self.last_evaluation = None
        self.last_estimate = None
        self.last_dac = None
        self.last_blocked = False

    def tick_cycle(self, cycle: int) -> None:
        """Per-control-cycle hook from the simulation loop.

        The bare guard has no time-based behaviour; the supervisor
        overrides this with its staleness watchdog.
        """

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of all resumable guard state.

        Captures the cycle counter, block streak, statistics, estimator
        memory, and detector counters/decision window.  Configuration
        (strategy, thresholds, model parameters) is *not* state — resume
        reconstructs the guard from the same config, then restores this.
        """
        return {
            "cycle": self._cycle,
            "block_streak": self._block_streak,
            "stats": self.stats.snapshot(),
            "estimator": self.estimator.snapshot(),
            "detector": self.detector.snapshot(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot` — resume bit-identically.

        The forensic stash (``last_evaluation`` etc.) is transient
        per-packet output, not resumable state; it is cleared here and
        repopulated on the next processed packet.
        """
        self._cycle = state["cycle"]
        self._block_streak = state["block_streak"]
        self.stats = GuardStats.from_snapshot(state["stats"])
        self.estimator.restore(state["estimator"])
        self.detector.restore(state["detector"])
        self.last_evaluation = None
        self.last_estimate = None
        self.last_dac = None
        self.last_blocked = False

    def read_measurement(self) -> np.ndarray:
        """The motor-shaft measurement the control software also sees."""
        if self._board is None:
            raise DetectorError("guard not attached to a USB board")
        return self._board.encoders.to_radians(self._board.encoder_counts()[:3])

    # -- guard protocol (called by UsbBoard.fd_write) ------------------------------

    def __call__(self, packet: CommandPacket, raw: bytes) -> bool:
        """Inspect one command packet; return True to allow execution."""
        return self.process(packet, self.read_measurement())

    def process(
        self, packet: CommandPacket, mpos: Optional[np.ndarray]
    ) -> bool:
        """Evaluate one packet against measurement ``mpos``.

        ``mpos=None`` means "no trusted measurement this cycle": the
        estimator coasts on the model's own prediction instead of syncing
        (the supervisor's degraded mode).
        """
        if self._board is None:
            raise DetectorError("guard not attached to a USB board")
        self._begin_packet(packet)
        if self._batch_sink is not None:
            # Batched execution: the estimator sync/coast/estimate and the
            # detector evaluation run later, batched across all lanes, in
            # the same per-lane order they would here.  The provisional
            # True keeps the DAC latch deferred until the sink decides.
            if mpos is None:
                self.stats.coasted_cycles += 1
            return self._batch_sink.capture(self, packet, mpos)

        if mpos is not None:
            # Same measurement stream the control software uses.
            self.estimator.sync(mpos)
        else:
            self.estimator.coast()
            self.stats.coasted_cycles += 1

        if packet.state is not RobotState.PEDAL_DOWN:
            # Brakes engaged: commands have no physical effect, and the
            # model's at-rest assumptions hold; nothing to evaluate.
            return True
        if not self.estimator.synced:
            # Coasting before the first measurement: no state to predict
            # from, so nothing can be evaluated yet.
            return True

        if self._obs_eval_seconds is not None:
            with Stopwatch() as probe:
                estimate = self.estimator.estimate(packet.dac_values[:3])
                result = self.detector.evaluate(estimate)
            self._obs_eval_seconds.observe(probe.elapsed_s)
        else:
            estimate = self.estimator.estimate(packet.dac_values[:3])
            result = self.detector.evaluate(estimate)
        return self._finish_evaluation(packet, estimate, result)

    def _begin_packet(self, packet: CommandPacket) -> None:
        """Per-packet bookkeeping shared by the inline and batched paths."""
        self._cycle += 1
        self.stats.packets_seen += 1
        self.last_evaluation = None
        self.last_estimate = None
        self.last_dac = tuple(packet.dac_values)
        self.last_blocked = False
        if self._obs_packets is not None:
            self._obs_packets.inc()

    def _finish_evaluation(
        self, packet: CommandPacket, estimate: StateEstimate, result: DetectionResult
    ) -> bool:
        """Post-evaluation decision chain (alerting, blocking, E-STOP).

        Shared verbatim between the inline path above and the batched
        sink, so mitigation semantics cannot drift between the two.
        """
        self.stats.packets_evaluated += 1
        self.last_estimate = estimate
        self.last_evaluation = result
        if not result.alert:
            self._block_streak = 0
            return True

        self.stats.alerts += 1
        if self._obs_alerts is not None:
            self._obs_alerts.inc()
        blocked = self.strategy.blocks
        self.last_blocked = blocked
        if blocked:
            self.stats.blocked += 1
            self._block_streak += 1
            if self._obs_blocked is not None:
                self._obs_blocked.inc()
        if len(self.stats.alert_events) < self.max_recorded_alerts:
            self.stats.alert_events.append(
                AlertEvent(
                    cycle=self._cycle,
                    state=packet.state,
                    result=result,
                    blocked=blocked,
                )
            )
        else:
            self.stats.alerts_dropped += 1
        if self.strategy.stops_robot:
            self._board.plc.trigger_estop("dynamic-model detector alert")
        elif blocked and self._block_streak >= self.escalate_after_blocks:
            self._board.plc.trigger_estop(
                "dynamic-model detector alert persisted; escalating to E-STOP"
            )
        return not blocked


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning of the degraded-mode supervisor.

    ``implausible_jump_rad``: largest credible motor-shaft angle change
    between consecutive measurements.  Real motion is bounded by the motor
    velocity limits (~15 rad/s x 1 ms = 0.015 rad/cycle), so anything
    orders of magnitude above it is an encoder glitch, not motion.

    ``max_coast_cycles``: consecutive model-only cycles tolerated before
    the state estimate is declared stale.  Model error accumulates while
    coasting, so this bounds how long detection runs open-loop.

    ``staleness_timeout_cycles``: control cycles without *any* command
    packet (after the first) before the supervisor assumes the control
    software or measurement path is dead.

    ``estop_on_stale``: whether STALE escalates to a PLC E-STOP (the safe
    default on a physical robot) or only records the health transition
    (useful for measurement campaigns).
    """

    implausible_jump_rad: float = 0.5
    max_coast_cycles: int = 16
    staleness_timeout_cycles: int = 64
    estop_on_stale: bool = True

    def to_dict(self) -> dict:
        return {
            "implausible_jump_rad": self.implausible_jump_rad,
            "max_coast_cycles": self.max_coast_cycles,
            "staleness_timeout_cycles": self.staleness_timeout_cycles,
            "estop_on_stale": self.estop_on_stale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SupervisorConfig":
        return cls(**data)


class GuardSupervisor:
    """Degraded-mode runtime around a :class:`DetectorGuard`.

    Installs *itself* as the USB board's guard hook and screens every
    measurement before the wrapped guard sees it:

    - **plausibility gate** — a measurement that is non-finite or jumps
      more than ``implausible_jump_rad`` from the last trusted one is
      rejected; the guard coasts on the model's own prediction instead
      (health: COASTING), so one glitched encoder read neither corrupts
      the state estimate nor trips the alarm chain;
    - **coast cap** — after ``max_coast_cycles`` consecutive rejections
      the state estimate is stale (health: STALE) and, by default, the
      supervisor latches the PLC E-STOP: detection fidelity can no longer
      be vouched for, which on a surgical robot means *stop*;
    - **staleness watchdog** — :meth:`tick_cycle` (driven by the control
      loop) escalates the same way when command packets stop arriving
      entirely, e.g. a crashed control process or severed USB link.
    """

    def __init__(
        self,
        guard: DetectorGuard,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        self.guard = guard
        self.config = config or SupervisorConfig()
        self._board: Optional[UsbBoard] = None
        self._last_mpos: Optional[np.ndarray] = None
        self._coast_streak = 0
        self._cycle = 0
        self._last_packet_cycle: Optional[int] = None

    # -- delegation ---------------------------------------------------------------

    @property
    def stats(self) -> GuardStats:
        """The wrapped guard's statistics (shared object)."""
        return self.guard.stats

    @property
    def health(self) -> GuardHealth:
        """Current health state."""
        return self.stats.health

    @property
    def last_evaluation(self) -> Optional[DetectionResult]:
        """The wrapped guard's most recent evaluation (flight recorder)."""
        return self.guard.last_evaluation

    @property
    def last_estimate(self) -> Optional[StateEstimate]:
        """The wrapped guard's most recent state estimate."""
        return self.guard.last_estimate

    @property
    def last_dac(self) -> Optional[Tuple[int, ...]]:
        """DAC values of the last packet the wrapped guard inspected."""
        return self.guard.last_dac

    @property
    def last_blocked(self) -> bool:
        """Whether the last inspected packet was blocked."""
        return self.guard.last_blocked

    def attach(self, board: UsbBoard) -> None:
        """Install the supervisor (not the bare guard) on a USB board."""
        self._board = board
        self.guard._board = board
        board.guard = self

    def reset(self) -> None:
        """Clear supervisor and guard per-run state."""
        self.guard.reset()
        self._last_mpos = None
        self._coast_streak = 0
        self._cycle = 0
        self._last_packet_cycle = None

    #: Schema version of :meth:`snapshot` payloads.  Bump on any layout
    #: change so stores reject snapshots they cannot faithfully restore.
    SNAPSHOT_VERSION = 1

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of supervisor + wrapped guard state."""
        return {
            "version": self.SNAPSHOT_VERSION,
            "config": self.config.to_dict(),
            "cycle": self._cycle,
            "last_packet_cycle": self._last_packet_cycle,
            "coast_streak": self._coast_streak,
            "last_mpos": hex_vector(self._last_mpos),
            "guard": self.guard.snapshot(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot` — resume bit-identically.

        Raises :class:`ValueError` when the snapshot schema version or the
        supervisor config does not match: restoring state produced under a
        different plausibility gate or coast cap would silently change
        every subsequent health decision.
        """
        if state["version"] != self.SNAPSHOT_VERSION:
            raise ValueError(
                f"supervisor snapshot version {state['version']} != "
                f"supported {self.SNAPSHOT_VERSION}"
            )
        if state["config"] != self.config.to_dict():
            raise ValueError(
                "supervisor snapshot was taken under a different config; "
                "rebuild the supervisor with the stored config to restore"
            )
        self._cycle = state["cycle"]
        self._last_packet_cycle = state["last_packet_cycle"]
        self._coast_streak = state["coast_streak"]
        self._last_mpos = unhex_vector(state["last_mpos"])
        self.guard.restore(state["guard"])

    # -- degraded-mode machinery -------------------------------------------------

    def _plausible(self, mpos: np.ndarray) -> bool:
        """Finite, and within ``implausible_jump_rad`` of the last trusted
        measurement on every axis.

        ``np.max(np.abs(mpos - last)) <= limit`` on Python floats: the
        same subtraction per axis, and a NaN jump fails the test, as the
        NaN that ``np.max`` propagates does.
        """
        values = mpos.tolist()
        if not all(map(isfinite, values)):
            return False
        if self._last_mpos is None:
            return True
        limit = self.config.implausible_jump_rad
        for value, last in zip(values, self._last_mpos.tolist()):
            if not abs(value - last) <= limit:
                return False
        return True

    def _escalate_stale(self, reason: str) -> None:
        self.stats.record_health(self._cycle, GuardHealth.STALE)
        self.stats.stale_escalations += 1
        if self.config.estop_on_stale and self._board is not None:
            self._board.plc.trigger_estop(reason)
            self.stats.record_health(self._cycle, GuardHealth.ESTOPPED)

    def tick_cycle(self, cycle: int) -> None:
        """Staleness watchdog, driven once per control cycle by the rig."""
        self._cycle = cycle
        if self._last_packet_cycle is None:
            return  # no packet seen yet: the software may still be starting
        if self.stats.health in (GuardHealth.STALE, GuardHealth.ESTOPPED):
            return
        if cycle - self._last_packet_cycle > self.config.staleness_timeout_cycles:
            self._escalate_stale(
                "detector supervisor: command/measurement stream stale"
            )

    # -- guard protocol -----------------------------------------------------------

    def __call__(self, packet: CommandPacket, raw: bytes) -> bool:
        """Screen the measurement, then delegate to the wrapped guard."""
        if self._board is None:
            raise DetectorError("supervisor not attached to a USB board")
        self._last_packet_cycle = self._cycle
        if self.stats.health is GuardHealth.ESTOPPED:
            # Read no encoders post-escalation: the encoder-noise RNG must
            # not advance on cycles the PLC already holds.
            return self._reject_estopped(packet)
        return self.process(packet, self.guard.read_measurement())

    def process(self, packet: CommandPacket, mpos: Optional[np.ndarray]) -> bool:
        """Measurement-supplied entry point (fleet/telemetry deployments).

        ``mpos`` is the motor-shaft measurement accompanying this packet,
        or ``None`` when the telemetry frame carried no measurement; both
        run through the same plausibility gate / coast / escalation
        machinery as the on-board path.
        """
        self._last_packet_cycle = self._cycle
        if self.stats.health is GuardHealth.ESTOPPED:
            return self._reject_estopped(packet)

        if mpos is not None and self._plausible(mpos):
            self._last_mpos = mpos
            self._coast_streak = 0
            if self.stats.health is GuardHealth.COASTING:
                self.stats.record_health(self._cycle, GuardHealth.NOMINAL)
            return self.guard.process(packet, mpos)

        # Degraded mode: reject the measurement, coast on the model.  Only
        # an actual reading counts as implausible; a missing one is pure
        # coasting.
        if mpos is not None:
            self.stats.implausible_measurements += 1
        self._coast_streak += 1
        self.stats.record_health(self._cycle, GuardHealth.COASTING)
        if self._coast_streak > self.config.max_coast_cycles:
            self._escalate_stale(
                "detector supervisor: measurements implausible for "
                f"{self._coast_streak} consecutive cycles"
            )
            return not self.config.estop_on_stale
        return self.guard.process(packet, None)

    def _reject_estopped(self, packet: CommandPacket) -> bool:
        # Post-escalation packets are not evaluated; the PLC holds the
        # robot and the operator must clear the E-STOP.  Clear the
        # forensic stash so the flight recorder does not attribute a
        # stale evaluation to these cycles.
        self.guard.last_evaluation = None
        self.guard.last_estimate = None
        self.guard.last_dac = tuple(packet.dac_values)
        self.guard.last_blocked = True
        return False
