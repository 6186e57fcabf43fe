"""High-level experiment entry points.

These functions wrap :class:`~repro.sim.rig.SurgicalRig` for the workflows
the evaluation needs:

- fault-free teleoperation runs (threshold training, FPR measurement);
- scenario-A / scenario-B attack runs at chosen error values and
  activation periods, with selectable protection (none / RAVEN only /
  RAVEN + dynamic-model detector in monitor or mitigation mode), taken in
  steps by :class:`AttackRun` so a campaign can fork one pre-attack
  prefix for many cells;
- model-validation runs where the dynamic model executes in parallel with
  the plant under identical control inputs (Figure 8).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import constants
from repro.attacks.injection import (
    AttackRecord,
    DacOffsetInjection,
    Injection,
    UserInputInjection,
    build_scenario_a_library,
    build_scenario_b_library,
)
from repro.attacks.malware import PedalDownTrigger
from repro.control.state_machine import RobotState
from repro.core.detector import AnomalyDetector, FusionRule
from repro.core.dynamic_model import RavenDynamicModel
from repro.core.estimator import NextStateEstimator
from repro.core.mitigation import MitigationStrategy
from repro.core.pipeline import DetectorGuard
from repro.core.thresholds import SafetyThresholds, ThresholdLearner
from repro.errors import AttackConfigError
from repro.hw.usb_board import UsbBoard
from repro.hw.usb_packet import CommandPacket
from repro.obs.metrics import DEFAULT_TIME_BUCKETS_S, Histogram
from repro.obs.timing import Stopwatch
from repro.sim.rig import RigConfig, SurgicalRig
from repro.sim.trace import RunTrace

#: Parameter error of the detector's dynamic model relative to the true
#: plant — the paper's model coefficients come from manual tuning, so a
#: few percent of mismatch is realistic.
DEFAULT_MODEL_PARAMETER_ERROR = 1.03

#: Attack timing defaults: wait this long after Pedal Down before firing.
DEFAULT_ATTACK_DELAY_CYCLES = 400


def make_detector_guard(
    thresholds: Optional[SafetyThresholds],
    strategy: MitigationStrategy = MitigationStrategy.MONITOR,
    parameter_error: float = DEFAULT_MODEL_PARAMETER_ERROR,
    integrator: str = "euler",
    fusion: FusionRule = FusionRule.ALL,
) -> DetectorGuard:
    """Assemble model + estimator + detector into a USB-board guard."""
    model = RavenDynamicModel(
        integrator=integrator, parameter_error=parameter_error
    )
    estimator = NextStateEstimator(model)
    detector = AnomalyDetector(thresholds=thresholds, fusion=fusion)
    return DetectorGuard(estimator, detector, strategy=strategy)


def run_fault_free(
    seed: int = 0,
    trajectory_name: str = "circle",
    duration_s: float = 2.5,
    guard: Optional[DetectorGuard] = None,
    raven_safety_enabled: bool = True,
    **config_kwargs,
) -> RunTrace:
    """One attack-free teleoperated run."""
    config = RigConfig(
        seed=seed,
        duration_s=duration_s,
        trajectory_name=trajectory_name,
        raven_safety_enabled=raven_safety_enabled,
        **config_kwargs,
    )
    rig = SurgicalRig(config, guard=guard)
    return rig.run()


# ---------------------------------------------------------------------------
# Threshold training
# ---------------------------------------------------------------------------


class CalibrationGuard:
    """A guard that feeds a :class:`ThresholdLearner` instead of detecting."""

    def __init__(self, estimator: NextStateEstimator, learner: ThresholdLearner):
        self.estimator = estimator
        self.learner = learner
        self._board: Optional[UsbBoard] = None

    def attach(self, board: UsbBoard) -> None:
        self._board = board
        # Observe-only hook: always admits the packet, so installing it
        # outside repro.core.pipeline does not bypass any mitigation.
        board.guard = self  # repro: allow[RPR001]

    def __call__(self, packet: CommandPacket, raw: bytes) -> bool:
        mpos = self._board.encoders.to_radians(self._board.encoder_counts()[:3])
        self.estimator.sync(mpos)
        if packet.state is RobotState.PEDAL_DOWN:
            self.learner.observe(self.estimator.estimate(packet.dac_values[:3]))
        return True


class _SampleBuffer:
    """Collects raw per-cycle estimates for one calibration run."""

    def __init__(self) -> None:
        self.motor_velocity: list = []
        self.motor_acceleration: list = []
        self.joint_velocity: list = []

    def observe(self, estimate) -> None:
        self.motor_velocity.append(estimate.motor_velocity)
        self.motor_acceleration.append(estimate.motor_acceleration)
        self.joint_velocity.append(estimate.joint_velocity)

    def stacked(self) -> dict:
        """``(cycles, 3)`` instant-rate traces, one array per group."""
        return {
            group: np.asarray(rows, dtype=float).reshape(-1, 3)
            for group, rows in (
                ("motor_velocity", self.motor_velocity),
                ("motor_acceleration", self.motor_acceleration),
                ("joint_velocity", self.joint_velocity),
            )
        }


def collect_calibration_samples(
    seed: int,
    trajectory_name: str = "circle",
    duration_s: float = 2.0,
    parameter_error: float = DEFAULT_MODEL_PARAMETER_ERROR,
    integrator: str = "euler",
) -> dict:
    """One fault-free calibration run's stacked instant-rate traces.

    The unit of work for threshold training: a deterministic function of
    its arguments, so runs can execute in any process and merge in seed
    order with results identical to a serial loop.  Returns a dict of
    ``(cycles, 3)`` arrays keyed by variable group, ready for
    :meth:`~repro.core.thresholds.ThresholdLearner.observe_run`.
    """
    model = RavenDynamicModel(
        integrator=integrator, parameter_error=parameter_error
    )
    buffer = _SampleBuffer()
    guard = CalibrationGuard(NextStateEstimator(model), buffer)
    config = RigConfig(
        seed=seed, duration_s=duration_s, trajectory_name=trajectory_name
    )
    rig = SurgicalRig(config)
    guard.attach(rig.usb_board)
    rig.run()
    return buffer.stacked()


def _calibration_worker(task: dict) -> dict:
    """Process-pool entry point for one calibration run."""
    return collect_calibration_samples(**task)


def train_thresholds(
    num_runs: int = 60,
    duration_s: float = 2.0,
    percentile: Optional[float] = None,
    margin: float = 1.0,
    parameter_error: float = DEFAULT_MODEL_PARAMETER_ERROR,
    integrator: str = "euler",
    base_seed: int = 10_000,
    jobs: int = 1,
    progress=None,
    injector=None,
) -> SafetyThresholds:
    """Learn detection thresholds from fault-free runs.

    The paper uses 600 runs over two trajectory families; the default here
    is scaled down for quick use — pass
    ``num_runs=repro.constants.THRESHOLD_TRAINING_RUNS`` for paper scale.
    Runs alternate between the two paper trajectories (circle, suturing)
    with per-run randomized parameters for movement variability.

    The runs go through the engine's :func:`iter_tasks` on ``jobs``
    worker processes (``1``, the default, is its in-process loop);
    samples merge in seed order, so the fitted thresholds do not depend
    on ``jobs``.  ``injector`` threads a
    :class:`repro.testing.faults.ChaosInjector` into the fan-out so the
    chaos suite can exercise the calibration path too.
    """
    kwargs = {} if percentile is None else {"percentile": percentile}
    learner = ThresholdLearner(margin=margin, **kwargs)
    families = ("circle", "suturing")
    tasks = [
        dict(
            seed=base_seed + i,
            trajectory_name=families[i % len(families)],
            duration_s=duration_s,
            parameter_error=parameter_error,
            integrator=integrator,
        )
        for i in range(num_runs)
    ]
    # Deferred import: the engine lives in the experiments layer and
    # must not be a hard dependency of the simulator.
    from repro.experiments.parallel import iter_tasks

    for batch in iter_tasks(
        _calibration_worker,
        tasks,
        jobs=jobs,
        progress=progress,
        label="threshold training",
        injector=injector,
    ):
        learner.observe_run(**batch)
    return learner.fit()


# ---------------------------------------------------------------------------
# Attack runs
# ---------------------------------------------------------------------------


@dataclass
class AttackRunResult:
    """Trace plus attack bookkeeping for one run."""

    trace: RunTrace
    record: AttackRecord
    guard: Optional[DetectorGuard] = None

    @property
    def model_detected(self) -> bool:
        """Whether the dynamic-model detector alerted during the run."""
        return self.guard is not None and self.guard.stats.alerted


def attack_payload(scenario: str, seed: int, error_value: float, channel: int = 0):
    """The injection payload of one scenario-A or scenario-B run.

    Scenario B adds ``error_value`` DAC counts to ``channel``; scenario A
    adds ``error_value`` mm per console packet along a direction drawn
    from the run seed.
    """
    if scenario == "B":
        return DacOffsetInjection(offset_counts=int(error_value), channel=channel)
    direction_rng = np.random.default_rng(seed + 777)
    return UserInputInjection(error_m=float(error_value) * 1e-3, rng=direction_rng)


class AttackRun:
    """One attack run, taken in steps: build, run to arming, arm, finish.

    :meth:`run_to_arming` stops at the cycle boundary before the trigger's
    first active cycle.  Everything simulated up to there is independent
    of the payload and the activation period, which :meth:`arm` only then
    sets.  :func:`run_scenario_a` and :func:`run_scenario_b` take the four
    steps in a row.  A campaign runs one prefix per seed and replica kind
    and arms a :meth:`fork` of it for every cell.
    """

    def __init__(self, rig: SurgicalRig, injection: Injection) -> None:
        self.rig = rig
        self.injection = injection

    @classmethod
    def build(
        cls,
        scenario: str,
        seed: int,
        duration_s: float = 2.5,
        guard: Optional[DetectorGuard] = None,
        raven_safety_enabled: bool = True,
        attack_delay_cycles: int = DEFAULT_ATTACK_DELAY_CYCLES,
        trajectory_name: str = "circle",
        **config_kwargs,
    ) -> "AttackRun":
        """A rig with scenario ``scenario``'s library preloaded, unarmed."""
        trigger = PedalDownTrigger.for_pedal_down(delay_cycles=attack_delay_cycles)
        build_library = (
            build_scenario_b_library if scenario == "B" else build_scenario_a_library
        )
        library = build_library(trigger, None)
        config = RigConfig(
            seed=seed,
            duration_s=duration_s,
            trajectory_name=trajectory_name,
            raven_safety_enabled=raven_safety_enabled,
            **config_kwargs,
        )
        rig = SurgicalRig(config, preload_libraries=[library], guard=guard)
        return cls(rig, library.state)

    def run_to_arming(self) -> None:
        """Run until the trigger is armed, or to the end if it never is."""
        trigger = self.injection.trigger
        self.rig.run(until=lambda: trigger.armed)

    def arm(self, payload, duration_cycles: int) -> None:
        """Give the attack its payload and activation period."""
        self.injection.trigger.set_duration(duration_cycles)
        self.injection.payload = payload

    def finish(self, record: AttackRecord) -> "AttackRunResult":
        """Run the rest of the run; fill ``record`` from the trigger."""
        if self.injection.payload is None:
            raise AttackConfigError("arm() the attack before finishing it")
        trigger = self.injection.trigger
        trace = self.rig.run()
        record.activations = trigger.activations
        record.first_active_cycle = trigger.first_active_cycle
        trace.attack_first_cycle = trigger.first_active_cycle
        trace.attack_activations = trigger.activations
        return AttackRunResult(trace=trace, record=record, guard=self.rig.guard)

    def fork(self) -> "AttackRun":
        """A copy that runs on independently (see :meth:`SurgicalRig.fork`)."""
        return copy.deepcopy(self, self.rig.fork_memo())


def _run_attack(
    scenario: str,
    seed: int,
    error_value: float,
    period_ms: int,
    channel: int = 0,
    **build_kwargs,
) -> AttackRunResult:
    payload = attack_payload(scenario, seed, error_value, channel=channel)
    attack = AttackRun.build(scenario, seed, **build_kwargs)
    attack.run_to_arming()
    attack.arm(payload, period_ms)
    return attack.finish(
        AttackRecord(
            scenario=scenario, error_value=error_value, period_cycles=period_ms
        )
    )


def run_scenario_b(
    seed: int,
    error_dac: int,
    period_ms: int,
    duration_s: float = 2.5,
    guard: Optional[DetectorGuard] = None,
    raven_safety_enabled: bool = True,
    attack_delay_cycles: int = DEFAULT_ATTACK_DELAY_CYCLES,
    channel: int = 0,
    trajectory_name: str = "circle",
    **config_kwargs,
) -> AttackRunResult:
    """One scenario-B run: DAC offset ``error_dac`` for ``period_ms`` ms."""
    return _run_attack(
        "B",
        seed,
        error_dac,
        period_ms,
        channel=channel,
        duration_s=duration_s,
        guard=guard,
        raven_safety_enabled=raven_safety_enabled,
        attack_delay_cycles=attack_delay_cycles,
        trajectory_name=trajectory_name,
        **config_kwargs,
    )


def run_scenario_a(
    seed: int,
    error_mm: float,
    period_ms: int,
    duration_s: float = 2.5,
    guard: Optional[DetectorGuard] = None,
    raven_safety_enabled: bool = True,
    attack_delay_cycles: int = DEFAULT_ATTACK_DELAY_CYCLES,
    trajectory_name: str = "circle",
    **config_kwargs,
) -> AttackRunResult:
    """One scenario-A run: ``error_mm`` mm of commanded-position error per
    console packet, sustained for ``period_ms`` ms."""
    return _run_attack(
        "A",
        seed,
        error_mm,
        period_ms,
        duration_s=duration_s,
        guard=guard,
        raven_safety_enabled=raven_safety_enabled,
        attack_delay_cycles=attack_delay_cycles,
        trajectory_name=trajectory_name,
        **config_kwargs,
    )


# ---------------------------------------------------------------------------
# Model validation (Figure 8)
# ---------------------------------------------------------------------------


class ParallelModelTap:
    """Runs the dynamic model open-loop next to the plant (Figure 8).

    From the moment the robot engages, the model receives exactly the DAC
    commands the plant receives and integrates forward on its own; the tap
    records both trajectories for error statistics.
    """

    def __init__(self, model: RavenDynamicModel):
        self.model = model
        self._board: Optional[UsbBoard] = None
        self._jpos: Optional[np.ndarray] = None
        self._jvel = np.zeros(3)
        self.model_jpos: list = []
        self.model_mpos: list = []
        self.plant_jpos: list = []
        self.plant_mpos: list = []
        #: Bounded summary of per-step latency (count/sum/min/max/mean)
        #: instead of an unbounded per-cycle list.
        self.step_timing = Histogram(
            "model_step_seconds",
            "open-loop model step latency",
            buckets=DEFAULT_TIME_BUCKETS_S,
        )

    def attach(self, board: UsbBoard) -> None:
        self._board = board
        # Observe-only hook: always admits the packet, so installing it
        # outside repro.core.pipeline does not bypass any mitigation.
        board.guard = self  # repro: allow[RPR001]

    def __call__(self, packet: CommandPacket, raw: bytes) -> bool:
        plant = self._board.motor_controller.plant
        if packet.state is not RobotState.PEDAL_DOWN:
            self._jpos = None
            return True
        if self._jpos is None:
            # Engage: initialize the model from the true plant state once.
            self._jpos = plant.jpos
            self._jvel = plant.jvel
        with Stopwatch() as probe:
            self._jpos, self._jvel = self.model.step(
                self._jpos, self._jvel, packet.dac_values[:3]
            )
        self.step_timing.observe(probe.elapsed_s)
        self.model_jpos.append(self._jpos.copy())
        self.model_mpos.append(self.model.transmission.motor_positions(self._jpos))
        return True

    def record_plant(self, jpos: np.ndarray, mpos: np.ndarray) -> None:
        """Record the plant state corresponding to the last model step."""
        if self._jpos is not None:
            self.plant_jpos.append(jpos.copy())
            self.plant_mpos.append(mpos.copy())


@dataclass
class ModelValidationResult:
    """Per-run model-vs-plant comparison (one row of Figure 8's table)."""

    integrator: str
    mean_step_seconds: float
    jpos_mae: np.ndarray
    mpos_mae: np.ndarray
    samples: int


def run_model_validation(
    integrator: str = "euler",
    seed: int = 0,
    duration_s: float = 3.0,
    trajectory_name: str = "circle",
    parameter_error: float = DEFAULT_MODEL_PARAMETER_ERROR,
) -> ModelValidationResult:
    """Run plant and model in parallel under identical inputs (Figure 8)."""
    model = RavenDynamicModel(
        integrator=integrator, parameter_error=parameter_error
    )
    tap = ParallelModelTap(model)
    config = RigConfig(
        seed=seed, duration_s=duration_s, trajectory_name=trajectory_name
    )
    rig = SurgicalRig(config)
    tap.attach(rig.usb_board)

    # Wrap the motor-controller tick to snapshot the plant after each step.
    original_tick = rig.motor_controller.tick

    def tick_and_record(dt: float = constants.CONTROL_PERIOD_S):
        snapshot = original_tick(dt)
        tap.record_plant(snapshot.jpos, snapshot.mpos)
        return snapshot

    rig.motor_controller.tick = tick_and_record  # type: ignore[method-assign]
    rig.run()

    n = min(len(tap.model_jpos), len(tap.plant_jpos))
    if n == 0:
        raise RuntimeError("model validation run never engaged the robot")
    jerr = np.abs(np.vstack(tap.model_jpos[:n]) - np.vstack(tap.plant_jpos[:n]))
    merr = np.abs(np.vstack(tap.model_mpos[:n]) - np.vstack(tap.plant_mpos[:n]))
    return ModelValidationResult(
        integrator=integrator,
        mean_step_seconds=tap.step_timing.mean,
        jpos_mae=jerr.mean(axis=0),
        mpos_mae=merr.mean(axis=0),
        samples=n,
    )
