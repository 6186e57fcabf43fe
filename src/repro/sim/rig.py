"""Full-system wiring: the simulation framework of Figure 7(a).

A :class:`SurgicalRig` assembles one complete teleoperation stack:

    master console emulator -> UDP channel -> [recvfrom syscall]
        -> RAVEN control software (state machine, IK, PID, safety checks)
        -> [write syscall]  <- malicious wrappers hook here (LD_PRELOAD)
        -> USB board        <- dynamic-model detector guards here
        -> motor controllers -> physical plant (motors + manipulator)
        -> encoders -> [read syscall] -> control software
    PLC: watchdog monitor + fail-safe brakes + E-STOP latch

Every stochastic element (tremor, encoder noise, channel loss) draws from
generators seeded from one run seed, so runs are exactly reproducible and
protected/unprotected replicas of the same run see identical inputs.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro import constants
from repro.control.controller import RavenController
from repro.control.safety import SafetyChecker
from repro.control.state_machine import RobotState
from repro.control.trajectory import Trajectory, TrajectoryLibrary
from repro.core.pipeline import DetectorGuard, GuardSupervisor
from repro.dynamics.plant import RavenPlant
from repro.envcfg import env_str
from repro.errors import SimulationError
from repro.hw.encoder import EncoderBank
from repro.hw.motor_controller import MotorController
from repro.hw.plc import Plc
from repro.hw.usb_board import UsbBoard
from repro.kinematics.spherical_arm import SphericalArm
from repro.kinematics.workspace import Workspace
from repro.obs.runtime import get_runtime
from repro.sim.trace import RunTrace
from repro.sysmodel.linker import DynamicLinker, SharedLibrary, SystemEnvironment
from repro.teleop.console import MasterConsoleEmulator
from repro.teleop.network import UdpChannel, UdpSocket
from repro.teleop.pedal import PedalSchedule


@dataclass
class RigConfig:
    """Configuration of one simulated run."""

    seed: int = 0
    duration_s: float = 2.5
    trajectory_name: str = "circle"
    start_button_s: float = 0.05
    pedal_press_s: float = 0.40
    pedal_release_s: Optional[float] = None
    raven_safety_enabled: bool = True
    encoder_noise_counts: float = 0.3
    channel_latency_s: float = 0.0
    channel_jitter_s: float = 0.0
    channel_loss: float = 0.0
    plant_integrator: str = "rk4"
    plant_substeps: int = 2
    tremor_amplitude_m: float = 3e-5
    extra_trajectory_params: dict = field(default_factory=dict)
    #: Optional physical-layer fault plan: a
    #: :class:`repro.testing.physfaults.PhysFaultPlan`, its ``to_dict()``
    #: form (picklable, for worker processes), or a path to a saved plan.
    #: ``None`` (the default) falls back to the ``REPRO_PHYS_FAULT_PLAN``
    #: environment variable; with neither set the fault module is never
    #: imported and the rig is bit-identical to earlier builds.
    phys_faults: Optional[object] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise SimulationError("duration_s must be positive")
        if self.pedal_press_s <= self.start_button_s:
            raise SimulationError("pedal press must come after the start button")


#: DAC limit used to "disable" the RAVEN checks in ground-truth runs.
_DISABLED_DAC_LIMIT = 10 * constants.DAC_FULL_SCALE


class SurgicalRig:
    """One arm + console + control software + hardware, ready to run."""

    def __init__(
        self,
        config: RigConfig,
        trajectory: Optional[Trajectory] = None,
        preload_libraries: Sequence[SharedLibrary] = (),
        guard: Optional[Union[DetectorGuard, GuardSupervisor]] = None,
        environment: Optional[SystemEnvironment] = None,
        channel: Optional[UdpChannel] = None,
    ) -> None:
        self.config = config
        seeds = np.random.SeedSequence(config.seed).spawn(3)
        self._traj_rng = np.random.default_rng(seeds[0])
        self._encoder_rng = np.random.default_rng(seeds[1])
        self._channel_rng = np.random.default_rng(seeds[2])

        # -- physical side ------------------------------------------------------
        self.arm = SphericalArm()
        self.workspace = Workspace()
        self.plant = RavenPlant(
            integrator=config.plant_integrator,
            substeps=config.plant_substeps,
            initial_jpos=self.workspace.neutral(),
        )
        self.motor_controller = MotorController(self.plant)
        self.plc = Plc(self.plant, self.motor_controller)
        self.encoders = EncoderBank(
            noise_counts=config.encoder_noise_counts,
            rng=self._encoder_rng if config.encoder_noise_counts > 0 else None,
        )
        self.usb_board = UsbBoard(self.motor_controller, self.plc, self.encoders)
        self.guard = guard
        if guard is not None:
            guard.attach(self.usb_board)

        # -- OS side --------------------------------------------------------------
        self.environment = environment or SystemEnvironment()
        for library in preload_libraries:
            self.environment.set_user_preload("surgeon", library)
        self.linker = DynamicLinker(self.environment)
        self.process = self.linker.spawn("r2_control", user="surgeon")
        self.usb_fd = self.process.open_device(self.usb_board)

        # -- teleoperation side ------------------------------------------------------
        # An externally supplied channel (e.g. a TamperingChannel with an
        # on-path adversary) replaces the default lossy UDP model.
        self.channel = channel or UdpChannel(
            latency_s=config.channel_latency_s,
            jitter_s=config.channel_jitter_s,
            loss_probability=config.channel_loss,
            rng=self._channel_rng
            if (config.channel_jitter_s > 0 or config.channel_loss > 0)
            else None,
        )
        self.socket = UdpSocket(self.channel, constants.ITP_DEFAULT_PORT)
        self.itp_fd = self.process.open_device(self.socket)

        if trajectory is None:
            library = TrajectoryLibrary(self.arm, self.workspace)
            trajectory = library.make(
                config.trajectory_name,
                rng=self._traj_rng,
                tremor_amplitude=config.tremor_amplitude_m,
                **config.extra_trajectory_params,
            )
        self.trajectory = trajectory

        if config.pedal_release_s is None:
            pedal = PedalSchedule.always_down(from_time=config.pedal_press_s)
        else:
            pedal = PedalSchedule.pressed_during(
                config.pedal_press_s, config.pedal_release_s
            )
        self.console = MasterConsoleEmulator(
            trajectory,
            self.channel,
            pedal=pedal,
            motion_start=config.pedal_press_s + 0.05,
        )

        # -- control software ------------------------------------------------------------
        safety = SafetyChecker(
            dac_limit=(
                constants.DAC_SAFETY_LIMIT
                if config.raven_safety_enabled
                else _DISABLED_DAC_LIMIT
            ),
            workspace=self.workspace if config.raven_safety_enabled else Workspace(
                joint1_limits=(-100.0, 100.0),
                joint2_limits=(-100.0, 100.0),
                joint3_limits=(1e-6, 100.0),
            ),
        )
        self.controller = RavenController(
            process=self.process,
            usb_fd=self.usb_fd,
            itp_fd=self.itp_fd,
            arm=self.arm,
            workspace=self.workspace,
            safety=safety,
            encoders=self.encoders,
        )

        # -- physical-layer fault injection (opt-in) ---------------------------------
        # Resolved last so every component the injector hooks exists.  The
        # env-var name is spelled out here (rather than imported) so the
        # fault module stays unimported unless a plan is actually present.
        self.phys_injector = None
        plan = config.phys_faults
        if plan is None:
            plan_path = env_str("REPRO_PHYS_FAULT_PLAN")
            if plan_path:
                plan = plan_path
        if plan is not None:
            from repro.testing.physfaults import PhysFaultInjector

            self.phys_injector = PhysFaultInjector(plan)
            self.phys_injector.install(self)

        # -- telemetry (REPRO_OBS, opt-in) -------------------------------------------
        # The flight recorder is None when telemetry is disabled, so the
        # step loop pays exactly one is-None branch per cycle.
        self.obs = get_runtime()
        self.flight = self.obs.new_flight_recorder(
            context={
                "seed": config.seed,
                "trajectory": config.trajectory_name,
                "duration_s": config.duration_s,
                "guard": type(guard).__name__ if guard is not None else None,
            }
        )
        #: Paths of black-box dumps written during :meth:`run`.
        self.flight_dumps: List[Path] = []
        self._flight_dumped = {"alarm": False, "estop": False}

    # -- execution ---------------------------------------------------------------------

    def run(self, trace: Optional[RunTrace] = None) -> RunTrace:
        """Execute the configured run and return its trace."""
        config = self.config
        trace = trace or RunTrace()
        trace.seed = config.seed
        trace.label = config.trajectory_name

        started = False

        def on_transition(old: RobotState, new: RobotState) -> None:
            if new is RobotState.E_STOP and started:
                reason = self.controller.state_machine.last_estop_reason or ""
                trace.estop_events.append((self._now, reason))
                self.obs.log_event(
                    "estop", t=self._now, seed=config.seed, reason=reason
                )

        self.controller.state_machine.add_listener(on_transition)

        steps = int(round(config.duration_s / constants.CONTROL_PERIOD_S))
        self._now = 0.0
        run_span = (
            self.obs.tracer.span(
                "rig.run",
                cat="sim",
                seed=config.seed,
                trajectory=config.trajectory_name,
                steps=steps,
            )
            if self.obs.enabled
            else nullcontext()
        )
        with run_span:
            for k in range(steps):
                self._now = k * constants.CONTROL_PERIOD_S
                now = self._now
                if not started and now >= config.start_button_s:
                    self.controller.press_start(now)
                    started = True

                self.socket.set_time(now)
                if self.phys_injector is not None:
                    self.phys_injector.set_time(now)
                self.console.tick(now)
                out = self.controller.tick(now)
                if not out.safety.safe:
                    trace.safety_trip_cycles.append(k)
                if self.guard is not None:
                    # Per-cycle guard housekeeping (staleness watchdog on the
                    # supervisor; a no-op for the bare DetectorGuard).
                    self.guard.tick_cycle(k)

                self.plc.tick()
                if (
                    self.plc.estop_latched
                    and self.controller.state_machine.state is not RobotState.E_STOP
                ):
                    self.controller.state_machine.emergency_stop(
                        now, reason=f"PLC: {self.plc.estop_reason}"
                    )

                snapshot = self.motor_controller.tick()
                trace.record(
                    time=now,
                    state=out.state,
                    tip_pos=self.arm.forward(snapshot.jpos),
                    pos_d=out.pos_d,
                    jpos=snapshot.jpos,
                    jvel=snapshot.jvel,
                    mpos=snapshot.mpos,
                    dac=out.dac,
                )
                if self.flight is not None:
                    self._flight_cycle(k, now, out, snapshot)
        # The listener closes over this rig and its trace; left registered,
        # that cycle would keep the whole trace alive until a full GC.
        self.controller.state_machine.remove_listener(on_transition)

        if self.guard is not None:
            trace.detector_alert_cycles = [
                e.cycle for e in self.guard.stats.alert_events
            ]
            if self.guard.stats.alerts > len(trace.detector_alert_cycles):
                # Alerts beyond the recording cap still count once each.
                trace.detector_alert_cycles.extend(
                    [-1]
                    * (self.guard.stats.alerts - len(trace.detector_alert_cycles))
                )
        return trace

    # -- flight recorder (REPRO_OBS) --------------------------------------------

    def _flight_cycle(self, k: int, now: float, out, snapshot) -> None:
        """Feed one control cycle into the black-box ring; dump on events."""
        flight = self.flight
        assert flight is not None
        guard = self.guard
        result = guard.last_evaluation if guard is not None else None
        estimate = guard.last_estimate if guard is not None else None
        flight.record_cycle(
            cycle=k,
            t=now,
            state=out.state.name,
            dac_commanded=out.dac,
            dac_seen=guard.last_dac if guard is not None else None,
            jpos=snapshot.jpos,
            jvel=snapshot.jvel,
            mpos=snapshot.mpos,
            est_motor_velocity=(
                estimate.motor_velocity if estimate is not None else None
            ),
            est_motor_acceleration=(
                estimate.motor_acceleration if estimate is not None else None
            ),
            est_joint_velocity=(
                estimate.joint_velocity if estimate is not None else None
            ),
            est_jpos_next=estimate.jpos_next if estimate is not None else None,
            margins=result.margins if result is not None else None,
            alarms=result.alarms if result is not None else None,
            alert=result.alert if result is not None else None,
            raw_alert=result.raw_alert if result is not None else None,
            blocked=guard.last_blocked if guard is not None else False,
            health=guard.stats.health.value if guard is not None else None,
        )
        if (
            result is not None
            and result.alert
            and not self._flight_dumped["alarm"]
        ):
            self._flight_dumped["alarm"] = True
            reason = "block" if guard is not None and guard.last_blocked else "alarm"
            self._dump_flight(reason=reason, cycle=k)
        if self.plc.estop_latched and not self._flight_dumped["estop"]:
            self._flight_dumped["estop"] = True
            self._dump_flight(reason="estop", cycle=k)

    def _dump_flight(self, reason: str, cycle: int) -> None:
        """Write the last N cycles of the ring to a forensic JSONL dump."""
        assert self.flight is not None
        path = self.obs.flight_dump_path(
            label=self.config.trajectory_name,
            seed=self.config.seed,
            cycle=cycle,
            reason=reason,
        )
        if path is None:  # per-process dump cap reached
            return
        self.flight.dump(path, reason=reason)
        self.flight_dumps.append(path)
        self.obs.log_event(
            "flight_dump",
            path=str(path),
            reason=reason,
            cycle=cycle,
            seed=self.config.seed,
        )
