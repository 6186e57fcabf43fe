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
generators seeded from one run seed, so runs are exactly reproducible.
Replicas of one run with and without a guard do *not* see identical
inputs: a guard's ``read_measurement`` draws encoder noise from the same
generator as the USB board's feedback reads, so from cycle 1 on the
guarded run's control software sees a different noise sequence (with a
seed-0 circle run, ``pos_d`` first differs at cycle 1 and the tool tip at
cycle 401, once the arm moves).

A run can pause at a cycle boundary and resume (:meth:`SurgicalRig.run`
with ``until``), and a paused rig can be forked (:meth:`SurgicalRig.fork`)
into a deep copy that runs on independently.  Forking relies on the rig's
components holding no closures: ``copy.deepcopy`` treats a function as
atomic, so a closure in a copy would still act on the original.  Hooks are
objects or bound methods instead, which a deep copy rebinds.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

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
from repro.sysmodel.syscalls import SYSCALL_NAMES
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

#: The per-cycle series of a :class:`RunTrace`.  A fork copies these lists
#: but shares their entries, which are never mutated once recorded.
_TRACE_SERIES = ("times", "states", "tip_pos", "pos_d", "jpos", "jvel", "mpos", "dac")


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

        #: The trace being recorded; ``None`` until :meth:`run` first starts.
        self.trace: Optional[RunTrace] = None
        #: The next cycle to simulate.
        self.cycle = 0
        self.steps = int(round(config.duration_s / constants.CONTROL_PERIOD_S))
        self._started = False
        self._now = 0.0

    # -- execution ---------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether every configured cycle has run."""
        return self.cycle >= self.steps

    def run(
        self,
        trace: Optional[RunTrace] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> RunTrace:
        """Execute the configured run (or the rest of it); return its trace.

        ``until``, when given, is checked before every cycle: the run
        pauses at the first cycle boundary where it returns True and
        returns the trace so far.  A later call resumes from there, and a
        paused rig can be forked (:meth:`fork`).  ``trace`` is the trace to
        record into and counts only on the first call.
        """
        config = self.config
        if self.trace is None:
            self.trace = trace if trace is not None else RunTrace()
            self.trace.seed = config.seed
            self.trace.label = config.trajectory_name
        trace = self.trace
        # Registered only while running: a listener left behind would tie
        # the state machine to this rig (and its trace) between calls.
        self.controller.state_machine.add_listener(self._on_transition)

        steps = self.steps
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
            for k in range(self.cycle, steps):
                if until is not None and until():
                    self.cycle = k
                    break
                self._now = k * constants.CONTROL_PERIOD_S
                now = self._now
                if not self._started and now >= config.start_button_s:
                    self.controller.press_start(now)
                    self._started = True

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
            else:
                self.cycle = steps
        self.controller.state_machine.remove_listener(self._on_transition)

        if self.finished and self.guard is not None:
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

    def _on_transition(self, old: RobotState, new: RobotState) -> None:
        if new is RobotState.E_STOP and self._started:
            reason = self.controller.state_machine.last_estop_reason or ""
            self.trace.estop_events.append((self._now, reason))
            self.obs.log_event(
                "estop", t=self._now, seed=self.config.seed, reason=reason
            )

    def fork(self) -> "SurgicalRig":
        """A deep copy of this rig that runs on independently.

        Meant for a rig paused by :meth:`run`'s ``until``: the copy resumes
        from the same cycle with copies of every component, random
        generator state included, so it records what the original would.
        Two things are shared, not copied: the process-wide telemetry
        runtime, and the entries recorded so far in the trace (the copy
        gets its own lists over the same, never-mutated entries).
        """
        return copy.deepcopy(self, self.fork_memo())

    def fork_memo(self) -> dict:
        """A ``copy.deepcopy`` memo holding what :meth:`fork` shares.

        Deep-copying an object graph that contains this rig with the memo
        forks the rig along with the rest of the graph.
        """
        closures = [
            name
            for name in SYSCALL_NAMES
            if getattr(self.process.symbol(name), "__closure__", None)
        ]
        if closures:
            raise SimulationError(
                f"cannot fork a rig whose {closures} wrappers are closures: "
                "a copy would keep calling them on the original"
            )
        memo = {id(self.obs): self.obs}
        if self.trace is not None:
            for name in _TRACE_SERIES:
                series = getattr(self.trace, name)
                memo[id(series)] = list(series)
        return memo

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
