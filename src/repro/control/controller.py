"""The RAVEN II control-software node.

Implements the kinematic chain of Figure 2 of the paper, running once per
1 ms control period:

1. receive operator packets (``recvfrom`` system call) — incremental
   desired end-effector motions plus foot-pedal state;
2. read encoder feedback from the USB board (``read`` system call) and
   compute the current joint and end-effector configuration (forward
   kinematics);
3. inverse kinematics: desired end-effector position -> desired joint
   (``jpos_d``) and motor (``mpos_d``) positions;
4. PID control: motor position error -> torque, expressed as DAC counts;
5. software safety checks on the DAC commands and desired joint positions;
6. ``write`` the command packet (state byte + watchdog + DACs) to the USB
   board.

The *order* of steps 5 and 6 is the TOCTOU gap of the paper: anything that
hooks the ``write`` system call modifies the command after the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import constants
from repro.control.pid import MotorPid
from repro.control.safety import SafetyChecker, SafetyDecision, WatchdogGenerator
from repro.control.state_machine import OperationalStateMachine, RobotState
from repro.dynamics.transmission import Transmission
from repro.errors import ChecksumError, InverseKinematicsError, PacketError
from repro.hw.encoder import EncoderBank, rint_int64
from repro.hw.usb_packet import (
    FEEDBACK_PACKET_SIZE,
    decode_feedback_packet,
    encode_command_packet,
)
from repro.kinematics.frames import quat_multiply, quat_normalize
from repro.kinematics.spherical_arm import SphericalArm
from repro.kinematics.workspace import Workspace
from repro.kinematics.wrist import WristKinematics
from repro.sysmodel.process import Process
from repro.teleop.itp import ItpPacket, clamp_increment, decode_itp

#: Control cycles spent in INIT for self-test/homing before Pedal Up.
INIT_CYCLES = 200


@dataclass
class ControllerOutput:
    """Everything the controller produced in one cycle (for tracing)."""

    time: float
    state: RobotState
    pos: np.ndarray
    pos_d: np.ndarray
    jpos: np.ndarray
    jpos_d: np.ndarray
    mpos: np.ndarray
    mpos_d: np.ndarray
    dac: np.ndarray
    safety: SafetyDecision
    ori_d: Optional[np.ndarray] = None
    wrist_joints: Optional[np.ndarray] = None
    packets_consumed: int = 0
    notes: List[str] = field(default_factory=list)


class RavenController:
    """One arm's control software, as a process in the simulated OS."""

    def __init__(
        self,
        process: Process,
        usb_fd: int,
        itp_fd: int,
        arm: Optional[SphericalArm] = None,
        transmission: Optional[Transmission] = None,
        workspace: Optional[Workspace] = None,
        pid: Optional[MotorPid] = None,
        safety: Optional[SafetyChecker] = None,
        watchdog: Optional[WatchdogGenerator] = None,
        encoders: Optional[EncoderBank] = None,
    ) -> None:
        self.process = process
        self.usb_fd = usb_fd
        self.itp_fd = itp_fd
        self.arm = arm or SphericalArm()
        self.transmission = transmission or Transmission()
        self.workspace = workspace or Workspace()
        self.pid = pid or MotorPid()
        self.safety = safety or SafetyChecker(workspace=self.workspace)
        self.watchdog = watchdog or WatchdogGenerator()
        self.encoders = encoders or EncoderBank()
        self.state_machine = OperationalStateMachine()
        #: The four instrument DOF (ori_d path of Figure 2), resolved
        #: kinematically — the paper models them as orientation-only.
        self.wrist = WristKinematics()

        self._init_cycles_left = 0
        self._pos_d: Optional[np.ndarray] = None
        self._jpos_d: Optional[np.ndarray] = None
        self._ori_d = np.array([1.0, 0.0, 0.0, 0.0])
        self._last_jpos = np.zeros(3)
        self.bad_packets = 0
        self.cycles = 0

    # -- operator actions -------------------------------------------------------

    def press_start(self, now: float = 0.0) -> None:
        """Physical start button: E-STOP -> INIT (begins homing)."""
        self.state_machine.press_start(now)
        self._init_cycles_left = INIT_CYCLES
        self.watchdog.reset()
        self.pid.reset()

    # -- per-cycle processing -----------------------------------------------------

    def _drain_console(self, now: float) -> tuple[Optional[ItpPacket], int]:
        """Consume all deliverable ITP datagrams; return the last + count."""
        latest: Optional[ItpPacket] = None
        consumed = 0
        while True:
            data = self.process.recvfrom(self.itp_fd, constants.ITP_PACKET_SIZE)
            if data is None:
                break
            try:
                packet = decode_itp(data)
            except (PacketError, ChecksumError):
                self.bad_packets += 1
                continue
            latest = packet
            consumed += 1
        return latest, consumed

    def _read_feedback(self) -> tuple[np.ndarray, RobotState]:
        """Read the USB feedback packet: motor positions + PLC state echo."""
        data = self.process.read(self.usb_fd, FEEDBACK_PACKET_SIZE)
        feedback = decode_feedback_packet(data)
        mpos = self.encoders.to_radians(feedback.encoder_counts[:3])
        return mpos, feedback.state

    def tick(self, now: float) -> ControllerOutput:
        """Run one 1 ms control cycle."""
        self.cycles += 1
        notes: List[str] = []

        packet, consumed = self._drain_console(now)
        if packet is not None:
            self.state_machine.set_pedal(packet.pedal_down, now)

        mpos, plc_state_echo = self._read_feedback()
        jpos = self.transmission.joint_positions(mpos)
        self._last_jpos = jpos
        pos = self.arm.forward(jpos)

        state = self.state_machine.state

        if state is RobotState.INIT:
            # Homing handshake: each self-test step needs the PLC to echo
            # the INIT state back; without acknowledgment, homing stalls
            # (this is the dependency the "change robot state in PLC"
            # attack variant breaks — observed as a homing failure).
            if plc_state_echo is RobotState.INIT:
                self._init_cycles_left -= 1
            if self._init_cycles_left <= 0:
                self.state_machine.initialization_done(now)
                state = self.state_machine.state
            # Reference tracks the actual pose during homing/self-test.
            self._pos_d = pos.copy()
            self._jpos_d = jpos.copy()

        if state is RobotState.PEDAL_DOWN:
            if self._pos_d is None:
                self._pos_d = pos.copy()
            if packet is not None and packet.mode == 1:
                # Receive-side validation: the RAVEN software rejects
                # incremental motions beyond the per-packet limit, so a
                # console (or console-path attacker) cannot command an
                # arbitrarily large jump in a single packet.
                self._pos_d = self._pos_d + clamp_increment(packet.dpos)
                try:
                    self._ori_d = quat_normalize(
                        quat_multiply(self._ori_d, packet.dquat)
                    )
                except ValueError:
                    notes.append("degenerate orientation increment dropped")
        elif state is RobotState.PEDAL_UP:
            # Console disengaged: desired pose holds at the current pose.
            self._pos_d = pos.copy()

        pos_d = self._pos_d if self._pos_d is not None else pos.copy()

        # Inverse kinematics: desired end-effector -> joints -> motors.
        try:
            jpos_d = self.arm.inverse(pos_d, reference=jpos)
        except InverseKinematicsError:
            notes.append("IK failure")
            self.state_machine.emergency_stop(now, reason="IK failure")
            jpos_d = jpos.copy()
            self._pos_d = pos.copy()
            state = self.state_machine.state
        jpos_d = self.workspace.clamp(jpos_d)
        self._jpos_d = jpos_d
        mpos_d = self.transmission.motor_positions(jpos_d)

        if state is RobotState.PEDAL_DOWN:
            current_cmd = self.pid.update(mpos_d, mpos)
            # np.rint(current_to_dac(current_cmd)).astype(int), on floats.
            full_current = constants.DAC_FULL_SCALE_CURRENT_A
            full_scale = constants.DAC_FULL_SCALE
            dac = [
                rint_int64(current / full_current * full_scale)
                for current in np.asarray(current_cmd, dtype=float).tolist()
            ]
        else:
            self.pid.reset()
            dac = [0, 0, 0]

        decision = self.safety.check(dac, jpos_d)
        if not decision.safe:
            notes.extend(decision.reasons)
            # RAVEN behaviour: stop the watchdog, zero the command and
            # drop to E-STOP; the PLC will also see the watchdog freeze.
            self.watchdog.trip()
            dac = [0, 0, 0]
            self.state_machine.emergency_stop(now, reason="; ".join(decision.reasons))
            state = self.state_machine.state

        # Instrument (wrist) DOF: orientation targets tracked by the fast
        # kinematic servos; they do not affect the positioning dynamics.
        wrist_targets = self.wrist.targets_from_quaternion(self._ori_d)
        wrist_joints = self.wrist.step(wrist_targets, constants.CONTROL_PERIOD_S)

        wd_level = self.watchdog.tick()
        usb_packet = encode_command_packet(state, wd_level, dac)
        self.process.write(self.usb_fd, usb_packet)

        return ControllerOutput(
            time=now,
            state=state,
            pos=pos,
            pos_d=pos_d.copy(),
            jpos=jpos,
            jpos_d=jpos_d.copy(),
            mpos=mpos,
            mpos_d=mpos_d,
            dac=np.array(dac, dtype=int),
            safety=decision,
            ori_d=self._ori_d.copy(),
            wrist_joints=wrist_joints,
            packets_consumed=consumed,
            notes=notes,
        )
