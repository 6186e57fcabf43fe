"""Attack variants of Table I.

Each variant targets a different layer of the control structure by
interposing a different runtime-library call (or, for the math-library
drift, by perturbing the trigonometry the kinematics use — the in-process
equivalent of an ``LD_PRELOAD`` wrapper around ``sin``/``cos``):

=====================  =======================  ==========================
Target layer           Malicious action         Observed impact (paper)
=====================  =======================  ==========================
Master console <->     change port / packet     Hijack trajectory /
control software       content (socket comm.)   unwanted state (E-STOP)
Control software       add drift to sin/cos     Unwanted state (IK-fail)
Software/hardware      change robot state       Homing failure
interface (PLC)        seen by the PLC
Software <-> physical  change motor commands /  Abrupt jump /
robot                  encoder feedback         unwanted state (E-STOP)
=====================  =======================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import constants
from repro.attacks.malware import PedalDownTrigger
from repro.control.state_machine import RobotState
from repro.errors import ChecksumError, PacketError
from repro.kinematics.spherical_arm import ArmGeometry, SphericalArm
from repro.sysmodel.linker import SharedLibrary
from repro.sysmodel.process import Process
from repro.teleop.itp import decode_itp, encode_itp, ItpPacket


@dataclass
class VariantOutcome:
    """What a variant run produced (the "Observed Impact" column)."""

    variant: str
    impact: str
    details: str = ""


# ---------------------------------------------------------------------------
# Socket communication attacks (master console <-> control software)
# ---------------------------------------------------------------------------


def build_socket_drop_library(
    target_process: str = "r2_control", name: str = "libsock_drop.so"
) -> SharedLibrary:
    """Change of port number, modelled as loss of all console datagrams.

    After the attack activates, ``recvfrom`` never returns a packet again —
    the console's traffic goes to a port nobody reads.  The robot freezes
    at its last desired pose and the surgeon loses control (a hijack of
    the trajectory to "hold still", and unavailability).
    """
    library = SharedLibrary(name)

    def recvfrom_factory(next_recvfrom, process: Process):
        def malicious_recvfrom(fd: int, max_bytes: int):
            data = next_recvfrom(fd, max_bytes)
            if process.name != target_process:
                return data
            return None  # the rebound port receives nothing

        return malicious_recvfrom

    library.export("recvfrom", recvfrom_factory)
    return library


def build_socket_hijack_library(
    trigger: PedalDownTrigger,
    hijack_dpos_m: np.ndarray,
    target_process: str = "r2_control",
    name: str = "libsock_hijack.so",
) -> SharedLibrary:
    """Change of packet content: replace the surgeon's motion commands.

    While active, every console packet's increment is replaced with the
    attacker's own motion — the robot follows the attacker, not the
    surgeon ("hijack trajectory").
    """
    library = SharedLibrary(name)
    hijack = np.asarray(hijack_dpos_m, dtype=float)
    state = {"active": False}

    def write_factory(next_write, process: Process):
        def observing_write(fd: int, data: bytes) -> int:
            if (
                process.name == target_process
                and len(data) == constants.USB_PACKET_SIZE
            ):
                state["active"] = trigger.observe(data[constants.USB_STATE_BYTE])
            return next_write(fd, data)

        return observing_write

    def recvfrom_factory(next_recvfrom, process: Process):
        def malicious_recvfrom(fd: int, max_bytes: int):
            data = next_recvfrom(fd, max_bytes)
            if (
                data is None
                or process.name != target_process
                or len(data) != constants.ITP_PACKET_SIZE
                or not state["active"]
            ):
                return data
            try:
                packet = decode_itp(data)
            except (PacketError, ChecksumError):
                return data
            hijacked = ItpPacket(
                sequence=packet.sequence,
                pedal_down=packet.pedal_down,
                dpos=hijack.copy(),
                dquat=packet.dquat,
                mode=packet.mode,
            )
            return encode_itp(hijacked)

        return malicious_recvfrom

    library.export("write", write_factory)
    library.export("recvfrom", recvfrom_factory)
    return library


# ---------------------------------------------------------------------------
# Math-library drift (control software layer)
# ---------------------------------------------------------------------------


class DriftedTrigArm(SphericalArm):
    """A spherical arm whose trigonometry drifts over time.

    Models the Table I "Math (sin, cos): add drift to output/input"
    attack: an ``LD_PRELOAD`` wrapper around libm would skew every
    ``sin``/``cos`` the inverse kinematics evaluate.  Here the drift is
    added to the joint angles entering the tool-axis trigonometry, growing
    by ``drift_per_call`` radians per kinematics call.  The desired joint
    targets wander until IK fails or the workspace check trips.
    """

    def __init__(
        self,
        geometry: Optional[ArmGeometry] = None,
        drift_per_call: float = 2e-6,
    ) -> None:
        super().__init__(geometry)
        self.drift_per_call = drift_per_call
        self.calls = 0

    def _drift(self) -> float:
        self.calls += 1
        return self.calls * self.drift_per_call

    def tool_axis(self, q1: float, q2: float) -> np.ndarray:
        drift = self._drift()
        return super().tool_axis(q1 + drift, q2 + drift)

    def joint2_axis(self, q1: float) -> np.ndarray:
        return super().joint2_axis(q1 + self.calls * self.drift_per_call)

    #: FK/IK consistency tolerance (m).  Real control software validates
    #: inverse-kinematics solutions by running them back through forward
    #: kinematics; with drifting trigonometry the two disagree until the
    #: validation fails.
    consistency_tolerance_m = 1e-3

    def inverse(self, position, reference=None):
        """IK whose trigonometry drifts: solutions skew until IK fails."""
        from repro.errors import InverseKinematicsError

        q = super().inverse(position, reference=reference)
        drift = self._drift()
        q = np.array([q[0] + drift, q[1] + drift, q[2]])
        # Solution validation through (equally drifted) forward kinematics.
        mismatch = float(np.linalg.norm(self.forward(q) - np.asarray(position)))
        if mismatch > self.consistency_tolerance_m:
            raise InverseKinematicsError(
                f"IK solution fails FK consistency check by {mismatch:.4f} m"
            )
        return q


def install_math_drift(rig, drift_per_call: float = 2e-6) -> DriftedTrigArm:
    """Replace the controller's kinematics with the drifted version.

    Only the *control software's* view drifts; the physical plant is
    untouched, exactly as when libm is wrapped inside the control process.
    """
    drifted = DriftedTrigArm(rig.arm.geometry, drift_per_call=drift_per_call)
    rig.controller.arm = drifted
    return drifted


# ---------------------------------------------------------------------------
# PLC state corruption (software/hardware interface layer)
# ---------------------------------------------------------------------------


def build_plc_state_corruption_library(
    target_process: str = "r2_control",
    forced_state: RobotState = RobotState.E_STOP,
    name: str = "libplc_corrupt.so",
) -> SharedLibrary:
    """Corrupt the robot state the PLC sees during initialization.

    While the software reports INIT, the wrapper rewrites Byte 0 so the
    PLC observes ``forced_state`` instead.  The PLC never sees a
    consistent homing sequence, the watchdog bookkeeping desynchronizes,
    and initialization cannot complete — the paper's "Homing Failure".
    """
    library = SharedLibrary(name)
    init_byte = RobotState.INIT.byte_value
    wd_mask = 1 << constants.USB_WATCHDOG_BIT

    def write_factory(next_write, process: Process):
        def malicious_write(fd: int, data: bytes) -> int:
            if (
                process.name == target_process
                and len(data) == constants.USB_PACKET_SIZE
                and (data[constants.USB_STATE_BYTE] & ~wd_mask) == init_byte
            ):
                buf = bytearray(data)
                # Preserve the watchdog bit so only the state is forged.
                buf[constants.USB_STATE_BYTE] = forced_state.byte_value | (
                    data[constants.USB_STATE_BYTE] & wd_mask
                )
                data = bytes(buf)
            return next_write(fd, data)

        return malicious_write

    library.export("write", write_factory)
    return library


# ---------------------------------------------------------------------------
# Encoder feedback corruption (software <-> physical robot layer)
# ---------------------------------------------------------------------------


def build_encoder_corruption_library(
    trigger: PedalDownTrigger,
    offset_counts: int,
    channel: int = 0,
    target_process: str = "r2_control",
    name: str = "libenc_corrupt.so",
) -> SharedLibrary:
    """Corrupt the encoder feedback the control software reads.

    While active, the wrapper adds ``offset_counts`` to one encoder
    channel of every feedback packet.  The software believes the joint
    moved, the PID "corrects" the phantom error, and the real arm jumps —
    the feedback-side twin of scenario B.
    """
    library = SharedLibrary(name)
    from repro.hw.usb_packet import FEEDBACK_PACKET_SIZE

    def write_factory(next_write, process: Process):
        def observing_write(fd: int, data: bytes) -> int:
            if (
                process.name == target_process
                and len(data) == constants.USB_PACKET_SIZE
            ):
                trigger.observe(data[constants.USB_STATE_BYTE])
            return next_write(fd, data)

        return observing_write

    def read_factory(next_read, process: Process):
        def malicious_read(fd: int, max_bytes: int) -> bytes:
            data = next_read(fd, max_bytes)
            if (
                process.name != target_process
                or len(data) != FEEDBACK_PACKET_SIZE
                or trigger.activations == 0
                or trigger.exhausted
            ):
                return data
            buf = bytearray(data)
            lo = 1 + 3 * channel
            value = int.from_bytes(buf[lo : lo + 3], "big", signed=True)
            value += offset_counts
            buf[lo : lo + 3] = max(
                -(1 << 23), min((1 << 23) - 1, value)
            ).to_bytes(3, "big", signed=True)
            return bytes(buf)

        return malicious_read

    library.export("write", write_factory)
    library.export("read", read_factory)
    return library
