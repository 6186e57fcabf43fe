"""Tests for repro.control.controller via a minimal hand-built stack."""

import numpy as np
import pytest

from repro import constants
from repro.control.controller import INIT_CYCLES, RavenController
from repro.control.pid import MotorPid
from repro.control.state_machine import RobotState
from repro.dynamics.plant import RavenPlant
from repro.hw.encoder import EncoderBank
from repro.hw.motor_controller import MotorController
from repro.hw.plc import Plc
from repro.hw.usb_board import UsbBoard
from repro.kinematics.workspace import Workspace
from repro.sysmodel.process import Process
from repro.teleop.itp import ItpPacket, encode_itp


class DirectSocket:
    """A socket the test can push ITP packets into."""

    def __init__(self):
        self.queue = []

    def push(self, packet: ItpPacket):
        self.queue.append(encode_itp(packet))

    def fd_recvfrom(self, n):
        return self.queue.pop(0) if self.queue else None

    def fd_write(self, data):
        return len(data)

    def fd_read(self, n):
        return b""


@pytest.fixture
def stack():
    plant = RavenPlant(initial_jpos=Workspace().neutral())
    mc = MotorController(plant)
    plc = Plc(plant, mc)
    encoders = EncoderBank()
    board = UsbBoard(mc, plc, encoders)
    process = Process("r2_control")
    usb_fd = process.open_device(board)
    socket = DirectSocket()
    itp_fd = process.open_device(socket)
    controller = RavenController(
        process=process, usb_fd=usb_fd, itp_fd=itp_fd, encoders=encoders
    )
    return controller, socket, plant, plc, board


class _ConstantPid(MotorPid):
    """A PID whose every update returns one fixed current on all axes."""

    def __init__(self, current: float):
        super().__init__()
        self.current = current

    def update(self, setpoint, measurement, dt=constants.CONTROL_PERIOD_S):
        return np.full(3, self.current)


def run_cycles(controller, plc, board, n, start=0):
    outs = []
    for k in range(start, start + n):
        outs.append(controller.tick(k * constants.CONTROL_PERIOD_S))
        plc.tick()
        board.motor_controller.tick()
    return outs


class TestLifecycle:
    def test_homing_completes_after_init_cycles(self, stack):
        controller, _sock, _plant, plc, board = stack
        controller.press_start(0.0)
        outs = run_cycles(controller, plc, board, INIT_CYCLES + 5)
        assert outs[0].state is RobotState.INIT
        assert outs[-1].state is RobotState.PEDAL_UP

    def test_pedal_engages_after_homing(self, stack):
        controller, sock, _plant, plc, board = stack
        controller.press_start(0.0)
        run_cycles(controller, plc, board, INIT_CYCLES + 5)
        sock.push(ItpPacket(0, True, np.zeros(3)))
        outs = run_cycles(controller, plc, board, 2, start=INIT_CYCLES + 5)
        assert outs[0].state is RobotState.PEDAL_DOWN

    def test_packets_written_every_cycle(self, stack):
        controller, _sock, _plant, plc, board = stack
        controller.press_start(0.0)
        run_cycles(controller, plc, board, 10)
        assert board.packets_received == 10

    def test_dac_zero_outside_pedal_down(self, stack):
        controller, _sock, _plant, plc, board = stack
        controller.press_start(0.0)
        outs = run_cycles(controller, plc, board, 20)
        for out in outs:
            assert np.all(out.dac == 0)


class TestTeleoperation:
    def _engage(self, stack):
        controller, sock, plant, plc, board = stack
        controller.press_start(0.0)
        run_cycles(controller, plc, board, INIT_CYCLES + 5)
        sock.push(ItpPacket(0, True, np.zeros(3)))
        run_cycles(controller, plc, board, 2, start=INIT_CYCLES + 5)
        return INIT_CYCLES + 7

    def test_tracks_increments(self, stack):
        controller, sock, plant, plc, board = stack
        k0 = self._engage(stack)
        start_pos = controller.arm.forward(plant.jpos)
        # Command 1 mm of +x motion, 2 um per packet, one packet per cycle
        # (the controller keeps only the latest packet each cycle).
        for i in range(500):
            sock.push(ItpPacket(i, True, np.array([2e-6, 0, 0])))
            run_cycles(controller, plc, board, 1, start=k0 + i)
        run_cycles(controller, plc, board, 200, start=k0 + 500)
        moved = controller.arm.forward(plant.jpos) - start_pos
        assert moved[0] == pytest.approx(1e-3, abs=3e-4)

    def test_oversized_increment_clamped(self, stack):
        controller, sock, plant, plc, board = stack
        k0 = self._engage(stack)
        pos_before = None
        sock.push(ItpPacket(0, True, np.array([4e-4, 0, 0])))  # legal
        out = run_cycles(controller, plc, board, 1, start=k0)[0]
        pos_before = out.pos_d.copy()
        # An increment far beyond the ITP limit advances pos_d only by the
        # clamped amount.
        sock.push(ItpPacket(1, True, np.array([0.5, 0, 0])))
        out = run_cycles(controller, plc, board, 1, start=k0 + 1)[0]
        delta = out.pos_d - pos_before
        assert delta[0] <= constants.ITP_MAX_INCREMENT_M + 1e-12

    def test_corrupt_itp_packet_counted_and_skipped(self, stack):
        controller, sock, _plant, plc, board = stack
        k0 = self._engage(stack)
        bad = bytearray(encode_itp(ItpPacket(0, True, np.zeros(3))))
        bad[10] ^= 0x55  # corrupt payload -> checksum mismatch
        sock.queue.append(bytes(bad))
        run_cycles(controller, plc, board, 1, start=k0)
        assert controller.bad_packets == 1

    def test_pedal_release_holds_position(self, stack):
        controller, sock, plant, plc, board = stack
        k0 = self._engage(stack)
        sock.push(ItpPacket(0, False, np.zeros(3)))
        outs = run_cycles(controller, plc, board, 3, start=k0)
        assert outs[-1].state is RobotState.PEDAL_UP
        assert np.allclose(outs[-1].pos_d, outs[-1].pos)

    def test_unsafe_dac_trips_safety_and_estops(self, stack):
        controller, sock, plant, plc, board = stack
        k0 = self._engage(stack)
        # Force an enormous PID demand by teleporting the desired pose.
        controller._pos_d = controller._pos_d + np.array([0.05, 0.0, 0.0])
        outs = run_cycles(controller, plc, board, 3, start=k0)
        tripped = [o for o in outs if not o.safety.safe]
        assert tripped
        assert controller.state_machine.state is RobotState.E_STOP
        assert controller.watchdog.tripped

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.parametrize("current", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_pid_output_trips_safety(self, stack, current):
        # A current command that is NaN, infinite or beyond int64 in DAC
        # counts casts to the int64 minimum, which the DAC check rejects:
        # the command goes out zeroed and the controller drops to E-STOP.
        # It must never surface as a ValueError or OverflowError.
        controller, _sock, _plant, plc, board = stack
        k0 = self._engage(stack)
        controller.pid = _ConstantPid(current)
        out = run_cycles(controller, plc, board, 1, start=k0)[0]
        reasons = [
            f"DAC channel {i} value {-(2**63)} exceeds limit {constants.DAC_SAFETY_LIMIT}"
            for i in range(3)
        ]
        assert not out.safety.safe
        assert out.safety.reasons == reasons
        assert out.notes == reasons
        assert out.dac.dtype == np.int64
        assert out.dac.tolist() == [0, 0, 0]
        assert board.last_packet.dac_values == [0] * constants.USB_NUM_CHANNELS
        assert out.state is RobotState.E_STOP
        assert controller.state_machine.last_estop_reason == "; ".join(reasons)
        assert controller.watchdog.tripped

    def test_watchdog_toggles_in_packets(self, stack):
        controller, _sock, _plant, plc, board = stack
        controller.press_start(0.0)
        levels = []
        for k in range(40):
            controller.tick(k * constants.CONTROL_PERIOD_S)
            plc.tick()
            board.motor_controller.tick()
            levels.append(board.last_packet.watchdog)
        assert any(a != b for a, b in zip(levels, levels[1:]))


class TestWristPath:
    """The ori_d path of Figure 2: orientation increments drive the wrist."""

    def _engage(self, stack):
        controller, sock, plant, plc, board = stack
        controller.press_start(0.0)
        run_cycles(controller, plc, board, INIT_CYCLES + 5)
        sock.push(ItpPacket(0, True, np.zeros(3)))
        run_cycles(controller, plc, board, 2, start=INIT_CYCLES + 5)
        return INIT_CYCLES + 7

    def test_identity_increments_keep_wrist_still(self, stack):
        controller, sock, _plant, plc, board = stack
        k0 = self._engage(stack)
        for i in range(20):
            sock.push(ItpPacket(i, True, np.zeros(3)))
            run_cycles(controller, plc, board, 1, start=k0 + i)
        out = run_cycles(controller, plc, board, 1, start=k0 + 20)[0]
        assert np.allclose(out.wrist_joints, 0.0, atol=1e-9)

    def test_orientation_increments_accumulate(self, stack):
        from repro.kinematics.wrist import euler_zyx_to_quat

        controller, sock, _plant, plc, board = stack
        k0 = self._engage(stack)
        dq = euler_zyx_to_quat(0.002, 0.0, 0.0)  # 2 mrad roll per packet
        for i in range(100):
            sock.push(ItpPacket(i, True, np.zeros(3), dquat=dq))
            run_cycles(controller, plc, board, 1, start=k0 + i)
        # Let the wrist servos settle on the final target.
        out = run_cycles(controller, plc, board, 200, start=k0 + 100)[-1]
        # Commanded roll: 100 * 2 mrad = 0.2 rad, tracked by the wrist.
        assert out.wrist_joints[0] == pytest.approx(0.2, abs=0.02)

    def test_degenerate_quaternion_dropped(self, stack):
        controller, sock, _plant, plc, board = stack
        k0 = self._engage(stack)
        sock.push(ItpPacket(0, True, np.zeros(3), dquat=np.zeros(4)))
        out = run_cycles(controller, plc, board, 1, start=k0)[0]
        assert any("orientation" in n for n in out.notes)
        # ori_d stays a unit quaternion.
        assert np.isclose(np.linalg.norm(out.ori_d), 1.0)
