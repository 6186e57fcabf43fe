"""Property tests: the float control cycle equals its numpy specification.

The per-cycle code of the control software, the wire codecs and the
plant glue runs on Python floats and ints and on precompiled ``struct``
codecs.  Each test here keeps the numpy / ``int.to_bytes`` formulation
that code replaced as the specification, and requires the same bytes,
the same float bits, the same exception (type and message) and, where a
generator is drawn from, the same generator state afterwards.  The rules
that make this hold are in docs/architecture.md, "The control cycle".
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import constants
from repro.control.pid import DEFAULT_GAINS, MotorPid
from repro.control.trajectory import TremorModel
from repro.dynamics.plant import RavenPlant, dac_to_current
from repro.errors import ChecksumError, InverseKinematicsError, PacketError
from repro.hw.encoder import EncoderBank, rint_int64
from repro.hw.usb_packet import (
    decode_command_packet,
    decode_feedback_packet,
    encode_command_packet,
    encode_feedback_packet,
)
from repro.kinematics.frames import quat_multiply, quat_normalize, rot_x, rot_z
from repro.kinematics.spherical_arm import SphericalArm, _wrap_angle
from repro.kinematics.workspace import Workspace
from repro.kinematics.wrist import WristKinematics, euler_zyx_to_quat
from repro.robot_state import RobotState
from repro.teleop.itp import ItpPacket, clamp_increment, decode_itp, encode_itp


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def bits(array) -> tuple:
    """Dtype, shape and raw bytes: equal iff bit-identical."""
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


#: Any float64, NaN, infinities and signed zeros included.
any_floats = st.floats(allow_nan=True, allow_infinity=True)


# -- wire codecs -----------------------------------------------------------------------


def spec_state_byte(state: RobotState, watchdog: bool) -> int:
    value = state.byte_value
    if watchdog:
        value |= 1 << constants.USB_WATCHDOG_BIT
    return value


def spec_encode(state, watchdog, values, size, width, what):
    """The USB encoders as byte-array writes of ``int.to_bytes``."""
    if len(values) > constants.USB_NUM_CHANNELS:
        raise PacketError(f"at most {constants.USB_NUM_CHANNELS} {what} channels")
    payload = bytearray(size)
    payload[0] = spec_state_byte(state, watchdog)
    bits_ = 8 * width
    low, high = -(1 << (bits_ - 1)), (1 << (bits_ - 1)) - 1
    label = "DAC value" if what == "DAC" else "encoder count"
    for channel, value in enumerate(values):
        value = int(value)
        if not (low <= value <= high):
            raise PacketError(f"{label} {value} out of int{bits_} range")
        offset = 1 + width * channel
        payload[offset : offset + width] = value.to_bytes(width, "big", signed=True)
    payload[size - 1] = sum(bytes(payload[: size - 1])) & 0xFF
    return bytes(payload)


def spec_decode(data, size, width):
    """The USB decoders as ``int.from_bytes`` slices."""
    if len(data) != size:
        raise PacketError(f"wrong length {len(data)}")
    raw_state = data[0]
    state = RobotState.from_byte(raw_state)
    values = [
        int.from_bytes(data[1 + width * c : 1 + width * (c + 1)], "big", signed=True)
        for c in range(constants.USB_NUM_CHANNELS)
    ]
    checksum_ok = data[size - 1] == sum(data[: size - 1]) & 0xFF
    watchdog = bool(raw_state & (1 << constants.USB_WATCHDOG_BIT))
    return raw_state, state, watchdog, values, checksum_ok


def fields(packet):
    values = getattr(packet, "dac_values", None)
    if values is None:
        values = packet.encoder_counts
    assert all(type(v) is int for v in values)
    return packet.raw_state_byte, packet.state, packet.watchdog, values, packet.checksum_ok


int16ish = st.integers(-(1 << 15) - 3, (1 << 15) + 2)
int24ish = st.integers(-(1 << 23) - 3, (1 << 23) + 2)


class TestUsbCodecs:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(list(RobotState)),
        st.booleans(),
        st.lists(st.one_of(int16ish, st.integers(-(1 << 15), (1 << 15) - 1)), max_size=9),
        st.booleans(),
    )
    def test_command_encode(self, state, watchdog, dacs, as_int64):
        values = list(np.array(dacs, dtype=np.int64)) if as_int64 and dacs else dacs
        assert outcome(encode_command_packet, state, watchdog, values) == outcome(
            spec_encode, state, watchdog, values, 18, 2, "DAC"
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(list(RobotState)),
        st.booleans(),
        st.lists(st.one_of(int24ish, st.integers(-(1 << 23), (1 << 23) - 1)), max_size=9),
    )
    def test_feedback_encode(self, state, watchdog, counts):
        assert outcome(encode_feedback_packet, state, watchdog, counts) == outcome(
            spec_encode, state, watchdog, counts, 26, 3, "encoder"
        )

    def test_float_dacs_truncate_like_int(self):
        data = encode_command_packet(RobotState.PEDAL_DOWN, True, [1.9, -2.7, 3.0])
        assert data == spec_encode(RobotState.PEDAL_DOWN, True, [1, -2, 3], 18, 2, "DAC")

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=18, max_size=18), st.sampled_from([0x00, 0x03, 0x07, 0x0F]))
    def test_command_decode(self, data, state_nibble):
        # Half the cases carry a valid state byte; the rest mostly raise.
        for candidate in (data, bytes([state_nibble]) + data[1:]):
            new = outcome(decode_command_packet, candidate)
            spec = outcome(spec_decode, candidate, 18, 2)
            if new[0] == "ok":
                assert spec == ("ok", fields(new[1]))
            else:
                assert new == spec

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=26, max_size=26), st.sampled_from([0x10, 0x13, 0x17, 0x1F]))
    def test_feedback_decode(self, data, state_nibble):
        for candidate in (data, bytes([state_nibble]) + data[1:]):
            new = outcome(decode_feedback_packet, candidate)
            spec = outcome(spec_decode, candidate, 26, 3)
            if new[0] == "ok":
                assert spec == ("ok", fields(new[1]))
            else:
                assert new == spec

    @pytest.mark.parametrize("size", [0, 17, 19, 26])
    def test_wrong_lengths_raise(self, size):
        with pytest.raises(PacketError):
            decode_command_packet(b"\x00" * size)
        with pytest.raises(PacketError):
            decode_feedback_packet(b"\x00" * (size + 8))


_NM, _Q30 = 1e9, float(1 << 30)
_I32 = (-(1 << 31), (1 << 31) - 1)


def spec_encode_itp(packet: ItpPacket) -> bytes:
    out = bytearray(constants.ITP_PACKET_SIZE)
    out[0:4] = (packet.sequence & 0xFFFFFFFF).to_bytes(4, "big")
    out[4] = 1 if packet.pedal_down else 0
    out[5] = packet.mode & 0xFF
    for i, value in enumerate(packet.dpos):
        scaled = int(round(value * _NM))
        if not (_I32[0] <= scaled <= _I32[1]):
            raise PacketError(f"position increment {value} m out of range")
        out[6 + 4 * i : 10 + 4 * i] = scaled.to_bytes(4, "big", signed=True)
    for i, value in enumerate(packet.dquat):
        scaled = max(_I32[0], min(_I32[1], int(round(value * _Q30))))
        out[18 + 4 * i : 22 + 4 * i] = scaled.to_bytes(4, "big", signed=True)
    out[38:40] = (sum(bytes(out[:38])) & 0xFFFF).to_bytes(2, "big")
    return bytes(out)


def spec_decode_itp(data: bytes):
    expected = sum(data[:38]) & 0xFFFF
    got = int.from_bytes(data[38:40], "big")
    if expected != got:
        raise ChecksumError(
            f"ITP checksum mismatch: expected {expected:#06x}, got {got:#06x}"
        )
    dpos = np.array(
        [int.from_bytes(data[6 + 4 * i : 10 + 4 * i], "big", signed=True) / _NM for i in range(3)]
    )
    dquat = np.array(
        [int.from_bytes(data[18 + 4 * i : 22 + 4 * i], "big", signed=True) / _Q30 for i in range(4)]
    )
    return int.from_bytes(data[0:4], "big"), bool(data[4]), data[5], bits(dpos), bits(dquat)


def itp_fields(packet: ItpPacket):
    return (
        packet.sequence,
        packet.pedal_down,
        packet.mode,
        bits(packet.dpos),
        bits(packet.dquat),
    )


class TestItpCodec:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 1 << 33),
        st.booleans(),
        st.integers(0, 300),
        st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3),
        st.lists(st.floats(-2.5, 2.5), min_size=4, max_size=4),
    )
    def test_encode(self, sequence, pedal, mode, dpos, dquat):
        packet = ItpPacket(sequence, pedal, np.array(dpos), dquat=np.array(dquat), mode=mode)
        assert outcome(encode_itp, packet) == outcome(spec_encode_itp, packet)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_increments_raise_alike(self, bad):
        for dpos, dquat in (([bad, 0.0, 0.0], [1.0, 0, 0, 0]), ([0.0] * 3, [bad, 0, 0, 0])):
            packet = ItpPacket(0, True, np.array(dpos), dquat=np.array(dquat))
            assert outcome(encode_itp, packet) == outcome(spec_encode_itp, packet)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=40, max_size=40), st.booleans())
    def test_decode(self, data, fix_checksum):
        if fix_checksum:
            data = data[:38] + (sum(data[:38]) & 0xFFFF).to_bytes(2, "big")
        new = outcome(decode_itp, data)
        if new[0] == "ok":
            assert ("ok", itp_fields(new[1])) == outcome(spec_decode_itp, data)
        else:
            assert new == outcome(spec_decode_itp, data)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(any_floats, min_size=3, max_size=3), st.floats(1e-300, 1.0))
    def test_clamp_increment(self, dpos, limit):
        dpos = np.array(dpos)
        assert bits(clamp_increment(dpos, limit)) == bits(np.clip(dpos, -limit, limit))
        assert bits(clamp_increment(dpos)) == bits(
            np.clip(dpos, -constants.ITP_MAX_INCREMENT_M, constants.ITP_MAX_INCREMENT_M)
        )


# -- rounding and the encoder bank ---------------------------------------------------------


def spec_rint(values) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.rint(np.asarray(values, dtype=float)).astype(np.int64)


class TestRounding:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            any_floats,
            st.floats(-4.0, 4.0).map(lambda x: round(x * 2) / 2),  # ties
            st.sampled_from([2.0**63, -(2.0**63), 2.0**63 - 1024, 9.3e18, -9.3e18]),
        )
    )
    def test_rint_int64_matches_numpy_cast(self, value):
        assert rint_int64(value) == int(spec_rint([value])[0])


TWO_PI = 2.0 * np.pi


def spec_to_counts(mpos, cpr, noise, rng):
    with np.errstate(all="ignore"):
        counts = np.asarray(mpos, dtype=float) / TWO_PI * cpr
    if noise > 0:
        counts = counts + rng.normal(0.0, noise, counts.shape)
    return spec_rint(counts)


motor_angles = st.lists(
    st.one_of(st.floats(-2e3, 2e3), st.sampled_from([0.0, -0.0, 1e15])), min_size=3, max_size=3
)


class TestEncoderBank:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(motor_angles, min_size=1, max_size=4),
        st.floats(0.01, 3.0),
        st.integers(0, 2**32 - 1),
        st.sampled_from([4000, 512, 1]),
    )
    def test_noisy_counts_and_generator_state(self, reads, noise, seed, cpr):
        bank = EncoderBank(counts_per_rev=cpr, noise_counts=noise, rng=np.random.default_rng(seed))
        spec_rng = np.random.default_rng(seed)
        for mpos in reads:
            assert bits(bank.to_counts(mpos)) == bits(spec_to_counts(mpos, cpr, noise, spec_rng))
        assert bank._rng.bit_generator.state == spec_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(st.lists(any_floats, min_size=3, max_size=3))
    def test_noise_free_counts_on_any_float(self, mpos):
        bank = EncoderBank()
        assert bits(bank.to_counts(mpos)) == bits(
            spec_to_counts(mpos, bank.counts_per_rev, 0.0, None)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-(1 << 23), (1 << 23) - 1), min_size=3, max_size=3))
    def test_to_radians(self, counts):
        bank = EncoderBank()
        spec = np.asarray(counts, dtype=float) * TWO_PI / bank.counts_per_rev
        assert bits(bank.to_radians(counts)) == bits(spec)
        assert bits(bank.to_radians(np.array(counts, dtype=np.int64))) == bits(spec)


# -- workspace ---------------------------------------------------------------------------


WS = Workspace()
LOWER, UPPER = WS.lower, WS.upper


def joint_component(i):
    return st.one_of(
        st.sampled_from(
            [LOWER[i], UPPER[i], math.nan, 0.0, -0.0, math.inf, -math.inf]
        ),
        st.floats(LOWER[i] - 0.5, UPPER[i] + 0.5),
        st.floats(-1e-9, 1e-9).map(lambda e, i=i: LOWER[i] + e),
        st.floats(-1e-9, 1e-9).map(lambda e, i=i: UPPER[i] + e),
    )


joint_targets = st.tuples(joint_component(0), joint_component(1), joint_component(2))


class TestWorkspace:
    @settings(max_examples=400, deadline=None)
    @given(joint_targets, st.sampled_from([0.0, 0.01, 1e-12, -0.0]))
    def test_contains(self, q, margin):
        q = np.array(q)
        spec = bool(np.all(q >= LOWER + margin) and np.all(q <= UPPER - margin))
        assert WS.contains(q, margin=margin) is spec

    @settings(max_examples=400, deadline=None)
    @given(joint_targets)
    def test_clamp(self, q):
        q = np.array(q)
        assert bits(WS.clamp(q)) == bits(np.clip(q, LOWER, UPPER))


# -- PID ---------------------------------------------------------------------------------


class SpecPid:
    """The vector PID on numpy arrays."""

    def __init__(self, gains=DEFAULT_GAINS, output_limit_a=None):
        n = len(gains)
        self._kp = np.array([g.kp for g in gains])
        self._ki = np.array([g.ki for g in gains])
        self._kd = np.array([g.kd for g in gains])
        self._int_limit = np.array([g.integral_limit for g in gains])
        if output_limit_a is None:
            output_limit_a = [constants.DAC_FULL_SCALE_CURRENT_A] * n
        self._out_limit = np.asarray(output_limit_a, dtype=float)
        self._integral = np.zeros(n)
        self._prev = None

    def reset(self):
        self._integral[:] = 0.0
        self._prev = None

    def update(self, setpoint, measurement, dt=constants.CONTROL_PERIOD_S):
        setpoint = np.asarray(setpoint, dtype=float)
        measurement = np.asarray(measurement, dtype=float)
        error = setpoint - measurement
        self._integral = np.clip(
            self._integral + error * dt, -self._int_limit, self._int_limit
        )
        if self._prev is None:
            derivative = np.zeros_like(error)
        else:
            derivative = -(measurement - self._prev) / dt
        self._prev = measurement
        out = self._kp * error + self._ki * self._integral + self._kd * derivative
        return np.clip(out, -self._out_limit, self._out_limit)


vec3 = st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3)


class TestMotorPid:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(vec3, vec3, st.booleans()), min_size=1, max_size=30),
        # Non-zero limits: numpy's clip against *array* bounds returns the
        # bound on a tie, so it and min(max(...)) give different signed
        # zeros when a bound is 0.0 (a motor that may draw no current).
        st.sampled_from([None, [0.5, 1.0, 2.0], [1e-300, 6.0, 1e300]]),
        st.sampled_from([constants.CONTROL_PERIOD_S, 2e-3]),
    )
    def test_update_sequences_across_reset(self, steps, limits, dt):
        pid, spec = MotorPid(output_limit_a=limits), SpecPid(output_limit_a=limits)
        for setpoint, measurement, reset in steps:
            if reset:
                pid.reset()
                spec.reset()
            assert bits(pid.update(setpoint, measurement, dt)) == bits(
                spec.update(setpoint, measurement, dt)
            )
            assert bits(pid.integral) == bits(spec._integral)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_measurement(self, bad):
        pid, spec = MotorPid(), SpecPid()
        for measurement in ([0.1, bad, 0.0], [0.2, 0.0, bad]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = spec.update([1.0, 1.0, 1.0], measurement)
            assert bits(pid.update([1.0, 1.0, 1.0], measurement)) == bits(expected)


# -- kinematics --------------------------------------------------------------------------


def spec_inverse(arm: SphericalArm, position, reference=None):
    """Closed-form IK with numpy scalars, two matmul chains and a sort."""
    g = arm.geometry
    rel = np.asarray(position, dtype=float) - g.rcm_position
    d = float(np.linalg.norm(rel))
    if d < 1e-9:
        raise InverseKinematicsError("target position coincides with the remote centre of motion")
    u = rel / d
    ux, uy, uz = u
    a = math.sin(g.alpha1) * ux
    b = -math.sin(g.alpha1) * uy
    c = math.cos(g.alpha2) - math.cos(g.alpha1) * uz
    r = math.hypot(a, b)
    if r < 1e-12 or abs(c) > r + 1e-12:
        raise InverseKinematicsError(f"position {position!r} is outside the reachable cone")
    phi = math.atan2(a, b)
    delta = math.acos(max(-1.0, min(1.0, c / r)))
    candidates = []
    for q1 in (phi + delta, phi - delta):
        q1 = _wrap_angle(q1)
        v = rot_x(-g.alpha1) @ rot_z(-q1) @ u
        candidates.append(np.array([q1, math.atan2(v[0], -v[1]), d]))
    if reference is None:
        candidates.sort(key=lambda s: abs(s[0]))
        return candidates[0]
    ref = np.asarray(reference, dtype=float)
    candidates.sort(
        key=lambda s: abs(_wrap_angle(s[0] - ref[0])) + abs(_wrap_angle(s[1] - ref[1]))
    )
    return candidates[0]


joints = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.01, 0.3))


class TestSphericalArmInverse:
    @settings(max_examples=300, deadline=None)
    @given(joints, st.one_of(st.none(), joints), st.booleans())
    def test_reachable_targets_both_branches(self, q, reference, perturb):
        arm = SphericalArm()
        position = arm.forward(np.array(q))
        if perturb:
            position = position * (1.0 + 1e-3)
        ref = None if reference is None else np.array(reference)
        new = outcome(arm.inverse, position, reference=ref)
        spec = outcome(spec_inverse, arm, position, reference=ref)
        if new[0] == "ok":
            assert spec[0] == "ok" and bits(new[1]) == bits(spec[1])
        else:
            assert new == spec

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
    def test_arbitrary_targets(self, position):
        arm = SphericalArm()
        new = outcome(arm.inverse, position)
        spec = outcome(spec_inverse, arm, position)
        if new[0] == "ok":
            assert spec[0] == "ok" and bits(new[1]) == bits(spec[1])
        else:
            assert new == spec

    def test_both_branches_are_taken(self):
        arm = SphericalArm()
        branches = set()
        for q in ([0.3, 1.2, 0.1], [-0.3, -1.2, 0.1], [2.5, 0.4, 0.2], [-2.5, -0.4, 0.2]):
            position = arm.forward(np.array(q))
            for reference in (None, np.array(q)):
                got = arm.inverse(position, reference=reference)
                assert bits(got) == bits(spec_inverse(arm, position, reference))
                branches.add(round(float(got[0]), 6))
        assert len(branches) >= 4


def spec_normalize(q):
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q)
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm


def spec_wrist_targets(wrist: WristKinematics, ori):
    w, x, y, z = spec_normalize(spec_normalize(ori))
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    pitch = -math.asin(max(-1.0, min(1.0, m[2, 0])))
    if abs(m[2, 0]) < 1.0 - 1e-9:
        roll = math.atan2(m[1, 0], m[0, 0])
        yaw = math.atan2(m[2, 1], m[2, 2])
    else:
        roll = math.atan2(-m[0, 1], m[1, 1])
        yaw = 0.0
    return np.array([roll, pitch, yaw + wrist.grasp_half_angle, yaw - wrist.grasp_half_angle])


quaternions = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
angles = st.floats(-3.0, 3.0)


class TestQuaternionsAndWrist:
    @settings(max_examples=300, deadline=None)
    @given(quaternions, quaternions)
    def test_normalize_and_multiply(self, a, b):
        a, b = np.array(a), np.array(b)
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        spec_product = np.array(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ]
        )
        assert bits(quat_multiply(a, b)) == bits(spec_product)
        assert outcome(lambda: bits(quat_normalize(a))) == outcome(
            lambda: bits(spec_normalize(a))
        )

    @settings(max_examples=300, deadline=None)
    @given(quaternions, st.floats(-0.5, 0.5))
    def test_targets_from_quaternion(self, ori, grasp):
        ori = np.array(ori)
        assume(np.linalg.norm(ori) >= 1e-6)
        wrist = WristKinematics(grasp_half_angle=grasp)
        assert bits(wrist.targets_from_quaternion(ori)) == bits(spec_wrist_targets(wrist, ori))

    @settings(max_examples=100, deadline=None)
    @given(angles, st.sampled_from([math.pi / 2, -math.pi / 2]), angles, st.floats(0.5, 2.0))
    def test_gimbal_lock_branch(self, roll, pitch, yaw, scale):
        ori = euler_zyx_to_quat(roll, pitch, yaw) * scale
        wrist = WristKinematics()
        w, x, y, z = spec_normalize(spec_normalize(ori))
        assert abs(2 * (x * z - w * y)) >= 1.0 - 1e-9  # the gimbal-lock branch
        assert bits(wrist.targets_from_quaternion(ori)) == bits(spec_wrist_targets(wrist, ori))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), max_size=10))
    def test_wrist_servo_steps(self, targets):
        wrist = WristKinematics()
        joints = np.zeros(4)
        alpha = 1.0 - math.exp(-constants.CONTROL_PERIOD_S / wrist.time_constant)
        for target in targets:
            joints = joints + alpha * (np.asarray(target, dtype=float) - joints)
            assert bits(wrist.step(target, constants.CONTROL_PERIOD_S)) == bits(joints)
            assert bits(wrist.joints) == bits(joints)


class SpecTremor(TremorModel):
    """The tremor resonator on numpy arrays."""

    def __init__(self, rng, **kwargs):
        super().__init__(rng, **kwargs)
        self._x, self._v = np.zeros(3), np.zeros(3)

    def sample(self, dt):
        drive = self._rng.standard_normal(3) * self.omega**1.5 / math.sqrt(dt)
        acc = drive - 2 * self.damping * self.omega * self._v - self.omega**2 * self._x
        self._v = self._v + acc * dt
        self._x = self._x + self._v * dt
        return self._x * (self.amplitude * 2.0 * math.sqrt(self.damping))


class TestTremor:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-6, 1e-3), st.floats(5.0, 12.0))
    def test_samples_and_generator_state(self, seed, amplitude, frequency):
        tremor = TremorModel(np.random.default_rng(seed), amplitude, frequency)
        spec = SpecTremor(np.random.default_rng(seed), amplitude_m=amplitude, frequency_hz=frequency)
        for _ in range(20):
            assert bits(tremor.sample(1e-3)) == bits(spec.sample(1e-3))
        assert tremor._rng.bit_generator.state == spec._rng.bit_generator.state


# -- plant -------------------------------------------------------------------------------


class SpecPlant(RavenPlant):
    """The plant step on numpy arrays: ``dac_to_current``, min/max
    saturation, ``np.exp`` on every derivative call, ``joint_torques`` and
    a fresh ``G @ q`` for every motor position read."""

    @property
    def mpos(self):
        return self.transmission.motor_positions(self._y[0:3])

    def step(self, dac_values, dt=constants.CONTROL_PERIOD_S):
        if self.brakes_engaged:
            self._time += dt
            return self.snapshot()
        if self._brake_countdown is not None:
            dac_values = np.zeros(3)
            self._brake_countdown -= dt
        setpoints = dac_to_current(dac_values)
        setpoints = np.minimum(np.maximum(setpoints, -self._i_max), self._i_max)
        i0 = self._y[6:9].copy()
        t0 = self._time
        per_motor = list(zip(self._kt.tolist(), setpoints.tolist(), i0.tolist()))

        def f(t, y):
            decay = np.exp(-(t - t0) / self._tau_i).tolist()
            torques = [kt * (sp + (i - sp) * e) for (kt, sp, i), e in zip(per_motor, decay)]
            qddot = self.dynamics.acceleration(
                y[0:3],
                y[3:6],
                self.transmission.joint_torques(np.array(torques)),
                extra_inertia=self._reflected_inertia,
                extra_damping=self._reflected_damping,
            )
            return np.concatenate([y[3:6], qddot])

        h = dt / self.substeps
        y = self._y[0:6]
        t = t0
        for _ in range(self.substeps):
            y = self._stepper(f, t, y, h)
            t += h
        self._y[0:6] = y
        self._y[6:9] = setpoints + (i0 - setpoints) * np.exp(-dt / self._tau_i)
        self._time = t0 + dt
        if self._brake_countdown is not None and self._brake_countdown <= 0.0:
            self._lock_brakes()
        return self.snapshot()


dac_rows = st.lists(st.integers(-40000, 40000), min_size=3, max_size=3)


def snapshot_bits(state):
    return (
        float(state.time).hex(),
        bits(state.jpos),
        bits(state.jvel),
        bits(state.currents),
        bits(state.mpos),
        bits(state.mvel),
        state.brakes_engaged,
    )


class TestPlantStep:
    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(dac_rows, min_size=1, max_size=40),
        st.integers(1, 30),
        st.lists(dac_rows, min_size=1, max_size=10),
        st.sampled_from(["rk4", "euler"]),
    )
    def test_release_engage_lock_sequence(self, moving, coast_extra, after, integrator):
        plant = RavenPlant(integrator=integrator, initial_jpos=WS.neutral())
        spec = SpecPlant(integrator=integrator, initial_jpos=WS.neutral())

        def step_both(dac):
            assert snapshot_bits(plant.step(dac)) == snapshot_bits(spec.step(dac))
            assert plant._y.tobytes() == spec._y.tobytes()
            assert bits(plant.mpos) == bits(spec.mpos)

        step_both(np.array(moving[0], dtype=float))  # brakes engaged: time only
        plant.release_brakes()
        spec.release_brakes()
        for dac in moving:
            step_both(np.array(dac, dtype=float))
        plant.engage_brakes()
        spec.engage_brakes()
        coast = int(round(plant.brake_delay_s / constants.CONTROL_PERIOD_S))
        for k in range(coast + coast_extra):
            step_both(np.array(after[k % len(after)], dtype=float))
        assert plant.brakes_engaged and spec.brakes_engaged
        plant.release_brakes()
        spec.release_brakes()
        for dac in after:
            step_both(list(dac))
        plant.set_state(WS.neutral())
        spec.set_state(WS.neutral())
        assert bits(plant.mpos) == bits(spec.mpos)
