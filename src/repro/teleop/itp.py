"""Interoperable Teleoperation Protocol (ITP) packet codec.

ITP is the UDP-based protocol between the master console and the RAVEN
control software.  Each packet carries the surgeon's *incremental* motion
command for one control period plus foot-pedal status and control mode.

Wire format (40 bytes, big-endian):

    offset  size  field
    0       4     sequence number (uint32)
    4       1     foot pedal (0 = up, 1 = down)
    5       1     control mode (1 = Cartesian teleoperation)
    6       12    position increment, 3 x int32 nanometres
    18      16    orientation increment quaternion, 4 x int32 (Q30 fixed point)
    34      4     reserved
    38      2     additive 16-bit checksum of bytes 0-37
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import constants
from repro.errors import ChecksumError, PacketError

#: Cartesian incremental teleoperation mode.
ITP_MODE_CARTESIAN = 1

_NM_PER_M = 1e9
_Q30 = float(1 << 30)
_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1
_IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])

#: Bytes 0-37: sequence, pedal, mode, position and orientation increments,
#: reserved padding.  The checksum over them follows as one uint16.
_BODY = struct.Struct(">IBB3i4i4x")
_CHECKSUM = struct.Struct(">H")


@dataclass(frozen=True)
class ItpPacket:
    """One console command: incremental motion + pedal + mode."""

    sequence: int
    pedal_down: bool
    dpos: np.ndarray
    dquat: np.ndarray = field(default_factory=_IDENTITY_QUAT.copy)
    mode: int = ITP_MODE_CARTESIAN

    def __post_init__(self) -> None:
        dpos = np.asarray(self.dpos, dtype=float)
        dquat = np.asarray(self.dquat, dtype=float)
        if dpos.shape != (3,):
            raise PacketError("dpos must be a 3-vector")
        if dquat.shape != (4,):
            raise PacketError("dquat must be a quaternion (w, x, y, z)")
        object.__setattr__(self, "dpos", dpos)
        object.__setattr__(self, "dquat", dquat)


def _checksum16(data: bytes) -> int:
    return sum(data) & 0xFFFF


def encode_itp(packet: ItpPacket) -> bytes:
    """Serialize an :class:`ItpPacket` to its 40-byte wire form."""
    dpos = []
    for value in packet.dpos.tolist():
        scaled = int(round(value * _NM_PER_M))
        if not (_INT32_MIN <= scaled <= _INT32_MAX):
            raise PacketError(f"position increment {value} m out of range")
        dpos.append(scaled)
    dquat = [
        max(_INT32_MIN, min(_INT32_MAX, int(round(value * _Q30))))
        for value in packet.dquat.tolist()
    ]
    body = _BODY.pack(
        packet.sequence & 0xFFFFFFFF,
        1 if packet.pedal_down else 0,
        packet.mode & 0xFF,
        *dpos,
        *dquat,
    )
    return body + _CHECKSUM.pack(_checksum16(body))


def decode_itp(data: bytes, verify_checksum: bool = True) -> ItpPacket:
    """Parse a 40-byte wire packet back to an :class:`ItpPacket`.

    Raises
    ------
    PacketError
        On wrong length.
    ChecksumError
        On checksum mismatch when ``verify_checksum`` is set.  Unlike the
        USB boards, the *control software* does validate console packets.
    """
    if len(data) != constants.ITP_PACKET_SIZE:
        raise PacketError(
            f"ITP packet must be {constants.ITP_PACKET_SIZE} bytes, got {len(data)}"
        )
    if verify_checksum:
        expected = _checksum16(data[:38])
        (got,) = _CHECKSUM.unpack_from(data, 38)
        if expected != got:
            raise ChecksumError(
                f"ITP checksum mismatch: expected {expected:#06x}, got {got:#06x}"
            )
    sequence, pedal, mode, x, y, z, qw, qx, qy, qz = _BODY.unpack_from(data)
    return ItpPacket(
        sequence=sequence,
        pedal_down=bool(pedal),
        dpos=np.array([x / _NM_PER_M, y / _NM_PER_M, z / _NM_PER_M]),
        dquat=np.array([qw / _Q30, qx / _Q30, qy / _Q30, qz / _Q30]),
        mode=mode,
    )


def corrupt_itp(data: bytes, byte_index: int, xor_mask: int = 0xFF) -> bytes:
    """Flip bits of one wire byte (line-noise model for fault injection).

    XORing any byte in ``[0, 38)`` breaks the additive checksum, so the
    control software's :func:`decode_itp` rejects the packet — on-the-wire
    corruption therefore manifests to the receiver as packet loss, which is
    exactly how the real ITP/UDP link degrades.  Corrupting the checksum
    bytes themselves (offsets 38-39) has the same effect.
    """
    if not data:
        return data
    out = bytearray(data)
    out[byte_index % len(out)] ^= xor_mask & 0xFF
    return bytes(out)


def clamp_increment(
    dpos: np.ndarray, limit: Optional[float] = None
) -> np.ndarray:
    """Clamp a position increment to the per-packet safety limit.

    The control software rejects/clips increments exceeding
    :data:`repro.constants.ITP_MAX_INCREMENT_M` per axis.
    """
    limit = constants.ITP_MAX_INCREMENT_M if limit is None else limit
    # min(max(v, lo), hi) is np.clip bit for bit for non-zero bounds, NaN too.
    return np.array(
        [min(max(v, -limit), limit) for v in np.asarray(dpos, dtype=float).tolist()]
    )
