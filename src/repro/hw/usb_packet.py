"""USB packet formats between the control software and the USB I/O boards.

Command packets (software -> board), 18 bytes, as in Figure 5 of the paper:

    Byte 0      operational-state nibble | watchdog square wave in bit 4
    Bytes 1-16  eight 16-bit big-endian signed DAC commands
    Byte 17     additive checksum of bytes 0-16

Feedback packets (board -> software), 26 bytes:

    Byte 0      state echo | watchdog echo (bit 4)
    Bytes 1-24  eight 24-bit big-endian signed encoder counts
    Byte 25     additive checksum of bytes 0-24

The checksum exists but the USB board never verifies it on received
command packets — the integrity gap the paper's scenario-B attack rides
through.  The *decoder* reports checksum validity so honest parties (and
the detector) may check it, while the board deliberately ignores it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence

from repro import constants
from repro.errors import PacketError
from repro.robot_state import RobotState

#: Size of a command packet (bytes).
COMMAND_PACKET_SIZE = constants.USB_PACKET_SIZE

#: Size of a feedback packet (bytes).
FEEDBACK_PACKET_SIZE = 26

#: Command bytes 0-16: state byte, eight big-endian int16 DACs.
_COMMAND = struct.Struct(">B8h")

#: Feedback bytes 0-24: state byte, then each 24-bit count as its signed
#: high byte and unsigned low 16 bits (``count = high * 65536 + low``).
_FEEDBACK = struct.Struct(">B" + "bH" * constants.USB_NUM_CHANNELS)

#: Fill for missing channels (two feedback fields per channel).
_ZEROS = (0,) * (2 * constants.USB_NUM_CHANNELS)


def _checksum(data: bytes) -> int:
    return sum(data) & 0xFF


def _state_byte(state: RobotState, watchdog: bool) -> int:
    value = state.byte_value
    if watchdog:
        value |= 1 << constants.USB_WATCHDOG_BIT
    return value


def _fit(values: Sequence[int], bits: int, what: str) -> List[int]:
    """``int()`` of each value, in channel order; :class:`PacketError` on
    the first that does not fit a signed ``bits``-bit field."""
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    out = []
    for value in values:
        value = int(value)
        if not (low <= value <= high):
            raise PacketError(f"{what} {value} out of int{bits} range")
        out.append(value)
    return out


@dataclass(frozen=True)
class CommandPacket:
    """Decoded command packet."""

    raw_state_byte: int
    state: RobotState
    watchdog: bool
    dac_values: List[int]
    checksum_ok: bool


@dataclass(frozen=True)
class FeedbackPacket:
    """Decoded feedback packet."""

    raw_state_byte: int
    state: RobotState
    watchdog: bool
    encoder_counts: List[int]
    checksum_ok: bool


def encode_command_packet(
    state: RobotState, watchdog: bool, dac_values: Sequence[int]
) -> bytes:
    """Encode a command packet.

    ``dac_values`` may have up to 8 channels; missing channels are zero.

    Raises
    ------
    PacketError
        If a DAC value does not fit in a signed 16-bit field.
    """
    if len(dac_values) > constants.USB_NUM_CHANNELS:
        raise PacketError(f"at most {constants.USB_NUM_CHANNELS} DAC channels")
    state_byte = _state_byte(state, watchdog)
    dacs = _fit(dac_values, 16, "DAC value")
    body = _COMMAND.pack(
        state_byte, *dacs, *_ZEROS[: constants.USB_NUM_CHANNELS - len(dacs)]
    )
    return body + bytes((_checksum(body),))


def decode_command_packet(data: bytes) -> CommandPacket:
    """Decode a command packet (reports, but does not enforce, the checksum)."""
    if len(data) != COMMAND_PACKET_SIZE:
        raise PacketError(
            f"command packet must be {COMMAND_PACKET_SIZE} bytes, got {len(data)}"
        )
    raw_state, *dac_values = _COMMAND.unpack_from(data)
    checksum_ok = data[constants.USB_CHECKSUM_OFFSET] == _checksum(
        data[: constants.USB_CHECKSUM_OFFSET]
    )
    return CommandPacket(
        raw_state_byte=raw_state,
        state=RobotState.from_byte(raw_state),
        watchdog=bool(raw_state & (1 << constants.USB_WATCHDOG_BIT)),
        dac_values=dac_values,
        checksum_ok=checksum_ok,
    )


def encode_feedback_packet(
    state: RobotState, watchdog: bool, encoder_counts: Sequence[int]
) -> bytes:
    """Encode a feedback packet with up to 8 encoder channels."""
    if len(encoder_counts) > constants.USB_NUM_CHANNELS:
        raise PacketError(f"at most {constants.USB_NUM_CHANNELS} encoder channels")
    fields = [_state_byte(state, watchdog)]
    for count in _fit(encoder_counts, 24, "encoder count"):
        fields += (count >> 16, count & 0xFFFF)
    body = _FEEDBACK.pack(*fields, *_ZEROS[len(fields) - 1 :])
    return body + bytes((_checksum(body),))


def decode_feedback_packet(data: bytes) -> FeedbackPacket:
    """Decode a feedback packet."""
    if len(data) != FEEDBACK_PACKET_SIZE:
        raise PacketError(
            f"feedback packet must be {FEEDBACK_PACKET_SIZE} bytes, got {len(data)}"
        )
    fields = _FEEDBACK.unpack_from(data)
    raw_state = fields[0]
    checksum_ok = data[FEEDBACK_PACKET_SIZE - 1] == _checksum(
        data[: FEEDBACK_PACKET_SIZE - 1]
    )
    return FeedbackPacket(
        raw_state_byte=raw_state,
        state=RobotState.from_byte(raw_state),
        watchdog=bool(raw_state & (1 << constants.USB_WATCHDOG_BIT)),
        encoder_counts=[fields[i] * 65536 + fields[i + 1] for i in range(1, 17, 2)],
        checksum_ok=checksum_ok,
    )
