"""The custom 8-channel USB interface board.

The board sits between the control software and the motor controllers/PLC
(Figure 1(b)).  It appears to the control process as a file descriptor:
``write`` delivers a command packet, ``read`` returns a feedback packet
with the encoder counts.

Security-relevant behaviour reproduced from the paper:

- the board does **not** verify the integrity of received command packets
  (the checksum is ignored), so bytes modified after the software safety
  checks are executed as-is;
- every command packet carries the operational state and watchdog in
  Byte 0, which the board forwards to the PLC — and which any wrapper
  around ``write`` can observe (the state side channel).

An optional *guard* hook runs before a command packet is executed; the
dynamic-model detector of Section IV installs itself there, the paper's
suggested "last computational component before the motor controllers".

An optional *DAC fault* hook (:attr:`UsbBoard.dac_fault`) corrupts the DAC
values **after** the guard decision, on their way into the motor
controllers — modelling output-hardware faults (stuck-at channels, driver
saturation) that no software component, detector included, can observe
directly.  :mod:`repro.testing.physfaults` installs it; production pays
one attribute check.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.errors import PacketError
from repro.hw.encoder import EncoderBank
from repro.hw.motor_controller import MotorController
from repro.hw.plc import Plc
from repro.hw.usb_packet import (
    CommandPacket,
    decode_command_packet,
    encode_feedback_packet,
)

#: A guard receives the decoded packet and the raw bytes and returns True to
#: allow execution, False to block it.
Guard = Callable[[CommandPacket, bytes], bool]


class UsbBoard:
    """One USB interface board driving three motor channels."""

    def __init__(
        self,
        motor_controller: MotorController,
        plc: Plc,
        encoders: Optional[EncoderBank] = None,
        guard: Optional[Guard] = None,
    ) -> None:
        self.motor_controller = motor_controller
        self.plc = plc
        self.encoders = encoders or EncoderBank()
        self.guard = guard
        #: Optional physical-fault hook applied to the DAC values actually
        #: latched into the motor controllers (post-guard).
        self.dac_fault: Optional[Callable[[Sequence[int]], Sequence[int]]] = None
        self.packets_received = 0
        self.packets_blocked = 0
        self.malformed_packets = 0
        self._last_packet: Optional[CommandPacket] = None

    # -- DeviceFile interface ---------------------------------------------------

    def fd_write(self, data: bytes) -> int:
        """Receive a command packet from the control software.

        No integrity verification is performed (the vulnerability); a
        malformed length is dropped, as real firmware drops short URBs.
        """
        try:
            packet = decode_command_packet(data)
        except PacketError:
            self.malformed_packets += 1
            return len(data)
        self.packets_received += 1
        self._last_packet = packet
        self.plc.observe_packet(packet.state, packet.watchdog)
        if self.guard is not None and not self.guard(packet, data):
            # Blocked: the motors get a null (zero-current) command for
            # this cycle instead of the suspicious one — torque-neutral,
            # so the arm holds its state apart from gravity/friction.
            self.packets_blocked += 1
            self._latch([0, 0, 0])
            return len(data)
        self._latch(packet.dac_values[:3])
        return len(data)

    def _latch(self, dac_values: Sequence[int]) -> None:
        """Latch DAC values into the motor controllers, via any DAC fault.

        A stuck or saturating output stage corrupts whatever the board
        decides to execute — including the zero command of a blocked
        packet — so the fault applies after the guard, not before.
        """
        if self.dac_fault is not None:
            dac_values = self.dac_fault(dac_values)
        self.motor_controller.latch(list(dac_values))

    def fd_read(self, max_bytes: int) -> bytes:
        """Return a feedback packet with current encoder counts."""
        packet = encode_feedback_packet(
            state=self.plc.observed_state,
            watchdog=bool(self._last_packet.watchdog) if self._last_packet else False,
            encoder_counts=self.encoder_counts(),
        )
        return packet[:max_bytes]

    # -- diagnostics ------------------------------------------------------------

    @property
    def last_packet(self) -> Optional[CommandPacket]:
        """The most recently received command packet."""
        return self._last_packet

    def encoder_counts(self) -> List[int]:
        """Current encoder counts (test/diagnostic convenience)."""
        return self.encoders.to_counts(self.motor_controller.plant.mpos).tolist()
