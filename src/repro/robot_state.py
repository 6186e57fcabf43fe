"""The operational states of the RAVEN II robot and their Byte-0 encoding.

A leaf module (it imports only :mod:`repro.constants` and
:mod:`repro.errors`), so that both the control software
(:mod:`repro.control.state_machine`, which re-exports :class:`RobotState`)
and the hardware below it (:mod:`repro.hw.usb_packet`, :mod:`repro.hw.plc`)
can name the states without importing each other.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro import constants
from repro.errors import StateMachineError


class RobotState(enum.Enum):
    """The four operational states of Figure 1(c)."""

    E_STOP = "E-STOP"
    INIT = "Init"
    PEDAL_UP = "Pedal Up"
    PEDAL_DOWN = "Pedal Down"

    @property
    def byte_value(self) -> int:
        """Low-nibble Byte 0 encoding of this state in USB packets."""
        return _STATE_TO_BYTE[self]

    @classmethod
    def from_byte(cls, value: int) -> "RobotState":
        """Decode a Byte 0 low nibble back to a state.

        Raises
        ------
        StateMachineError
            If the nibble does not encode a valid state.
        """
        masked = value & ~(1 << constants.USB_WATCHDOG_BIT)
        try:
            return _BYTE_TO_STATE[masked]
        except KeyError:
            raise StateMachineError(f"invalid state byte 0x{value:02X}") from None


_STATE_TO_BYTE: Dict[RobotState, int] = {
    RobotState.E_STOP: constants.STATE_BYTE_ESTOP,
    RobotState.INIT: constants.STATE_BYTE_INIT,
    RobotState.PEDAL_UP: constants.STATE_BYTE_PEDAL_UP,
    RobotState.PEDAL_DOWN: constants.STATE_BYTE_PEDAL_DOWN,
}

_BYTE_TO_STATE: Dict[int, RobotState] = {v: k for k, v in _STATE_TO_BYTE.items()}
