"""Operational state machine of the RAVEN II robot (Figure 1(c)).

The robot navigates four states:

    E-STOP --(start button)--> INIT --(homing done)--> PEDAL_UP
    PEDAL_UP  <--(pedal release)/(pedal press)-->  PEDAL_DOWN
    any state --(emergency stop / watchdog loss)--> E-STOP

The current state is encoded into Byte 0 of every USB packet (low nibble;
see :mod:`repro.hw.usb_packet`), which is exactly the information leak the
paper's offline analysis recovers.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

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

#: Legal transitions (besides the always-allowed transition to E-STOP).
_TRANSITIONS: Dict[RobotState, Tuple[RobotState, ...]] = {
    RobotState.E_STOP: (RobotState.INIT,),
    RobotState.INIT: (RobotState.PEDAL_UP,),
    RobotState.PEDAL_UP: (RobotState.PEDAL_DOWN,),
    RobotState.PEDAL_DOWN: (RobotState.PEDAL_UP,),
}


class OperationalStateMachine:
    """Tracks the robot's operational state and enforces legal transitions."""

    def __init__(self, initial: RobotState = RobotState.E_STOP) -> None:
        self._state = initial
        self._listeners: List[Callable[[RobotState, RobotState], None]] = []
        self._history: List[Tuple[float, RobotState]] = [(0.0, initial)]

    @property
    def state(self) -> RobotState:
        """Current operational state."""
        return self._state

    @property
    def history(self) -> List[Tuple[float, RobotState]]:
        """(time, state) pairs for every transition, oldest first."""
        return list(self._history)

    def add_listener(self, fn: Callable[[RobotState, RobotState], None]) -> None:
        """Register a callback invoked as ``fn(old, new)`` on transitions."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[RobotState, RobotState], None]) -> None:
        """Unregister a callback added with :meth:`add_listener`."""
        self._listeners.remove(fn)

    def _move(self, new: RobotState, time: float) -> None:
        old = self._state
        if new is old:
            return
        self._state = new
        self._history.append((time, new))
        for fn in self._listeners:
            fn(old, new)

    # -- events ---------------------------------------------------------------

    def press_start(self, time: float = 0.0) -> None:
        """Physical start button: leave E-STOP and begin initialization."""
        if self._state is not RobotState.E_STOP:
            raise StateMachineError(
                f"start button only acts in E-STOP (currently {self._state})"
            )
        self._move(RobotState.INIT, time)

    def initialization_done(self, time: float = 0.0) -> None:
        """Homing/self-test complete: become ready for teleoperation."""
        if self._state is not RobotState.INIT:
            raise StateMachineError(
                f"initialization_done only acts in INIT (currently {self._state})"
            )
        self._move(RobotState.PEDAL_UP, time)

    def set_pedal(self, pressed: bool, time: float = 0.0) -> None:
        """Foot-pedal edge: switch between Pedal Up and Pedal Down.

        Pedal events in E-STOP or INIT are ignored (the console is
        disengaged there), matching the real robot.
        """
        if pressed and self._state is RobotState.PEDAL_UP:
            self._move(RobotState.PEDAL_DOWN, time)
        elif not pressed and self._state is RobotState.PEDAL_DOWN:
            self._move(RobotState.PEDAL_UP, time)

    def emergency_stop(self, time: float = 0.0, reason: Optional[str] = None) -> None:
        """Drop to E-STOP from any state (button, PLC, or safety check)."""
        self._last_estop_reason = reason
        self._move(RobotState.E_STOP, time)

    @property
    def last_estop_reason(self) -> Optional[str]:
        """Why the last emergency stop happened, if one occurred."""
        return getattr(self, "_last_estop_reason", None)

    def can_transition(self, new: RobotState) -> bool:
        """Whether a (non-E-STOP) transition to ``new`` is legal now."""
        if new is RobotState.E_STOP:
            return True
        return new in _TRANSITIONS[self._state]

    @property
    def engaged(self) -> bool:
        """True when the robot is teleoperated with brakes released."""
        return self._state is RobotState.PEDAL_DOWN
