"""Safety PLC: watchdog monitor, fail-safe brakes, E-STOP latch.

The PLC safety processor (Figure 1(b) of the paper):

- monitors the square-wave watchdog embedded in the USB packets; if the
  software stops toggling it (after detecting an unsafe command, or after
  crashing), the PLC puts the system into E-STOP;
- controls the fail-safe power-off brakes: engaged in every state except
  Pedal Down;
- latches E-STOP until the operator presses the physical start button.

It also exposes a small state register that the control software reads
during homing — the attack-variant table of the paper includes corrupting
"robot state in PLC", which manifests as a homing failure.
"""

from __future__ import annotations

from typing import Optional

from repro.dynamics.plant import RavenPlant
from repro.hw.motor_controller import MotorController
from repro.robot_state import RobotState


class Plc:
    """The safety PLC supervising one arm."""

    def __init__(
        self,
        plant: RavenPlant,
        motor_controller: MotorController,
        watchdog_timeout_cycles: int = 32,
    ) -> None:
        """Create the PLC.

        Parameters
        ----------
        plant:
            The physical plant whose brakes this PLC drives.
        motor_controller:
            Motor power is cut through this controller on E-STOP.
        watchdog_timeout_cycles:
            Control cycles without a watchdog edge before the PLC declares
            software failure (must exceed the watchdog half-period).
        """
        if watchdog_timeout_cycles < 2:
            raise ValueError("watchdog_timeout_cycles must be >= 2")
        self.plant = plant
        self.motor_controller = motor_controller
        self.watchdog_timeout_cycles = watchdog_timeout_cycles
        self._last_level: Optional[bool] = None
        self._cycles_since_edge = 0
        self._estop_latched = False
        self._estop_reason: Optional[str] = None
        self._observed_state = RobotState.E_STOP
        #: Homing/state register the control software reads during INIT.
        self.state_register: int = 0

    # -- observations from USB traffic ---------------------------------------

    def observe_packet(self, state: RobotState, watchdog_level: bool) -> None:
        """Called by the USB board for every command packet it receives."""
        self._observed_state = state
        if self._last_level is None or watchdog_level != self._last_level:
            self._cycles_since_edge = 0
        self._last_level = watchdog_level

    # -- per-cycle supervision -------------------------------------------------

    def tick(self) -> None:
        """Advance one control cycle: watchdog timeout + brake management."""
        self._cycles_since_edge += 1
        if (
            not self._estop_latched
            and self._last_level is not None
            and self._cycles_since_edge > self.watchdog_timeout_cycles
        ):
            self.trigger_estop("watchdog signal lost")
        self._apply_brakes()

    def _apply_brakes(self) -> None:
        engaged_wanted = (
            self._estop_latched or self._observed_state is not RobotState.PEDAL_DOWN
        )
        if engaged_wanted and not self.plant.brakes_engaged:
            self.plant.engage_brakes()
        elif not engaged_wanted and self.plant.brakes_engaged:
            self.plant.release_brakes()

    # -- E-STOP ---------------------------------------------------------------

    def trigger_estop(self, reason: str) -> None:
        """Latch the E-STOP: brakes on, motor power off."""
        self._estop_latched = True
        self._estop_reason = reason
        self._observed_state = RobotState.E_STOP
        self.plant.engage_brakes()
        self.motor_controller.power_off()

    def clear_estop(self) -> None:
        """Operator pressed the physical start button."""
        self._estop_latched = False
        self._estop_reason = None
        self._last_level = None
        self._cycles_since_edge = 0
        self.motor_controller.power_on()

    @property
    def estop_latched(self) -> bool:
        """Whether the PLC is holding the system in E-STOP."""
        return self._estop_latched

    @property
    def estop_reason(self) -> Optional[str]:
        """Why the PLC last latched E-STOP (None when not latched)."""
        return self._estop_reason

    @property
    def observed_state(self) -> RobotState:
        """The operational state last seen in USB traffic."""
        return self._observed_state
