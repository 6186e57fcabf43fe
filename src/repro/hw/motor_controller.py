"""Motor controllers: latch DAC commands and drive the plant.

The motor controllers on the USB interface boards convert the latest DAC
command to a winding-current setpoint and hold it for the next control
period (zero-order hold).  They execute whatever they are given — the
current clamp in the servo amplifier is the only hardware-side limit,
mirroring the real system where "a corrupted or incorrect motor command can
pass to the motors".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import constants
from repro.dynamics.plant import PlantState, RavenPlant


class MotorController:
    """Zero-order-hold DAC execution on the physical plant."""

    def __init__(self, plant: RavenPlant) -> None:
        self.plant = plant
        self._latched_dac = np.zeros(3)
        self._powered = True

    @property
    def latched_dac(self) -> np.ndarray:
        """The DAC command currently held for execution."""
        return self._latched_dac.copy()

    @property
    def powered(self) -> bool:
        """Whether motor power is on (PLC can cut it in E-STOP)."""
        return self._powered

    def latch(self, dac_values: Sequence[float]) -> None:
        """Latch a new DAC command (first three channels are the motors)."""
        dac = np.asarray(dac_values, dtype=float)[:3]
        self._latched_dac = dac

    def power_off(self) -> None:
        """Cut motor power (PLC E-STOP); zero command until power returns."""
        self._powered = False
        self._latched_dac = np.zeros(3)

    def power_on(self) -> None:
        """Restore motor power (operator cleared the E-STOP)."""
        self._powered = True

    def tick(self, dt: float = constants.CONTROL_PERIOD_S) -> PlantState:
        """Execute the held command on the plant for one control period."""
        dac = self._latched_dac if self._powered else np.zeros(3)
        return self.plant.step(dac, dt)
