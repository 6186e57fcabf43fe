"""Per-motor PID position controllers.

The RAVEN control software computes, every millisecond, the torque needed
for each motor to reach the desired motor position ``mpos_d`` from a
Proportional-Integral-Derivative controller, then transfers the torques as
DAC commands to the motor controllers (Figure 2 of the paper).

The controller output here is a *current* command (A) which the caller
converts to DAC counts; derivative action is taken on the measurement
(avoiding setpoint-kick), and the integral term is clamped (anti-windup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import constants


@dataclass(frozen=True)
class PidGains:
    """PID gains for one motor position loop (current output, A per rad)."""

    kp: float
    ki: float
    kd: float
    integral_limit: float = 2.0

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("PID gains must be non-negative")
        if self.integral_limit <= 0:
            raise ValueError("integral_limit must be positive")


#: Gains tuned for the default plant (RE40/RE40/RE30 with the default
#: transmission): stiff enough to track surgical motion with sub-millimetre
#: error, compliant enough that short torque injections are corrected, as
#: the paper observes for injections under ~64 ms.
DEFAULT_GAINS = (
    PidGains(kp=8.0, ki=40.0, kd=0.15),
    PidGains(kp=8.0, ki=40.0, kd=0.15),
    PidGains(kp=7.0, ki=35.0, kd=0.12),
)


class MotorPid:
    """Vector PID over the three modelled motor axes."""

    def __init__(
        self,
        gains: Sequence[PidGains] = DEFAULT_GAINS,
        output_limit_a: Optional[Sequence[float]] = None,
    ) -> None:
        """Create the controller.

        Parameters
        ----------
        gains:
            One :class:`PidGains` per motor.
        output_limit_a:
            Per-axis saturation of the current command (A); defaults to the
            DAC full-scale current.  The controller does *not* pre-clamp to
            the safety threshold — the software safety check compares the
            raw demand against the threshold afterwards, which is exactly
            how the RAVEN checks end up tripping when the PID fights a
            physical disturbance.
        """
        self.gains = tuple(gains)
        n = len(self.gains)
        self._kp = [float(g.kp) for g in self.gains]
        self._ki = [float(g.ki) for g in self.gains]
        self._kd = [float(g.kd) for g in self.gains]
        self._int_limit = [float(g.integral_limit) for g in self.gains]
        if output_limit_a is None:
            output_limit_a = [constants.DAC_FULL_SCALE_CURRENT_A] * n
        self._out_limit = np.asarray(output_limit_a, dtype=float).tolist()
        self._integral = [0.0] * n
        self._prev_measurement: Optional[List[float]] = None

    def reset(self) -> None:
        """Clear integral state and derivative memory (on E-STOP/re-engage)."""
        self._integral = [0.0] * len(self.gains)
        self._prev_measurement = None

    def update(
        self,
        setpoint: Sequence[float],
        measurement: Sequence[float],
        dt: float = constants.CONTROL_PERIOD_S,
    ) -> np.ndarray:
        """One PID step; returns the current command (A) per motor.

        Per axis, on floats, in the operation order of the vector form
        ``kp * e + ki * clip(I + e * dt) + kd * -(m - m_prev) / dt``, so
        every bit matches it.  ``min(max(v, lo), hi)`` is ``np.clip`` bit
        for bit, NaN included, while the limits are non-zero.
        """
        setpoint = np.asarray(setpoint, dtype=float).tolist()
        measurement = np.asarray(measurement, dtype=float).tolist()
        error = [sp - m for sp, m in zip(setpoint, measurement)]

        self._integral = [
            min(max(i + e * dt, -limit), limit)
            for i, e, limit in zip(self._integral, error, self._int_limit)
        ]
        prev = self._prev_measurement
        if prev is None:
            derivative = [0.0] * len(error)
        else:
            derivative = [-(m - p) / dt for m, p in zip(measurement, prev)]
        self._prev_measurement = measurement

        return np.array(
            [
                min(max(kp * e + ki * i + kd * d, -limit), limit)
                for kp, ki, kd, e, i, d, limit in zip(
                    self._kp,
                    self._ki,
                    self._kd,
                    error,
                    self._integral,
                    derivative,
                    self._out_limit,
                )
            ]
        )

    @property
    def integral(self) -> np.ndarray:
        """Current integral state (for tests and diagnostics)."""
        return np.array(self._integral)
