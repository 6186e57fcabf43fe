"""The coupled motor + manipulator plant of one RAVEN II arm.

This is the "physical robot" of the simulation framework (Figure 7(a) of
the paper): it receives the same DAC commands the control software sends to
the USB boards, integrates the motor and link ODEs, and exposes motor-shaft
positions for the encoders to read back.

State vector (9 elements): ``[q (3), qdot (3), i (3)]`` — joint positions,
joint velocities and motor winding currents.  Motor positions/velocities
are slaved to the joints through the rigid transmission.

The plant also models the PLC-controlled fail-safe brakes: while engaged
(Pedal-Up / E-STOP states) the joints are locked and DAC commands produce
no motion — which is why the paper's attacker must wait for "Pedal Down".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import constants
from repro.dynamics.integrators import get_integrator
from repro.dynamics.manipulator import ManipulatorDynamics
from repro.dynamics.motor import MAXON_RE30, MAXON_RE40, MotorParameters
from repro.dynamics.transmission import Transmission
from repro.errors import DynamicsError

#: Default motor fit-out: RE40 on shoulder and elbow, RE30 on insertion.
DEFAULT_MOTORS = (MAXON_RE40, MAXON_RE40, MAXON_RE30)


@dataclass
class PlantState:
    """Snapshot of the plant state at one instant."""

    time: float
    jpos: np.ndarray
    jvel: np.ndarray
    currents: np.ndarray
    mpos: np.ndarray
    mvel: np.ndarray
    brakes_engaged: bool

    def copy(self) -> "PlantState":
        """Deep copy of the snapshot."""
        return PlantState(
            time=self.time,
            jpos=self.jpos.copy(),
            jvel=self.jvel.copy(),
            currents=self.currents.copy(),
            mpos=self.mpos.copy(),
            mvel=self.mvel.copy(),
            brakes_engaged=self.brakes_engaged,
        )


def dac_to_current(dac_values: Sequence[float]) -> np.ndarray:
    """Convert DAC counts to current setpoints (A)."""
    dac = np.asarray(dac_values, dtype=float)
    return dac / constants.DAC_FULL_SCALE * constants.DAC_FULL_SCALE_CURRENT_A


def current_to_dac(currents: Sequence[float]) -> np.ndarray:
    """Convert current setpoints (A) to (float) DAC counts."""
    cur = np.asarray(currents, dtype=float)
    return cur / constants.DAC_FULL_SCALE_CURRENT_A * constants.DAC_FULL_SCALE


class RavenPlant:
    """Forward-simulates one arm: DAC commands in, joint/motor state out."""

    def __init__(
        self,
        dynamics: Optional[ManipulatorDynamics] = None,
        motors: Sequence[MotorParameters] = DEFAULT_MOTORS,
        transmission: Optional[Transmission] = None,
        integrator: str = "rk4",
        substeps: int = 2,
        initial_jpos: Optional[np.ndarray] = None,
    ) -> None:
        """Create the plant.

        Parameters
        ----------
        dynamics:
            Link dynamics; a default RAVEN-like arm when omitted.
        motors:
            One :class:`MotorParameters` per axis.
        transmission:
            Motor-joint transmission; default RAVEN-like ratios.
        integrator:
            Stepper used to advance the plant ODEs (the *plant* defaults to
            RK4 with substeps as ground truth; the real-time *detector
            model* makes its own cheaper choice).
        substeps:
            Integration substeps per 1 ms control period.
        initial_jpos:
            Starting joint vector; defaults to the mid-workspace pose.
        """
        if len(motors) != 3:
            raise DynamicsError("exactly three motors are required")
        self.dynamics = dynamics or ManipulatorDynamics()
        self.motors = tuple(motors)
        self.transmission = transmission or Transmission()
        self._stepper = get_integrator(integrator)
        self.integrator_name = integrator
        if substeps < 1:
            raise DynamicsError("substeps must be >= 1")
        self.substeps = substeps

        self._reflected_inertia = self.transmission.reflected_inertia(
            [m.rotor_inertia for m in self.motors]
        )
        self._reflected_damping = self.transmission.reflected_damping(
            [m.viscous_damping for m in self.motors]
        )
        self._kt = np.array([m.torque_constant for m in self.motors])
        self._tau_i = np.array([m.current_loop_tau for m in self.motors])
        self._i_max = np.array([m.max_current for m in self.motors])

        if initial_jpos is None:
            initial_jpos = np.array([0.0, 0.0, constants.JOINT3_NEUTRAL_M])
        self._time = 0.0
        self._y = np.concatenate(
            [np.asarray(initial_jpos, dtype=float), np.zeros(3), np.zeros(3)]
        )
        self.brakes_engaged = True
        #: Seconds for the fail-safe power-off brakes to fully clamp after
        #: an engage request (see :data:`repro.constants.BRAKE_ENGAGE_DELAY_S`).
        self.brake_delay_s = constants.BRAKE_ENGAGE_DELAY_S
        self._brake_countdown: Optional[float] = None

    # -- state access ---------------------------------------------------------

    @property
    def jpos(self) -> np.ndarray:
        """Joint positions (rad, rad, m)."""
        return self._y[0:3].copy()

    @property
    def jvel(self) -> np.ndarray:
        """Joint velocities."""
        return self._y[3:6].copy()

    @property
    def currents(self) -> np.ndarray:
        """Motor winding currents (A)."""
        return self._y[6:9].copy()

    @property
    def mpos(self) -> np.ndarray:
        """Motor shaft positions (rad)."""
        return self.transmission.motor_positions(self._y[0:3])

    @property
    def mvel(self) -> np.ndarray:
        """Motor shaft velocities (rad/s)."""
        return self.transmission.motor_velocities(self._y[3:6])

    @property
    def time(self) -> float:
        """Simulated plant time (s)."""
        return self._time

    def snapshot(self) -> PlantState:
        """Immutable snapshot of the current state."""
        return PlantState(
            time=self._time,
            jpos=self.jpos,
            jvel=self.jvel,
            currents=self.currents,
            mpos=self.mpos,
            mvel=self.mvel,
            brakes_engaged=self.brakes_engaged,
        )

    def set_state(self, jpos: np.ndarray, jvel: Optional[np.ndarray] = None) -> None:
        """Force the joint state (used for homing and test setup)."""
        self._y[0:3] = np.asarray(jpos, dtype=float)
        self._y[3:6] = 0.0 if jvel is None else np.asarray(jvel, dtype=float)
        self._y[6:9] = 0.0

    def engage_brakes(self) -> None:
        """Start engaging the fail-safe power-off brakes.

        Idempotent: repeated calls while the brakes are closing do not
        restart the countdown.  Motor power is cut immediately; the joints
        lock after :attr:`brake_delay_s` seconds of coasting.
        """
        if self.brakes_engaged or self._brake_countdown is not None:
            return
        if self.brake_delay_s <= 0.0:
            self._lock_brakes()
        else:
            self._brake_countdown = self.brake_delay_s

    def _lock_brakes(self) -> None:
        self.brakes_engaged = True
        self._brake_countdown = None
        self._y[3:6] = 0.0
        self._y[6:9] = 0.0

    def release_brakes(self) -> None:
        """Release the brakes (PLC does this on entering Pedal Down)."""
        self.brakes_engaged = False
        self._brake_countdown = None

    @property
    def brakes_engaging(self) -> bool:
        """Whether an engage request is pending (brakes still closing)."""
        return self._brake_countdown is not None

    # -- simulation -----------------------------------------------------------

    def _derivative(self, setpoints: np.ndarray, i0: np.ndarray, t0: float):
        """ODE right-hand side for the mechanical state ``[q, qdot]``.

        The closed current loops are linear first-order systems driven by a
        setpoint held constant over the control period, so their response
        ``i(t) = sp + (i0 - sp) * exp(-(t - t0) / tau)`` is evaluated
        analytically inside the derivative.  This removes the only stiff
        mode from the ODE and lets both the plant and the 1 ms Euler
        detector model integrate the mechanics alone.
        """
        transmission = self.transmission
        dynamics = self.dynamics
        refl_m = self._reflected_inertia
        refl_b = self._reflected_damping
        tau_i = self._tau_i
        per_motor = list(zip(self._kt.tolist(), setpoints.tolist(), i0.tolist()))

        def f(t: float, y: np.ndarray) -> np.ndarray:
            decay = np.exp(-(t - t0) / tau_i).tolist()
            # Motor torque kt * (sp + (i0 - sp) * decay), on floats.
            torques = [kt * (sp + (i - sp) * e) for (kt, sp, i), e in zip(per_motor, decay)]
            tau_joint = transmission.joint_torques(np.array(torques))
            qddot = dynamics.acceleration(
                y[0:3],
                y[3:6],
                tau_joint,
                extra_inertia=refl_m,
                extra_damping=refl_b,
            )
            return np.concatenate([y[3:6], qddot])

        return f

    def step(
        self, dac_values: Sequence[float], dt: float = constants.CONTROL_PERIOD_S
    ) -> PlantState:
        """Advance the plant by one control period under ``dac_values``.

        When the brakes are engaged the joints stay locked and the DAC
        command has no mechanical effect (the motors are also powered off).
        While the brakes are *closing* the arm coasts: motors are unpowered
        (zero current setpoint) but the mechanism keeps moving under its
        momentum, friction and gravity until the clamp completes.
        """
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
        f = self._derivative(setpoints, i0, t0)
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
