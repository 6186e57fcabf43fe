"""The real-time dynamic model of the RAVEN II physical system.

This is the software module the paper describes in Section IV.A.1: it
"mimics the dynamical behavior of the robotic actuators" by modelling the
MAXON DC motors and the first three (positioning) manipulator joints, and
estimates — within a fraction of the 1 ms control period — the next motor
and joint positions produced by a DAC command.

Differences from the ground-truth plant (:class:`repro.dynamics.RavenPlant`),
mirroring the paper's setup:

- the model integrates with a single fixed step per control period
  (explicit Euler by default; RK4 for the Figure-8 comparison) instead of
  the plant's sub-stepped RK4;
- the closed current loop is treated as instantaneous (``i = setpoint``),
  which is what makes a 1 ms Euler step stable;
- its coefficients are *tuned approximations*, not the plant's exact
  parameters — the paper obtains them "via manual tuning"; the
  ``parameter_error`` knob scales inertial/friction coefficients to model
  that imperfection.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro import constants
from repro.dynamics.friction import FrictionModel
from repro.dynamics.integrators import (
    check_finite,
    euler_step,
    get_integrator,
    nonfinite_error,
)
from repro.dynamics.manipulator import ManipulatorDynamics, ManipulatorParameters
from repro.dynamics.motor import MotorParameters
from repro.dynamics.plant import DEFAULT_MOTORS
from repro.dynamics.transmission import Transmission
from repro.errors import IntegrationError
from repro.obs.runtime import get_runtime
from repro.obs.timing import Stopwatch


class ModelPrediction:
    """Next-step state predicted from one DAC command."""

    __slots__ = ("jpos", "jvel", "mpos", "mvel", "elapsed_s")

    def __init__(
        self,
        jpos: np.ndarray,
        jvel: np.ndarray,
        mpos: np.ndarray,
        mvel: np.ndarray,
        elapsed_s: float,
    ) -> None:
        self.jpos = jpos
        self.jvel = jvel
        self.mpos = mpos
        self.mvel = mvel
        self.elapsed_s = elapsed_s


class RavenDynamicModel:
    """One-step-ahead model of motors + positioning joints."""

    def __init__(
        self,
        motors: Sequence[MotorParameters] = DEFAULT_MOTORS,
        manipulator_params: Optional[ManipulatorParameters] = None,
        transmission: Optional[Transmission] = None,
        friction: Optional[FrictionModel] = None,
        integrator: str = "euler",
        parameter_error: float = 1.0,
        dt: float = constants.CONTROL_PERIOD_S,
    ) -> None:
        """Create the model.

        Parameters
        ----------
        motors, manipulator_params, transmission, friction:
            Physical description; defaults match the nominal plant.
        integrator:
            Stepper used per control period (``euler`` or ``rk4``; the
            paper compares exactly these two in Figure 8).
        parameter_error:
            Multiplicative error applied to the model's inertial
            parameters, with the friction coefficients skewed the
            *opposite* way (``2 - parameter_error``) so the errors do not
            cancel in the equations of motion — 1.0 means a perfect model;
            the paper's manually tuned model corresponds to a few percent
            of error.
        dt:
            Step size; the paper uses the 1 ms control period.
        """
        params = manipulator_params or ManipulatorParameters()
        friction = friction or FrictionModel()
        if parameter_error != 1.0:
            params = params.scaled(parameter_error)
            friction = friction.scaled(max(0.1, 2.0 - parameter_error))
        self.dynamics = ManipulatorDynamics(params=params, friction=friction)
        self.motors = tuple(motors)
        self.transmission = transmission or Transmission()
        stepper = get_integrator(integrator)
        #: The shared stepper, or None for Euler, which :meth:`_advance`
        #: runs on floats.
        self._stepper = None if stepper is euler_step else stepper
        self.integrator_name = integrator
        self.dt = dt

        self._kt = np.array([m.torque_constant for m in self.motors])
        self._i_max = np.array([m.max_current for m in self.motors])
        self._refl_m = self.transmission.reflected_inertia(
            [m.rotor_inertia for m in self.motors]
        )
        self._refl_b = self.transmission.reflected_damping(
            [m.viscous_damping for m in self.motors]
        )
        # Float copies for the per-call glue, and G for the motor states.
        self._kt_floats = self._kt.tolist()
        self._i_max_floats = self._i_max.tolist()
        self._refl_m_floats = self._refl_m.ravel().tolist()
        self._g = self.transmission.joint_to_motor
        #: ``G.T``, the view ``Transmission.joint_torques`` multiplies by.
        self._g_t = self._g.T
        self._stopwatch = Stopwatch()
        #: Cumulative wall-clock statistics of :meth:`predict` (Figure 8).
        self.predict_calls = 0
        self.predict_seconds = 0.0
        # Telemetry (REPRO_OBS): per-prediction latency histogram.  None
        # when disabled, so the hot path pays one is-None branch.
        obs = get_runtime()
        self._predict_hist = (
            obs.registry.histogram(
                "repro_model_predict_seconds",
                "one-step dynamic-model prediction latency",
            )
            if obs.enabled
            else None
        )

    # -- state-to-state prediction ------------------------------------------------

    def step(
        self, jpos: np.ndarray, jvel: np.ndarray, dac_values: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate one control period from ``(jpos, jvel)`` under ``dac``.

        Returns the next ``(jpos, jvel)``.  No timing bookkeeping — use
        :meth:`predict` for the instrumented path.
        """
        y = self._advance(
            np.asarray(jpos, dtype=float), np.asarray(jvel, dtype=float), dac_values
        )
        return y[0:3], y[3:6]

    def _advance(
        self, jpos: np.ndarray, jvel: np.ndarray, dac_values: Sequence[float]
    ) -> np.ndarray:
        """The state ``[jpos, jvel]`` one control period on, as one array.

        ``jpos`` and ``jvel`` are float64 arrays.  Euler's one derivative
        evaluation and ``y + h * f`` run on floats, in
        :func:`~repro.dynamics.integrators.euler_step`'s operation order;
        any other integrator runs the shared stepper.
        """
        # Motor torques kt * clip(dac_to_current(dac)), on floats.
        full_scale, full_current = constants.DAC_FULL_SCALE, constants.DAC_FULL_SCALE_CURRENT_A
        torques = [
            kt * min(max(float(dac) / full_scale * full_current, -i_max), i_max)
            for dac, kt, i_max in zip(dac_values, self._kt_floats, self._i_max_floats)
        ]
        tau_joint = (self._g_t @ np.array(torques)).tolist()
        dynamics = self.dynamics
        refl_m, refl_b = self._refl_m_floats, self._refl_b

        if self._stepper is None:
            q = jpos.tolist()
            a0, a1, a2 = dynamics.acceleration_floats(q, jvel, tau_joint, refl_m, refl_b)
            p0, p1, p2 = q
            v0, v1, v2 = jvel.tolist()
            h = self.dt
            state = (
                p0 + h * v0, p1 + h * v1, p2 + h * v2,
                v0 + h * a0, v1 + h * a1, v2 + h * a2,
            )  # fmt: skip
            y = np.array(state)
            if not all(map(math.isfinite, state)):
                raise nonfinite_error(y, self.integrator_name)
            return y

        def f(_t: float, y: np.ndarray) -> np.ndarray:
            qdot = y[3:6]
            qddot = dynamics.acceleration_floats(
                y[0:3].tolist(), qdot, tau_joint, refl_m, refl_b
            )
            return np.concatenate((qdot, qddot))

        y = self._stepper(f, 0.0, np.concatenate([jpos, jvel]), self.dt)
        return check_finite(y, self.integrator_name)

    def predict(
        self, jpos: np.ndarray, jvel: np.ndarray, dac_values: Sequence[float]
    ) -> ModelPrediction:
        """One-step prediction with wall-clock instrumentation.

        The elapsed time per call is what Figure 8 reports as
        "Avg. Time/Step"; it must stay well below the 1 ms real-time
        budget for the detector to run in-line with the control loop.
        ``jpos`` and ``jvel`` are float64 arrays, as the estimators hold
        them; :meth:`step` converts any sequence.
        """
        probe = self._stopwatch
        with probe:
            y = self._advance(jpos, jvel, dac_values)
        elapsed = probe.elapsed_s
        self.predict_calls += 1
        self.predict_seconds += elapsed
        if self._predict_hist is not None:
            self._predict_hist.observe(elapsed)
        # G @ jpos and G @ jvel as one stacked matvec (same BLAS calls).
        motor = np.matmul(self._g, y.reshape(2, 3, 1)).reshape(2, 3)
        return ModelPrediction(
            jpos=y[0:3],
            jvel=y[3:6],
            mpos=motor[0],
            mvel=motor[1],
            elapsed_s=elapsed,
        )

    def apply_parameter_drift(
        self, inertia_scale: float, friction_scale: Optional[float] = None
    ) -> None:
        """Drift the model's physical coefficients in place (bounded).

        Models the slow divergence between the manually tuned model and the
        real robot (wear, payload changes, temperature): inertial
        parameters scale by ``inertia_scale`` and friction coefficients by
        ``friction_scale`` (defaults to ``inertia_scale``).  Scales are
        clamped to ``[0.5, 2.0]`` — physical drift is bounded; anything
        beyond that band is a configuration error, not drift.
        """
        inertia_scale = float(np.clip(inertia_scale, 0.5, 2.0))
        friction_scale = float(
            np.clip(
                inertia_scale if friction_scale is None else friction_scale,
                0.5,
                2.0,
            )
        )
        dynamics = self.dynamics
        self.dynamics = ManipulatorDynamics(
            params=dynamics.params.scaled(inertia_scale),
            friction=dynamics.friction.scaled(friction_scale),
            include_coriolis=dynamics.include_coriolis,
            include_gravity=dynamics.include_gravity,
        )

    @property
    def mean_predict_seconds(self) -> float:
        """Average wall-clock seconds per prediction so far."""
        if self.predict_calls == 0:
            return 0.0
        return self.predict_seconds / self.predict_calls

    def reset_timing(self) -> None:
        """Clear the wall-clock statistics."""
        self.predict_calls = 0
        self.predict_seconds = 0.0


class BatchedModelPrediction:
    """Next-step states predicted for every lane of a batch.

    ``faults`` maps each lane whose stepped state is non-finite to the
    :class:`IntegrationError` its scalar model raises for it; the other
    lanes' rows are unaffected.
    """

    __slots__ = ("jpos", "jvel", "mvel", "elapsed_s", "faults")

    def __init__(
        self,
        jpos: np.ndarray,
        jvel: np.ndarray,
        mvel: np.ndarray,
        elapsed_s: float,
        faults: Dict[int, IntegrationError],
    ) -> None:
        self.jpos = jpos
        self.jvel = jvel
        self.mvel = mvel
        self.elapsed_s = elapsed_s
        self.faults = faults


class BatchedDynamicModel:
    """N independent :class:`RavenDynamicModel` lanes stepped in one shot.

    Wraps the per-lane scalar models (which stay authoritative for
    configuration and drift) and evaluates their one-step predictions
    through :mod:`repro.dynamics.batch` and the shared steppers,
    bit-identical to calling each scalar model in a loop.  Lanes may
    differ in ``parameter_error`` and drift state; integrator and step
    size must be shared.
    """

    def __init__(self, models: Sequence[RavenDynamicModel]) -> None:
        from repro.dynamics.batch import BatchedManipulatorDynamics, require_homogeneous

        if not models:
            raise ValueError("at least one lane model is required")
        require_homogeneous([m.integrator_name for m in models], "model integrator")
        require_homogeneous([m.dt for m in models], "model dt")
        require_homogeneous([m.motors for m in models], "model motors")
        require_homogeneous(
            [m.transmission.joint_to_motor for m in models], "model transmission"
        )
        self.models = list(models)
        self.num_lanes = len(models)
        first = models[0]
        self.transmission = first.transmission
        self.integrator_name = first.integrator_name
        self.dt = first.dt
        self._g = self.transmission.joint_to_motor
        self._kt = first._kt
        self._i_max = first._i_max
        self._refl_m = first._refl_m
        self._refl_b = first._refl_b
        self._stepper = get_integrator(self.integrator_name)
        # Per-lane dynamics parameters, refreshed lazily when a lane's
        # scalar model rebuilds its ManipulatorDynamics (parameter drift).
        self.dynamics = BatchedManipulatorDynamics([m.dynamics for m in models])
        self._lane_dynamics = [m.dynamics for m in models]

    def refresh_parameters(self) -> None:
        """Pick up per-lane parameter drift.

        ``RavenDynamicModel.apply_parameter_drift`` replaces the lane's
        ``dynamics`` object, so an identity check per lane is enough to
        notice and restack just the drifted rows.
        """
        for lane, model in enumerate(self.models):
            if model.dynamics is not self._lane_dynamics[lane]:
                self.dynamics.refresh_lane(lane, model.dynamics)
                self._lane_dynamics[lane] = model.dynamics

    def _advance(
        self, jpos: np.ndarray, jvel: np.ndarray, dac_values: np.ndarray
    ) -> np.ndarray:
        """Every lane's state ``[jpos, jvel]`` one control period on, as
        ``(N, 6)`` rows; a row may be non-finite (see :meth:`predict`)."""
        from repro.dynamics.batch import batched_dac_to_current, batched_matvec

        setpoints = np.clip(
            batched_dac_to_current(dac_values), -self._i_max, self._i_max
        )
        tau_joint = batched_matvec(self._g.T, self._kt * setpoints)
        dynamics = self.dynamics
        refl_m, refl_b = self._refl_m, self._refl_b

        def f(_t: float, y: np.ndarray) -> np.ndarray:
            qddot = dynamics.acceleration(
                y[:, 0:3],
                y[:, 3:6],
                tau_joint,
                extra_inertia=refl_m,
                extra_damping=refl_b,
            )
            return np.concatenate([y[:, 3:6], qddot], axis=1)

        return self._stepper(f, 0.0, np.concatenate([jpos, jvel], axis=1), self.dt)

    def step(
        self, jpos: np.ndarray, jvel: np.ndarray, dac_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate every lane one control period under its DAC row.

        Each lane's rows equal its scalar model's :meth:`RavenDynamicModel.step`
        wherever that returns; the rows are not checked for finiteness.
        """
        y = self._advance(jpos, jvel, dac_values)
        return y[:, 0:3], y[:, 3:6]

    def predict(
        self, jpos: np.ndarray, jvel: np.ndarray, dac_values: np.ndarray
    ) -> BatchedModelPrediction:
        """One-step prediction for all lanes with batch-level timing.

        A lane whose stepped state is non-finite is a fault of that lane
        alone (``faults``), so the caller decides which lanes it raises
        for.
        """
        from repro.dynamics.batch import batched_matvec

        with Stopwatch() as probe:
            y = self._advance(jpos, jvel, dac_values)
        finite = np.isfinite(y).all(axis=1)
        faults = (
            {}
            if finite.all()
            else {
                lane: nonfinite_error(y[lane], self.integrator_name)
                for lane in np.flatnonzero(~finite).tolist()
            }
        )
        jvel_next = y[:, 3:6]
        return BatchedModelPrediction(
            jpos=y[:, 0:3],
            jvel=jvel_next,
            mvel=batched_matvec(self._g, jvel_next),
            elapsed_s=probe.elapsed_s,
            faults=faults,
        )
