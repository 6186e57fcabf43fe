"""Dynamics of the RAVEN II physical system.

This package implements the two sets of second-order ordinary differential
equations the paper uses to describe the robot — DC-motor dynamics and
manipulator link dynamics — together with the fixed-step numerical
integrators (explicit Euler and 4th-order Runge-Kutta) that solve them
within the 1 ms control period.

Public API
----------
- :class:`MotorParameters`, :data:`MAXON_RE40`, :data:`MAXON_RE30` — DC motor models.
- :class:`Transmission` — gear + cable coupling between motors and joints.
- :class:`ManipulatorDynamics` — 3-DOF link dynamics (M, C, g, friction).
- :class:`RavenPlant`, :class:`PlantState` — the coupled motor+link plant.
- :func:`euler_step`, :func:`rk4_step`, :func:`get_integrator` — ODE steppers.
- :mod:`repro.dynamics.batch` — ``(N_lanes, ...)`` batched link dynamics
  and integrators for the batched dynamic model, bit-identical per lane
  to the scalar path.
"""

from repro.dynamics.integrators import (
    INTEGRATORS,
    euler_step,
    get_integrator,
    heun_step,
    midpoint_step,
    rk4_step,
)
from repro.dynamics.motor import MAXON_RE30, MAXON_RE40, MotorParameters
from repro.dynamics.transmission import Transmission
from repro.dynamics.friction import FrictionModel
from repro.dynamics.manipulator import ManipulatorDynamics, ManipulatorParameters
from repro.dynamics.plant import PlantState, RavenPlant
from repro.dynamics.batch import (
    BATCH_INTEGRATORS,
    BatchedManipulatorDynamics,
    get_batch_integrator,
)

__all__ = [
    "BATCH_INTEGRATORS",
    "BatchedManipulatorDynamics",
    "INTEGRATORS",
    "MAXON_RE30",
    "MAXON_RE40",
    "FrictionModel",
    "ManipulatorDynamics",
    "ManipulatorParameters",
    "MotorParameters",
    "PlantState",
    "RavenPlant",
    "Transmission",
    "euler_step",
    "get_batch_integrator",
    "get_integrator",
    "heun_step",
    "midpoint_step",
    "rk4_step",
]
