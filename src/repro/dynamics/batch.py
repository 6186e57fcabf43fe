"""Batched ``(N_lanes, ...)`` evaluation of the robot dynamics.

Every kernel in this module evaluates N independent lanes in one numpy
call while reproducing the scalar path (:mod:`repro.dynamics.manipulator`
and the plant's DAC conversion) **bit for bit** per lane.  The
integrators need no batched copy: the steppers in
:mod:`repro.dynamics.integrators` are shape-agnostic and step an
``(N, state)`` batch with the scalar expressions.  The kernels' one
caller is
:class:`repro.core.dynamic_model.BatchedDynamicModel`, the model under
the fleet supervisor's batched lane pack.  The fleet's decision chains
hash every verdict, so "close" is not good enough: a vectorized build
that rounds differently could silently change an alarm or E-STOP
decision.  The equivalence is enforced by
``tests/test_batch_properties.py`` and ``tests/test_batch_equivalence.py``.

The bit-identity recipe, validated empirically against this build's BLAS:

- **elementwise ufuncs** (``sin``/``cos``/``exp``/``tanh``/``sqrt``, ``+``
  ``-`` ``*`` ``/``) are IEEE-754 per element and size/stride invariant,
  so any scalar expression tree can be replayed on ``(N, ...)`` arrays
  as long as the operation *order* is preserved verbatim;
- every scalar ``A @ v`` / ``A.T @ B`` goes through **stacked
  ``np.matmul``** (``matmul(A, V[..., None])``), which dispatches to the
  same BLAS kernels lane by lane — forms that re-associate sums
  (``V @ A.T``, ``einsum``, ``(A * v).sum()``) do *not* match bitwise;
- ``np.linalg.norm(v)`` of a 3-vector is matched by a matmul-based dot
  (:func:`batched_norm3`), not by ``norm(..., axis=1)``;
- branch divergence uses ``np.where`` *selection* (compute both sides,
  keep the lane's branch) — never arithmetic masking, which perturbs
  rounding.

The scalar modules remain the N=1 special case.  Both kernels fuse the
same way: the scalar ``ManipulatorDynamics.acceleration_floats``
evaluates the pose trig once per pose on floats, and
:meth:`BatchedManipulatorDynamics.acceleration` once per call over the
current and look-ahead poses stacked as 2N rows.  The rules and
measured mismatch rates behind them are in the
:mod:`repro.dynamics.manipulator` docstring and in the "The physics"
section of ``docs/architecture.md``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.dynamics.friction import FrictionModel
from repro.dynamics.manipulator import (
    _JDOT_EPS,
    _SPEED_EPS,
    GRAVITY,
    ManipulatorDynamics,
)
from repro.errors import DynamicsError
from repro.kinematics.spherical_arm import ArmGeometry


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DynamicsError(message)


def require_homogeneous(values: Sequence, what: str) -> None:
    """Assert all lanes share one configuration value (arrays compared
    bitwise) — heterogeneity here would need per-lane code paths, which
    the batch layer deliberately does not grow."""
    first = values[0]
    for i, value in enumerate(values[1:], start=1):
        if isinstance(first, np.ndarray):
            same = (
                isinstance(value, np.ndarray)
                and value.shape == first.shape
                and bool(np.all(value == first))
            )
        else:
            same = value == first
        _require(same, f"batch lanes must share {what} (lane 0 != lane {i})")


# ---------------------------------------------------------------------------
# Stacked linear algebra (bit-identical to the scalar BLAS calls)
# ---------------------------------------------------------------------------


def batched_matvec(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrix @ v`` per lane: ``(3, 3) or (N, 3, 3)`` x ``(N, 3)``."""
    return np.matmul(matrix, vectors[..., :, None])[..., 0]


def batched_norm3(vectors: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v)`` of each lane's 3-vector, bit-identical.

    ``norm`` computes ``sqrt(dot(v, v))`` through BLAS; the stacked
    equivalent with the same summation order is a 1x3 @ 3x1 matmul.
    """
    dots = np.matmul(vectors[..., None, :], vectors[..., :, None])[..., 0, 0]
    return np.sqrt(dots)


def batched_solve3(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-lane Cramer solve of ``m @ x = b`` — the exact expression tree
    of :func:`repro.dynamics.manipulator._solve3` on ``(N,)`` columns."""
    a00, a01, a02 = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    a10, a11, a12 = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    a20, a21, a22 = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    x0 = (
        b0 * c00
        + a01 * (a12 * b2 - b1 * a22)
        + a02 * (b1 * a21 - a11 * b2)
    ) / det
    x1 = (
        a00 * (b1 * a22 - a12 * b2)
        + b0 * c01
        + a02 * (a10 * b2 - b1 * a20)
    ) / det
    x2 = (
        a00 * (a11 * b2 - b1 * a21)
        + a01 * (b1 * a20 - a10 * b2)
        + b0 * c02
    ) / det
    return np.stack([x0, x1, x2], axis=-1)


# ---------------------------------------------------------------------------
# Batched kinematics (mirrors spherical_arm.tool_axis / jacobian)
# ---------------------------------------------------------------------------


class BatchedArmTrig:
    """Precomputed cone-angle trig shared by every lane (same geometry)."""

    __slots__ = ("sin_a1", "cos_a1", "sin_a2", "cos_a2")

    def __init__(self, geometry: ArmGeometry) -> None:
        self.sin_a1 = math.sin(geometry.alpha1)
        self.cos_a1 = math.cos(geometry.alpha1)
        self.sin_a2 = math.sin(geometry.alpha2)
        self.cos_a2 = math.cos(geometry.alpha2)


def batched_pose_axes(
    trig: BatchedArmTrig, q1: np.ndarray, q2: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Per-row tool axis ``u`` and joint-2 axis ``a`` —
    :meth:`SphericalArm.pose_axes` on arrays, the ``q1`` trig evaluated
    once for both axes.

    ``math.sin``/``math.cos`` on a Python float and ``np.sin``/``np.cos``
    on an array element produce the same bits on this toolchain (both use
    the same libm-correct kernels), so the scalar expressions carry over
    verbatim.
    """
    sa1, ca1 = trig.sin_a1, trig.cos_a1
    sa2, ca2 = trig.sin_a2, trig.cos_a2
    s2, c2 = np.sin(q2), np.cos(q2)
    fx = sa2 * s2
    fy = -sa2 * c2
    gx = fx
    gy = ca1 * fy - sa1 * ca2
    gz = sa1 * fy + ca1 * ca2
    s1, c1 = np.sin(q1), np.cos(q1)
    return c1 * gx - s1 * gy, s1 * gx + c1 * gy, gz, sa1 * s1, -sa1 * c1, ca1


def batched_point_jacobians(axes: Tuple[np.ndarray, ...], depths: np.ndarray) -> np.ndarray:
    """Stacked position Jacobians at every pose row and depth.

    ``axes`` come from :func:`batched_pose_axes` over ``P`` pose rows and
    ``depths`` is ``(K, P)``; the result is ``(K, P, 3, 3)``, entry by
    entry the expressions of
    :func:`repro.kinematics.jacobian.jacobian_entries`.  The cross
    products depend on the pose alone, so every depth shares them.
    """
    ux, uy, uz, ax, ay, az = axes
    jac = np.empty(depths.shape + (3, 3))
    jac[..., 0, 0] = -depths * uy
    jac[..., 0, 1] = depths * (ay * uz - az * uy)
    jac[..., 0, 2] = ux
    jac[..., 1, 0] = depths * ux
    jac[..., 1, 1] = depths * (az * ux - ax * uz)
    jac[..., 1, 2] = uy
    jac[..., 2, 0] = 0.0
    jac[..., 2, 1] = depths * (ax * uy - ay * ux)
    jac[..., 2, 2] = uz
    return jac


# ---------------------------------------------------------------------------
# Batched friction
# ---------------------------------------------------------------------------


def stack_friction(models: Sequence[FrictionModel]) -> Tuple[np.ndarray, np.ndarray, float]:
    """Stack per-lane friction coefficients; the smoothing velocity is a
    shared scalar (it is never scaled by parameter error or drift)."""
    require_homogeneous([m.smoothing_velocity for m in models], "friction smoothing_velocity")
    viscous = np.stack([np.asarray(m.viscous, dtype=float) for m in models])
    coulomb = np.stack([np.asarray(m.coulomb, dtype=float) for m in models])
    return viscous, coulomb, models[0].smoothing_velocity


def batched_friction_torque(
    qdot: np.ndarray, viscous: np.ndarray, coulomb: np.ndarray, smoothing: float
) -> np.ndarray:
    """Per-lane :meth:`FrictionModel.torque` (elementwise; exact)."""
    return viscous * qdot + coulomb * np.tanh(qdot / smoothing)


# ---------------------------------------------------------------------------
# Batched DAC conversion
# ---------------------------------------------------------------------------


def batched_dac_to_current(dac_values: np.ndarray) -> np.ndarray:
    """``(N, 3)`` DAC counts to current setpoints (elementwise; exact)."""
    dac = np.asarray(dac_values, dtype=float)
    return dac / constants.DAC_FULL_SCALE * constants.DAC_FULL_SCALE_CURRENT_A


# ---------------------------------------------------------------------------
# Batched manipulator dynamics
# ---------------------------------------------------------------------------


class BatchedManipulatorDynamics:
    """N lanes of :class:`ManipulatorDynamics` evaluated in one shot.

    Inertial and friction parameters are stacked per lane (so model-drift
    and parameter-error studies can differ lane by lane); the arm geometry
    and the include flags must be shared.
    """

    def __init__(self, lanes: Sequence[ManipulatorDynamics]) -> None:
        _require(len(lanes) > 0, "at least one lane is required")
        require_homogeneous([d.arm.geometry for d in lanes], "arm geometry")
        require_homogeneous([d.include_coriolis for d in lanes], "include_coriolis")
        require_homogeneous([d.include_gravity for d in lanes], "include_gravity")
        self.num_lanes = len(lanes)
        self.include_coriolis = lanes[0].include_coriolis
        self.include_gravity = lanes[0].include_gravity
        self._trig = BatchedArmTrig(lanes[0].arm.geometry)
        self._stack_parameters(lanes)

    def _stack_parameters(self, lanes: Sequence[ManipulatorDynamics]) -> None:
        params = [d.params for d in lanes]
        self._base_inertias = np.stack(
            [np.asarray(p.base_inertias, dtype=float) for p in params]
        )
        self._m0 = np.zeros((self.num_lanes, 3, 3))
        for axis in range(3):
            self._m0[:, axis, axis] = self._base_inertias[:, axis]
        self._instrument_mass = np.array([p.instrument_mass for p in params])
        self._link2_mass = np.array([p.link2_mass for p in params])
        self._link2_radius = np.array([p.link2_com_radius for p in params])
        self._viscous, self._coulomb, self._smoothing = stack_friction(
            [d.friction for d in lanes]
        )

    def refresh_lane(self, lane: int, dynamics: ManipulatorDynamics) -> None:
        """Re-read one lane's parameters (after ``apply_parameter_drift``
        rebuilt the lane's scalar dynamics in place)."""
        p = dynamics.params
        self._base_inertias[lane] = np.asarray(p.base_inertias, dtype=float)
        for axis in range(3):
            self._m0[lane, axis, axis] = self._base_inertias[lane, axis]
        self._instrument_mass[lane] = p.instrument_mass
        self._link2_mass[lane] = p.link2_mass
        self._link2_radius[lane] = p.link2_com_radius
        self._viscous[lane] = np.asarray(dynamics.friction.viscous, dtype=float)
        self._coulomb[lane] = np.asarray(dynamics.friction.coulomb, dtype=float)

    # -- point-mass Jacobians -------------------------------------------------

    def _jacobians(self, poses: np.ndarray) -> np.ndarray:
        """Instrument and link-2 Jacobians at every pose row, from one
        pass over the pose trig: ``(2, P, 3, 3)``, instrument first.

        ``poses`` is ``(P, 3)``: the lanes' current poses, then, when the
        Coriolis terms are on, their look-ahead poses (``P = 2N``).
        """
        axes = batched_pose_axes(self._trig, poses[:, 0], poses[:, 1])
        depths = np.empty((2, len(poses)))
        depths[0] = poses[:, 2]
        depths[1].reshape(-1, self.num_lanes)[...] = self._link2_radius
        jac = batched_point_jacobians(axes, depths)
        jac[1, :, :, 2] = 0.0  # link-2 COM does not move with insertion
        return jac

    # -- dynamics terms -------------------------------------------------------

    def friction_force(self, qdot: np.ndarray) -> np.ndarray:
        """Per-lane joint friction force."""
        return batched_friction_torque(
            np.asarray(qdot, dtype=float), self._viscous, self._coulomb, self._smoothing
        )

    def acceleration(
        self,
        q: np.ndarray,
        qdot: np.ndarray,
        tau: np.ndarray,
        extra_inertia: Optional[np.ndarray] = None,
        extra_damping: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-lane joint accelerations — the hot path, mirroring
        :meth:`ManipulatorDynamics.acceleration` expression by expression."""
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        n = len(q)
        mi, ml = self._instrument_mass, self._link2_mass

        # Current and look-ahead poses as 2N rows, so the pose trig runs
        # once per call.  Still lanes divide by ~zero speed: their
        # look-ahead rows are inf/nan, computed and then discarded by the
        # np.where selection below, exactly as the scalar branch skips
        # them; errstate silences those intentional lanes.
        if self.include_coriolis:
            speed = batched_norm3(qdot)
            with np.errstate(divide="ignore", invalid="ignore"):
                eps = _JDOT_EPS / speed
                jac = self._jacobians(np.concatenate([q, q + eps[:, None] * qdot]))
        else:
            jac = self._jacobians(q)
        jac_now = jac[:, :n]
        jac_t = np.swapaxes(jac_now, -1, -2)
        j3, j2 = jac_now

        # Both Gram products J.T @ J in one stacked matmul.
        gram = np.matmul(jac_t, jac_now)
        m = self._m0 + mi[:, None, None] * gram[0]
        m = m + ml[:, None, None] * gram[1]
        if extra_inertia is not None:
            m = m + extra_inertia

        rhs = np.asarray(tau, dtype=float) - self.friction_force(qdot)

        if self.include_gravity:
            rhs = rhs + (GRAVITY[2] * mi)[:, None] * j3[:, 2, :]
            rhs = rhs + (GRAVITY[2] * ml)[:, None] * j2[:, 2, :]

        if self.include_coriolis:
            active = speed > _SPEED_EPS
            with np.errstate(divide="ignore", invalid="ignore"):
                jdot_qdot = np.matmul(jac[:, n:] - jac_now, qdot[:, :, None])
                forces = np.matmul(jac_t, jdot_qdot / eps[:, None, None])[..., 0]
                coriolis = rhs - mi[:, None] * forces[0]
                coriolis = coriolis - ml[:, None] * forces[1]
            rhs = np.where(active[:, None], coriolis, rhs)

        if extra_damping is not None:
            rhs = rhs - batched_matvec(extra_damping, qdot)
        return batched_solve3(m, rhs)
