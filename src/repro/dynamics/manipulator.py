"""Link (joint) dynamics of the 3-DOF RAVEN II positioning arm.

Following the paper (Section IV.A.1), only the first three degrees of
freedom — shoulder rotation, elbow rotation and tool insertion — are
modelled dynamically; they are the positioning joints that dominate the
end-effector position.

The mechanism is spherical, so the moving masses are compactly described by
point masses riding on the tool axis plus constant link inertias about the
joint axes:

- link 2's centre of mass sits a fixed distance ``r2`` from the RCM along
  the tool-axis direction ``u(q1, q2)``;
- the instrument (plus carriage) of mass ``m3`` sits at the insertion depth
  ``d`` along the same direction.

With point positions ``p_k = f_k(q)`` and Jacobians ``J_k = dp_k/dq``, the
standard Lagrangian form follows exactly:

    M(q)        = M0 + sum_k m_k J_k^T J_k
    C(q, qdot)qdot = sum_k m_k J_k^T (Jdot_k qdot)
    g(q)        = -sum_k m_k J_k^T gravity_vector

``Jdot_k qdot`` is evaluated by a directional finite difference of the
analytic Jacobian along ``qdot`` (exact as the step goes to zero; the step
used is far below any scale that matters at surgical velocities).

The split methods (:meth:`ManipulatorDynamics.mass_matrix`,
``coriolis_force``, ``gravity_force``, ``friction_force``) are the
readable specification.  The hot path,
:meth:`ManipulatorDynamics.acceleration`, is one fused pass over the
same terms.  It evaluates the pose trig once per pose
(:meth:`~repro.kinematics.spherical_arm.SphericalArm.pose_axes`), builds
the instrument and link-2 Jacobians (and, when the arm moves, both again
at the Coriolis look-ahead pose) in one ``np.array`` call, forms both
Gram products ``J.T @ J`` in one stacked ``np.matmul`` and both Coriolis
terms in two, and does every elementwise step on Python floats.

Its output is **byte-identical** to the unfused evaluation, so every
golden trace and the batched twin (:mod:`repro.dynamics.batch`) hold
unchanged.  Three rules keep it so; they were measured on OpenBLAS
0.3.31 (DYNAMIC_ARCH, Haswell kernels) with random normal 3x3 inputs:

- **Every sum stays a BLAS call.**  BLAS reductions use FMA, so a
  Python sum of products rounds differently: it differs from
  ``j.T @ j`` in about 29% of Gram entries, from ``A @ v`` in 33% of
  mat-vec entries, and from ``np.linalg.norm`` in 11% of 3-vectors.
  Only the stacked ``np.matmul`` forms that the batched kernels already
  prove equal to the 2-D calls are used, and the speed is
  ``math.sqrt(qdot.dot(qdot))``, which is what ``np.linalg.norm``
  computes for a 1-D float vector.
- **Transcendentals stay in numpy, except sin and cos.**  ``math.tanh``
  and ``math.exp`` differ from ``np.tanh`` and ``np.exp`` in about 28%
  and 5% of samples; ``math.sin`` and ``math.cos`` match numpy.
- **Elementwise order is kept.**  ``+ - * /`` on Python floats give the
  bits numpy gives elementwise, provided each expression keeps the
  operation order of the array code it replaces (for example
  ``(m0 + mi * G3) + ml * G2``, then ``+ rotor``).

Whether a broken rule shows depends on operand magnitudes.  In a
mutation check, a Python sum for the Gram products failed the property
tests in ``tests/test_batch_properties.py`` and every golden trace, while
a Python sum for the speed norm or the rotor-damping product was
absorbed downstream and changed no test.  The rules hold for all of
them, since nothing guarantees that absorption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.dynamics.friction import FrictionModel
from repro.kinematics.jacobian import JacobianEntries, jacobian_entries, position_jacobian
from repro.kinematics.spherical_arm import ArmGeometry, SphericalArm

#: Gravitational acceleration vector in the world frame (z up), m/s^2.
GRAVITY = np.array([0.0, 0.0, -9.81])

#: Its z component as a Python float, for the fused kernel.
_GRAVITY_Z = float(GRAVITY[2])

#: Step used for the directional finite difference of the Jacobian.
_JDOT_EPS = 1e-6

#: Joint-velocity norm below which Coriolis terms are treated as zero
#: (avoids dividing by a vanishing speed in the finite difference).
_SPEED_EPS = 1e-12


def _link2_entries(axes: Sequence[float], radius: float) -> JacobianEntries:
    """Jacobian entries of link 2's lumped mass: fixed radius, and a zero
    insertion column (its centre of mass does not move with ``d``)."""
    j00, j01, _, j10, j11, _, j20, j21, _ = jacobian_entries(axes, radius)
    return (j00, j01, 0.0, j10, j11, 0.0, j20, j21, 0.0)


def _solve3(m: Sequence[Sequence[float]], b: Sequence[float]) -> np.ndarray:
    """Solve the symmetric 3x3 system ``m @ x = b`` by Cramer's rule.

    ~5x faster than ``np.linalg.solve`` at this size; the inertia matrix is
    positive definite so the determinant is safely bounded away from zero.
    Rows and right-hand side may be arrays or float sequences.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = m
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    b0, b1, b2 = b
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
    return np.array([x0, x1, x2])


@dataclass(frozen=True)
class ManipulatorParameters:
    """Inertial parameters of one positioning arm.

    Attributes
    ----------
    base_inertias:
        Constant link inertias about the three joint axes: ``I1`` about the
        base axis, ``I2`` about the joint-2 axis (kg*m^2), and a small
        carriage mass term for the prismatic axis (kg).
    link2_mass:
        Mass lumped at ``link2_com_radius`` along the tool axis (kg).
    link2_com_radius:
        Distance of link-2's lumped mass from the RCM (m).
    instrument_mass:
        Mass of the instrument + carriage riding at the insertion depth (kg).
    """

    base_inertias: np.ndarray = field(
        default_factory=lambda: np.array([8.0e-3, 5.0e-3, 0.05])
    )
    link2_mass: float = 0.35
    link2_com_radius: float = 0.10
    instrument_mass: float = 0.15

    def __post_init__(self) -> None:
        inertias = np.asarray(self.base_inertias, dtype=float)
        if inertias.shape != (3,) or np.any(inertias <= 0.0):
            raise ValueError("base_inertias must be three positive values")
        object.__setattr__(self, "base_inertias", inertias)
        if self.link2_mass <= 0.0 or self.instrument_mass <= 0.0:
            raise ValueError("masses must be positive")
        if self.link2_com_radius <= 0.0:
            raise ValueError("link2_com_radius must be positive")

    def scaled(self, scale: float) -> "ManipulatorParameters":
        """A copy with masses/inertias scaled (model-mismatch studies)."""
        return ManipulatorParameters(
            base_inertias=self.base_inertias * scale,
            link2_mass=self.link2_mass * scale,
            link2_com_radius=self.link2_com_radius,
            instrument_mass=self.instrument_mass * scale,
        )


class ManipulatorDynamics:
    """Computes M(q), Coriolis and gravity forces for the positioning arm."""

    def __init__(
        self,
        params: Optional[ManipulatorParameters] = None,
        geometry: Optional[ArmGeometry] = None,
        friction: Optional[FrictionModel] = None,
        include_coriolis: bool = True,
        include_gravity: bool = True,
    ) -> None:
        self.params = params or ManipulatorParameters()
        self.arm = SphericalArm(geometry)
        self.friction = friction or FrictionModel()
        self.include_coriolis = include_coriolis
        self.include_gravity = include_gravity
        #: Constant link inertia M0 as nine floats, row-major.
        self._m0 = np.diag(self.params.base_inertias).ravel().tolist()

    # -- point-mass Jacobians -------------------------------------------------

    def _instrument_jacobian(self, q: np.ndarray) -> np.ndarray:
        """Jacobian of the instrument point mass at depth ``q[2]``."""
        return position_jacobian(self.arm, q)

    def _link2_jacobian(self, q: np.ndarray) -> np.ndarray:
        """Jacobian of link 2's lumped mass (fixed radius, no d column)."""
        q_fixed = np.array([q[0], q[1], self.params.link2_com_radius])
        jac = position_jacobian(self.arm, q_fixed)
        jac[:, 2] = 0.0  # link-2 COM does not move with insertion
        return jac

    # -- dynamics terms -------------------------------------------------------

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        """Joint-space inertia matrix M(q) of the links (without rotors)."""
        p = self.params
        j3 = self._instrument_jacobian(q)
        j2 = self._link2_jacobian(q)
        m = np.diag(p.base_inertias).astype(float)
        m += p.instrument_mass * (j3.T @ j3)
        m += p.link2_mass * (j2.T @ j2)
        return m

    def coriolis_force(self, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
        """Coriolis/centrifugal generalized force ``C(q, qdot) @ qdot``."""
        if not self.include_coriolis:
            return np.zeros(3)
        p = self.params
        qdot = np.asarray(qdot, dtype=float)
        speed = float(np.linalg.norm(qdot))
        if speed < _SPEED_EPS:
            return np.zeros(3)
        eps = _JDOT_EPS / speed
        q_ahead = np.asarray(q, dtype=float) + eps * qdot
        force = np.zeros(3)
        for mass, jac_fn in (
            (p.instrument_mass, self._instrument_jacobian),
            (p.link2_mass, self._link2_jacobian),
        ):
            jac = jac_fn(q)
            jdot_qdot = (jac_fn(q_ahead) - jac) @ qdot / eps
            force += mass * (jac.T @ jdot_qdot)
        return force

    def gravity_force(self, q: np.ndarray) -> np.ndarray:
        """Gravity generalized force (put on the LHS of the EOM)."""
        if not self.include_gravity:
            return np.zeros(3)
        p = self.params
        j3 = self._instrument_jacobian(q)
        j2 = self._link2_jacobian(q)
        return -(
            p.instrument_mass * (j3.T @ GRAVITY)
            + p.link2_mass * (j2.T @ GRAVITY)
        )

    def friction_force(self, qdot: np.ndarray) -> np.ndarray:
        """Joint friction generalized force opposing motion."""
        return self.friction.torque(qdot)

    def acceleration(
        self,
        q: np.ndarray,
        qdot: np.ndarray,
        tau: np.ndarray,
        extra_inertia: Optional[np.ndarray] = None,
        extra_damping: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Joint accelerations under applied joint torques ``tau``.

        ``extra_inertia``/``extra_damping`` (3x3) let the plant add the
        motor rotors' reflected inertia and damping without re-deriving
        the EOM.

        This is the hot path of every derivative evaluation: one fused
        pass over the terms of ``mass_matrix``, ``friction_force``,
        ``gravity_force`` and ``coriolis_force`` that reproduces their
        bits.  The module docstring gives the rules it follows.
        """
        p = self.params
        mi, ml, radius = p.instrument_mass, p.link2_mass, p.link2_com_radius
        qdot = np.asarray(qdot, dtype=float)
        q1, q2, d = np.asarray(q, dtype=float).tolist()
        qd0, qd1, qd2 = qdot.tolist()

        # Point-mass Jacobians in one array, flat and row-major: the
        # instrument, link 2, and both again at the look-ahead pose of
        # the Coriolis finite difference.
        axes = self.arm.pose_axes(q1, q2)
        j3 = jacobian_entries(axes, d)
        j2 = _link2_entries(axes, radius)
        entries = j3 + j2
        moving = False
        if self.include_coriolis:
            speed = math.sqrt(qdot.dot(qdot))  # np.linalg.norm, bit for bit
            moving = speed > _SPEED_EPS
        if moving:
            eps = _JDOT_EPS / speed
            ahead = self.arm.pose_axes(q1 + eps * qd0, q2 + eps * qd1)
            entries += jacobian_entries(ahead, d + eps * qd2)
            entries += _link2_entries(ahead, radius)
        jac = np.array(entries).reshape(-1, 3, 3)
        jac_now, jac_ahead = jac[:2], jac[2:]
        jac_t = jac_now.transpose(0, 2, 1)

        # rhs = tau - friction(qdot)
        friction = self.friction
        t0, t1, t2 = np.asarray(tau, dtype=float).tolist()
        v0, v1, v2 = friction.viscous.tolist()
        c0, c1, c2 = friction.coulomb.tolist()
        h0, h1, h2 = np.tanh(qdot / friction.smoothing_velocity).tolist()
        b0 = t0 - (v0 * qd0 + c0 * h0)
        b1 = t1 - (v1 * qd1 + c1 * h1)
        b2 = t2 - (v2 * qd2 + c2 * h2)
        if self.include_gravity:
            # J.T @ (0, 0, -9.81) is just -9.81 times the third row of J.
            for w, jrow in ((_GRAVITY_Z * mi, j3), (_GRAVITY_Z * ml, j2)):
                b0 += w * jrow[6]
                b1 += w * jrow[7]
                b2 += w * jrow[8]
        if moving:
            jdot_qdot = np.matmul(jac_ahead - jac_now, qdot[:, None]) / eps
            forces = np.matmul(jac_t, jdot_qdot).reshape(2, 3).tolist()
            for mass, (f0, f1, f2) in zip((mi, ml), forces):
                b0 -= mass * f0
                b1 -= mass * f1
                b2 -= mass * f2
        if extra_damping is not None:
            e0, e1, e2 = (extra_damping @ qdot).tolist()
            b0 -= e0
            b1 -= e1
            b2 -= e2

        # M = M0 + mi * J3.T @ J3 + ml * J2.T @ J2 (+ rotor inertia).
        gram3, gram2 = np.matmul(jac_t, jac_now).reshape(2, -1).tolist()
        if extra_inertia is None:
            m = [a + mi * g + ml * h for a, g, h in zip(self._m0, gram3, gram2)]
        else:
            m = [
                a + mi * g + ml * h + e
                for a, g, h, e in zip(
                    self._m0, gram3, gram2, extra_inertia.ravel().tolist()
                )
            ]
        return _solve3((m[0:3], m[3:6], m[6:9]), (b0, b1, b2))

    def gravity_compensation(self, q: np.ndarray) -> np.ndarray:
        """Joint torques that exactly cancel gravity at pose ``q``."""
        return self.gravity_force(q)
