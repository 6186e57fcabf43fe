"""Analytic position Jacobian of the spherical positioning arm.

The tool tip is ``p = rcm + d * u(q1, q2)``.  Rotating joint *i* about its
axis ``a_i`` moves the tool axis as ``du/dq_i = a_i x u``, so

    dp/dq1 = d * (a1 x u)      with a1 = z_hat (base axis)
    dp/dq2 = d * (a2 x u)      with a2 = Rz(q1) Rx(alpha1) z_hat
    dp/dd  = u

The Jacobian maps joint rates ``(q1_dot, q2_dot, d_dot)`` to tool-tip
velocity in the world frame.  The detector uses it to translate joint
velocities into end-effector velocities when deciding whether a command
would cause a >1 mm jump.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kinematics.spherical_arm import SphericalArm

#: One 3x3 Jacobian as nine floats, row-major.
JacobianEntries = Tuple[float, ...]


def jacobian_entries(axes: Sequence[float], d: float) -> JacobianEntries:
    """Entries of the position Jacobian at depth ``d``: nine floats, row-major.

    ``axes`` is :meth:`SphericalArm.pose_axes` — the tool axis ``u`` and
    the joint-2 axis ``a`` — so one pose's trig serves every depth
    evaluated there (the dynamics kernel uses both the instrument depth
    and link 2's centre-of-mass radius).  Hand-expanded cross products.
    """
    ux, uy, uz, ax, ay, az = axes
    # column 0: d * (z_hat x u); column 1: d * (a2 x u); column 2: u
    return (
        -d * uy, d * (ay * uz - az * uy), ux,
        d * ux, d * (az * ux - ax * uz), uy,
        0.0, d * (ax * uy - ay * ux), uz,
    )  # fmt: skip


def position_jacobian(arm: SphericalArm, q: np.ndarray) -> np.ndarray:
    """3x3 Jacobian of the tool-tip position w.r.t. ``q = (q1, q2, d)``."""
    q1, q2, d = float(q[0]), float(q[1]), float(q[2])
    return np.array(jacobian_entries(arm.pose_axes(q1, q2), d)).reshape(3, 3)


def tip_velocity(arm: SphericalArm, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
    """Tool-tip velocity (m/s) for joint state ``q`` and joint rates ``qdot``."""
    return position_jacobian(arm, q) @ np.asarray(qdot, dtype=float)


def tip_speed(arm: SphericalArm, q: np.ndarray, qdot: np.ndarray) -> float:
    """Magnitude of the tool-tip velocity (m/s)."""
    return float(np.linalg.norm(tip_velocity(arm, q, qdot)))
