"""Forward and inverse kinematics of the RAVEN II positioning mechanism.

The RAVEN II arm is a spherical serial mechanism: joint-1 and joint-2 axes
intersect at the remote centre of motion (RCM) with fixed *cone angles*
between successive axes (75 degrees between base axis and joint-2 axis,
52 degrees between joint-2 axis and the tool axis, per the published RAVEN
design).  Joint 3 translates the instrument along the tool axis.

The tool-axis direction in the base frame is

    u(q1, q2) = Rz(q1) @ Rx(alpha1) @ Rz(q2) @ Rx(alpha2) @ z_hat

and the tool tip position relative to the RCM is ``p = d * u`` where ``d``
is the insertion depth (joint 3).

Closed-form inverse kinematics exploits that the z-component of
``Rz(q2) @ Rx(alpha2) @ z_hat`` is the constant ``cos(alpha2)``, giving a
single trigonometric equation ``A sin(q1) + B cos(q1) = C`` for joint 1 with
(up to) two solution branches; joint 2 then follows directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import InverseKinematicsError
from repro.kinematics.frames import rot_x, rot_z

_Z_HAT = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ArmGeometry:
    """Geometric parameters of one RAVEN II arm.

    Attributes
    ----------
    alpha1:
        Cone angle between the base (joint-1) axis and the joint-2 axis,
        radians.  RAVEN II uses 75 degrees.
    alpha2:
        Cone angle between the joint-2 axis and the tool axis, radians.
        RAVEN II uses 52 degrees.
    rcm_position:
        Position of the remote centre of motion in the world frame (m).
    """

    alpha1: float = math.radians(75.0)
    alpha2: float = math.radians(52.0)
    rcm_position: np.ndarray = field(
        default_factory=lambda: np.zeros(3), compare=False
    )

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha1 < math.pi):
            raise ValueError("alpha1 must be in (0, pi)")
        if not (0.0 < self.alpha2 < math.pi):
            raise ValueError("alpha2 must be in (0, pi)")


class SphericalArm:
    """Forward/inverse kinematics of the 2R + prismatic positioning chain.

    Joint vector convention: ``q = (q1, q2, d)`` with ``q1`` and ``q2`` in
    radians and insertion depth ``d`` in metres (``d > 0``).
    """

    def __init__(self, geometry: Optional[ArmGeometry] = None) -> None:
        self.geometry = geometry or ArmGeometry()
        self._sin_a1 = math.sin(self.geometry.alpha1)
        self._cos_a1 = math.cos(self.geometry.alpha1)
        self._sin_a2 = math.sin(self.geometry.alpha2)
        self._cos_a2 = math.cos(self.geometry.alpha2)
        #: The constant first factor of the ``_solve_q2`` rotation chain.
        self._rot_x_neg_a1 = rot_x(-self.geometry.alpha1)

    # -- forward ------------------------------------------------------------

    def pose_axes(self, q1: float, q2: float) -> Tuple[float, ...]:
        """Tool axis ``u`` and joint-2 axis ``a`` at one pose, as six floats
        ``(ux, uy, uz, ax, ay, az)``.

        Closed-form expansion of ``u = Rz(q1) Rx(a1) Rz(q2) Rx(a2) z_hat``
        and ``a = Rz(q1) Rx(a1) z_hat``.  This is the hottest kinematic
        routine (the dynamics evaluate it twice per derivative call), so
        it avoids matrix products and numpy scalars, and evaluates the
        ``q1`` trig once for both axes.
        """
        sa1, ca1 = self._sin_a1, self._cos_a1
        sa2, ca2 = self._sin_a2, self._cos_a2
        s2, c2 = math.sin(q2), math.cos(q2)
        # f = Rz(q2) @ (0, -sin a2, cos a2)
        fx, fy, fz = sa2 * s2, -sa2 * c2, ca2
        # g = Rx(a1) @ f
        gx = fx
        gy = ca1 * fy - sa1 * fz
        gz = sa1 * fy + ca1 * fz
        # u = Rz(q1) @ g
        s1, c1 = math.sin(q1), math.cos(q1)
        return (
            c1 * gx - s1 * gy,
            s1 * gx + c1 * gy,
            gz,
            sa1 * s1,
            -sa1 * c1,
            ca1,
        )

    def tool_axis(self, q1: float, q2: float) -> np.ndarray:
        """Unit vector along the instrument axis in the world frame."""
        return np.array(self.pose_axes(q1, q2)[:3])

    def joint2_axis(self, q1: float) -> np.ndarray:
        """Unit vector of the joint-2 rotation axis in the world frame."""
        sa1, ca1 = self._sin_a1, self._cos_a1
        return np.array([sa1 * math.sin(q1), -sa1 * math.cos(q1), ca1])

    def forward(self, q: np.ndarray) -> np.ndarray:
        """Tool-tip position in the world frame for joints ``q = (q1, q2, d)``."""
        q1, q2, d = float(q[0]), float(q[1]), float(q[2])
        return self.geometry.rcm_position + d * self.tool_axis(q1, q2)

    # -- inverse ------------------------------------------------------------

    def inverse(
        self, position: np.ndarray, reference: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Joint vector reaching ``position`` (world frame).

        Parameters
        ----------
        position:
            Desired tool-tip position in the world frame.
        reference:
            Optional current joint vector; when both solution branches
            exist, the one closer to ``reference`` (in joint space) is
            returned.  Without a reference the branch with the smaller
            ``|q1|`` is chosen.

        Raises
        ------
        InverseKinematicsError
            If the position is outside the reachable cone of the mechanism
            or coincides with the RCM.
        """
        rel = np.asarray(position, dtype=float) - self.geometry.rcm_position
        d = math.sqrt(rel.dot(rel))  # np.linalg.norm, bit for bit
        if d < 1e-9:
            raise InverseKinematicsError(
                "target position coincides with the remote centre of motion"
            )
        u = rel / d

        # v = Rx(-alpha1) Rz(-q1) u must equal Rz(q2) Rx(alpha2) z_hat,
        # whose z-component is the constant cos(alpha2):
        #   -sin(alpha1) * (-sin(q1) ux + cos(q1) uy) + cos(alpha1) uz
        #       = cos(alpha2)
        ux, uy, uz = u.tolist()
        a = self._sin_a1 * ux
        b = -self._sin_a1 * uy
        c = self._cos_a2 - self._cos_a1 * uz
        r = math.hypot(a, b)
        if r < 1e-12 or abs(c) > r + 1e-12:
            raise InverseKinematicsError(
                f"position {position!r} is outside the reachable cone"
            )
        # a sin(q1) + b cos(q1) = r cos(q1 - phi) with phi = atan2(a, b).
        phi = math.atan2(a, b)
        delta = math.acos(max(-1.0, min(1.0, c / r)))
        q1a = _wrap_angle(phi + delta)
        q1b = _wrap_angle(phi - delta)
        q2a = self._solve_q2(u, q1a)
        q2b = self._solve_q2(u, q1b)

        # The first branch wins ties (a stable sort of the two).
        if reference is None:
            second = abs(q1b) < abs(q1a)
        else:
            r1, r2 = np.asarray(reference, dtype=float).tolist()[:2]
            second = abs(_wrap_angle(q1b - r1)) + abs(_wrap_angle(q2b - r2)) < abs(
                _wrap_angle(q1a - r1)
            ) + abs(_wrap_angle(q2a - r2))
        return np.array([q1b, q2b, d] if second else [q1a, q2a, d])

    def _solve_q2(self, u: np.ndarray, q1: float) -> float:
        """Joint 2 from the tool axis once joint 1 is known."""
        v0, v1, _ = (self._rot_x_neg_a1 @ rot_z(-q1) @ u).tolist()
        # v = Rz(q2) Rx(alpha2) z_hat = (sin a2 sin q2, -sin a2 cos q2, cos a2)
        return math.atan2(v0, -v1)

    # -- misc ---------------------------------------------------------------

    def reachable(self, position: np.ndarray) -> bool:
        """Whether ``position`` lies inside the mechanism's reachable cone."""
        try:
            self.inverse(position)
        except InverseKinematicsError:
            return False
        return True

    def cone_angle_range(self) -> Tuple[float, float]:
        """(min, max) angle between the base axis and any reachable tool axis."""
        g = self.geometry
        return abs(g.alpha1 - g.alpha2), min(math.pi, g.alpha1 + g.alpha2)


def _wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi
