"""Kinematic handling of the four instrument (wrist) degrees of freedom.

The paper models only the first three positioning joints dynamically; the
remaining four DOF (tool roll, wrist pitch and the two grasper jaws) mainly
affect end-effector *orientation*.  We resolve them purely kinematically:
given a desired orientation quaternion from the console, compute wrist
joint targets, and track them with a first-order servo model whose time
constant is far below anything safety-relevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.kinematics.frames import quat_normalize


@dataclass
class WristKinematics:
    """Maps desired tool orientation to wrist joint angles and tracks them.

    Attributes
    ----------
    time_constant:
        First-order tracking time constant of the wrist servos (s).
    grasp_half_angle:
        Commanded half-opening of the grasper jaws (rad); both jaw joints
        are derived from wrist yaw +/- this value.
    """

    time_constant: float = 0.02
    grasp_half_angle: float = 0.0
    joints: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def targets_from_quaternion(self, ori: np.ndarray) -> np.ndarray:
        """Wrist joint targets (roll, pitch, jaw1, jaw2) for orientation ``ori``.

        The desired orientation is decomposed as intrinsic Z-Y-X Euler
        angles of the tool frame: tool roll about the instrument shaft,
        wrist pitch, and wrist yaw realised differentially by the two
        grasper jaws (RAVEN instruments articulate yaw via the jaws).
        """
        # quat_to_matrix normalizes again, so the quaternion is normalized
        # twice (the second pass can move the last bit); only the five
        # matrix entries the decomposition reads are formed, each with the
        # expression quat_to_matrix uses for it.
        w, x, y, z = quat_normalize(quat_normalize(np.asarray(ori, dtype=float))).tolist()
        m20 = 2 * (x * z - w * y)
        # ZYX intrinsic decomposition.
        pitch = -math.asin(max(-1.0, min(1.0, m20)))
        if abs(m20) < 1.0 - 1e-9:
            roll = math.atan2(2 * (x * y + w * z), 1 - 2 * (y * y + z * z))
            yaw = math.atan2(2 * (y * z + w * x), 1 - 2 * (x * x + y * y))
        else:  # gimbal lock: fold everything into roll
            roll = math.atan2(-(2 * (x * y - w * z)), 1 - 2 * (x * x + z * z))
            yaw = 0.0
        jaw1 = yaw + self.grasp_half_angle
        jaw2 = yaw - self.grasp_half_angle
        return np.array([roll, pitch, jaw1, jaw2])

    def step(self, targets: np.ndarray, dt: float) -> np.ndarray:
        """Advance the wrist servos one step toward ``targets``.

        Returns the new wrist joint vector.  A simple exponential tracker:
        ``x += (target - x) * (1 - exp(-dt / tau))``.
        """
        alpha = 1.0 - math.exp(-dt / self.time_constant)
        joints = [
            j + alpha * (t - j)
            for j, t in zip(
                np.asarray(self.joints, dtype=float).tolist(),
                np.asarray(targets, dtype=float).tolist(),
            )
        ]
        self.joints = np.array(joints)
        return np.array(joints)

    def orientation_error(self, targets: np.ndarray) -> float:
        """Max absolute wrist-joint tracking error (rad)."""
        return float(np.max(np.abs(np.asarray(targets, dtype=float) - self.joints)))


def euler_zyx_to_quat(roll_z: float, pitch_y: float, yaw_x: float) -> np.ndarray:
    """Quaternion for intrinsic Z-Y-X Euler angles (matches the wrist model)."""
    cz, sz = math.cos(roll_z / 2.0), math.sin(roll_z / 2.0)
    cy, sy = math.cos(pitch_y / 2.0), math.sin(pitch_y / 2.0)
    cx, sx = math.cos(yaw_x / 2.0), math.sin(yaw_x / 2.0)
    # q = qz * qy * qx (scalar-first)
    return np.array(
        [
            cz * cy * cx + sz * sy * sx,
            cz * cy * sx - sz * sy * cx,
            cz * sy * cx + sz * cy * sx,
            sz * cy * cx - cz * sy * sx,
        ]
    )


def wrist_pose_tuple(joints: np.ndarray) -> Tuple[float, float, float]:
    """(roll, pitch, yaw) realised by wrist joints (yaw = mean jaw angle)."""
    roll, pitch, jaw1, jaw2 = joints
    return float(roll), float(pitch), float(0.5 * (jaw1 + jaw2))
