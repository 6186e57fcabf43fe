"""Rotation matrices and quaternion utilities.

Quaternions are stored as ``(w, x, y, z)`` numpy arrays with the scalar part
first.  All rotation matrices are 3x3 proper orthogonal numpy arrays acting
on column vectors.
"""

from __future__ import annotations

import math

import numpy as np


def rot_x(angle: float) -> np.ndarray:
    """Rotation matrix about the x-axis by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    """Rotation matrix about the y-axis by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    """Rotation matrix about the z-axis by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return ``q`` scaled to unit norm.

    Raises
    ------
    ValueError
        If ``q`` is (numerically) the zero quaternion.
    """
    q = np.asarray(q, dtype=float)
    norm = math.sqrt(q.dot(q))  # np.linalg.norm, bit for bit
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm


def _components(q: np.ndarray):
    """The components of ``q``; a float64 array as Python floats, which
    are far cheaper to unpack than numpy scalars and do the same
    arithmetic bit for bit."""
    if isinstance(q, np.ndarray) and q.dtype == np.float64:
        return q.tolist()
    return q


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product ``q1 * q2`` (both scalar-first)."""
    w1, x1, y1, z1 = _components(q1)
    w2, x2, y2, z2 = _components(q2)
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate (inverse for unit quaternions) of ``q``."""
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector ``v`` by unit quaternion ``q``."""
    qv = np.array([0.0, v[0], v[1], v[2]])
    out = quat_multiply(quat_multiply(q, qv), quat_conjugate(q))
    return out[1:]


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Convert a unit quaternion to a 3x3 rotation matrix."""
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to a unit quaternion (scalar-first, w >= 0).

    Uses Shepperd's method, selecting the numerically stable branch.
    """
    m = np.asarray(m, dtype=float)
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            ]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[2, 1] - m[1, 2]) / s,
                0.25 * s,
                (m[0, 1] + m[1, 0]) / s,
                (m[0, 2] + m[2, 0]) / s,
            ]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[0, 2] - m[2, 0]) / s,
                (m[0, 1] + m[1, 0]) / s,
                0.25 * s,
                (m[1, 2] + m[2, 1]) / s,
            ]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [
                (m[1, 0] - m[0, 1]) / s,
                (m[0, 2] + m[2, 0]) / s,
                (m[1, 2] + m[2, 1]) / s,
                0.25 * s,
            ]
        )
    if q[0] < 0.0:
        q = -q
    return quat_normalize(q)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between two non-zero vectors."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        raise ValueError("angle_between requires non-zero vectors")
    cosang = float(np.dot(u, v) / (nu * nv))
    return math.acos(max(-1.0, min(1.0, cosang)))


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
