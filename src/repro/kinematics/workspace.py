"""Workspace and joint-limit checks for the RAVEN II positioning arm.

The RAVEN control software verifies that desired joint positions stay
within the robot workspace before commanding the motors; the same limits
are reused by the dynamic-model detector to classify estimated next states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro import constants
from repro.errors import WorkspaceError


@dataclass(frozen=True)
class Workspace:
    """Joint-limit box for the three positioning joints.

    Attributes
    ----------
    joint1_limits, joint2_limits:
        (min, max) in radians for the two rotational joints.
    joint3_limits:
        (min, max) insertion depth in metres.
    """

    joint1_limits: Tuple[float, float] = constants.JOINT1_LIMITS_RAD
    joint2_limits: Tuple[float, float] = constants.JOINT2_LIMITS_RAD
    joint3_limits: Tuple[float, float] = constants.JOINT3_LIMITS_M

    def __post_init__(self) -> None:
        limits = (self.joint1_limits, self.joint2_limits, self.joint3_limits)
        for lo, hi in limits:
            if lo >= hi:
                raise ValueError(f"invalid joint limit range ({lo}, {hi})")
        # The per-cycle checks (contains, clamp) read the limits as floats.
        object.__setattr__(self, "_lows", tuple(float(lo) for lo, _ in limits))
        object.__setattr__(self, "_highs", tuple(float(hi) for _, hi in limits))

    @property
    def lower(self) -> np.ndarray:
        """Lower joint-limit vector."""
        return np.array(self._lows)

    @property
    def upper(self) -> np.ndarray:
        """Upper joint-limit vector."""
        return np.array(self._highs)

    def contains(self, q: Sequence[float], margin: float = 0.0) -> bool:
        """Whether joint vector ``q`` lies within the limits.

        ``margin`` shrinks the box symmetrically (useful for conservative
        checks on *desired* positions, matching the RAVEN software which
        rejects targets near the boundary).
        """
        q0, q1, q2 = np.asarray(q, dtype=float).tolist()
        (l0, l1, l2), (h0, h1, h2) = self._lows, self._highs
        return (
            q0 >= l0 + margin
            and q1 >= l1 + margin
            and q2 >= l2 + margin
            and q0 <= h0 - margin
            and q1 <= h1 - margin
            and q2 <= h2 - margin
        )

    def clamp(self, q: Sequence[float]) -> np.ndarray:
        """Project joint vector ``q`` onto the limit box."""
        # min(max(v, lo), hi) is np.clip bit for bit for non-zero bounds, NaN too.
        return np.array(
            [
                min(max(v, lo), hi)
                for v, lo, hi in zip(
                    np.asarray(q, dtype=float).tolist(), self._lows, self._highs
                )
            ]
        )

    def require(self, q: Sequence[float], what: str = "joint vector") -> None:
        """Raise :class:`WorkspaceError` if ``q`` violates the limits."""
        if not self.contains(q):
            raise WorkspaceError(f"{what} {np.asarray(q)} outside workspace limits")

    def violation(self, q: Sequence[float]) -> np.ndarray:
        """Per-joint distance outside the box (zero when inside)."""
        q = np.asarray(q, dtype=float)
        below = np.maximum(self.lower - q, 0.0)
        above = np.maximum(q - self.upper, 0.0)
        return below + above

    def neutral(self) -> np.ndarray:
        """A comfortable mid-workspace pose used as the homing target."""
        mid = 0.5 * (self.lower + self.upper)
        mid[2] = constants.JOINT3_NEUTRAL_M
        return mid
