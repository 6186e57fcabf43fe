"""Software safety checks and watchdog generation (RAVEN II, Section II.B).

The RAVEN control software performs two kinds of checks *before* sending
commands to the USB I/O boards:

- DAC commands are compared against fixed thresholds, so the motors do not
  receive over-current commands;
- desired joint positions are checked against the robot workspace.

It also emits a periodic square-wave "I'm alive" watchdog in Byte 0 of the
USB packets; on detecting an unsafe command it stops toggling the watchdog,
which makes the PLC safety processor drop the system into E-STOP.

These checks run at the *latest computation step in software* — after them
the command crosses the software/hardware boundary unverified.  That gap is
the TOCTOU window the paper's scenario-B attack exploits, and it is
faithfully preserved here: the checks live in this module, the malicious
wrapper hooks the ``write`` system call *after* them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import constants
from repro.kinematics.workspace import Workspace


@dataclass
class SafetyDecision:
    """Outcome of the software safety checks for one control cycle."""

    safe: bool
    reasons: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.safe


class SafetyChecker:
    """The RAVEN software safety checks on outgoing commands.

    Note the limitation the paper highlights: the checks compare DAC values
    against *fixed thresholds* only — they do not model what the command
    does to the physical system, so a command under the threshold that
    still causes an abrupt jump passes unnoticed.
    """

    def __init__(
        self,
        dac_limit: int = constants.DAC_SAFETY_LIMIT,
        workspace: Optional[Workspace] = None,
        workspace_margin: float = 0.0,
    ) -> None:
        if dac_limit <= 0:
            raise ValueError("dac_limit must be positive")
        self.dac_limit = int(dac_limit)
        self.workspace = workspace or Workspace()
        self.workspace_margin = workspace_margin

    def check_dac(self, dac_values: Sequence[float]) -> SafetyDecision:
        """Threshold check on DAC commands (counts)."""
        limit = self.dac_limit
        reasons = [
            f"DAC channel {i} value {int(dac)} exceeds limit {limit}"
            for i, dac in enumerate(map(float, dac_values))
            if abs(dac) > limit
        ]
        return SafetyDecision(safe=not reasons, reasons=reasons)

    def check_joint_targets(self, jpos_d: Sequence[float]) -> SafetyDecision:
        """Workspace check on desired joint positions."""
        if self.workspace.contains(jpos_d, margin=self.workspace_margin):
            return SafetyDecision(safe=True)
        violation = self.workspace.violation(jpos_d)
        return SafetyDecision(
            safe=False,
            reasons=[f"desired joints outside workspace by {violation}"],
        )

    def check(
        self, dac_values: Sequence[float], jpos_d: Sequence[float]
    ) -> SafetyDecision:
        """Combined per-cycle check, short-circuiting nothing (all reasons)."""
        dac_result = self.check_dac(dac_values)
        joint_result = self.check_joint_targets(jpos_d)
        return SafetyDecision(
            safe=dac_result.safe and joint_result.safe,
            reasons=dac_result.reasons + joint_result.reasons,
        )


class WatchdogGenerator:
    """Square-wave "I'm alive" signal embedded in Byte 0, bit 4.

    Toggles every ``half_period_cycles`` control cycles while the software
    believes the system is healthy; :meth:`trip` freezes it, which the PLC
    interprets as software failure.
    """

    def __init__(
        self, half_period_cycles: int = constants.WATCHDOG_HALF_PERIOD_CYCLES
    ) -> None:
        if half_period_cycles < 1:
            raise ValueError("half_period_cycles must be >= 1")
        self.half_period_cycles = half_period_cycles
        self._cycles = 0
        self._level = False
        self._tripped = False

    @property
    def level(self) -> bool:
        """Current logic level of the watchdog line."""
        return self._level

    @property
    def tripped(self) -> bool:
        """Whether the software stopped the watchdog after an unsafe command."""
        return self._tripped

    def trip(self) -> None:
        """Stop toggling forever (unsafe command detected)."""
        self._tripped = True

    def reset(self) -> None:
        """Re-arm after the operator clears the E-STOP."""
        self._tripped = False
        self._cycles = 0

    def tick(self) -> bool:
        """Advance one control cycle; returns the level to transmit."""
        if self._tripped:
            return self._level
        self._cycles += 1
        if self._cycles >= self.half_period_cycles:
            self._cycles = 0
            self._level = not self._level
        return self._level
