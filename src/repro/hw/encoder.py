"""Quadrature encoder bank: motor shaft angles <-> integer counts.

The motor controllers read back encoder values from the motors; the control
software estimates current joint positions from them (Section II.B of the
paper).  Quantization to integer counts is the only measurement noise the
baseline system has; an optional count-level jitter models electrical noise.

Physical-layer faults (dropout, glitch spikes, stuck counts) enter through
the optional :attr:`EncoderBank.count_fault` hook, applied to the quantized
counts of every read — the hook point :mod:`repro.testing.physfaults` uses.
It defaults to ``None`` and costs production reads one attribute check.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro import constants

_TWO_PI = 2.0 * np.pi

#: What ``np.rint(x).astype(np.int64)`` gives for NaN, infinities and values
#: outside int64 on x86-64.
_INT64_MIN = -(1 << 63)
_INT64_LIMIT = float(1 << 63)


def rint_int64(value: float) -> int:
    """``np.rint(value).astype(np.int64)`` for one float, as a Python int.

    Ties round to even, as in numpy.  A value that is not a finite float
    inside the int64 range becomes the int64 minimum, as numpy's cast does
    on x86-64.  That includes NaN, where ``round()`` itself would raise.
    """
    if -_INT64_LIMIT <= value < _INT64_LIMIT:
        return round(value)
    return _INT64_MIN


class EncoderBank:
    """Converts motor shaft positions (rad) to counts and back."""

    def __init__(
        self,
        counts_per_rev: int = constants.ENCODER_COUNTS_PER_REV,
        noise_counts: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Create the bank.

        Parameters
        ----------
        counts_per_rev:
            Quadrature-decoded counts per motor revolution.
        noise_counts:
            Standard deviation of additive count noise (0 disables noise).
        rng:
            Random generator for the noise (required when noise > 0).
        """
        if counts_per_rev <= 0:
            raise ValueError("counts_per_rev must be positive")
        if noise_counts < 0:
            raise ValueError("noise_counts must be non-negative")
        if noise_counts > 0 and rng is None:
            raise ValueError("rng is required when noise_counts > 0")
        self.counts_per_rev = int(counts_per_rev)
        self.noise_counts = noise_counts
        self._rng = rng
        #: Optional physical-fault hook: maps the quantized count vector of
        #: one read to the (possibly corrupted) counts actually reported.
        self.count_fault: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def to_counts(self, mpos: Sequence[float]) -> np.ndarray:
        """Quantize a vector of motor shaft angles (rad) to integer counts."""
        cpr = self.counts_per_rev
        counts = [m / _TWO_PI * cpr for m in np.asarray(mpos, dtype=float).tolist()]
        if self.noise_counts > 0:
            noise = self._rng.normal(0.0, self.noise_counts, (len(counts),))
            counts = [c + n for c, n in zip(counts, noise.tolist())]
        quantized = np.array([rint_int64(c) for c in counts], dtype=np.int64)
        if self.count_fault is not None:
            quantized = np.asarray(
                self.count_fault(quantized), dtype=np.int64
            )
        return quantized

    def to_radians(self, counts: Sequence[int]) -> np.ndarray:
        """Convert integer counts back to motor shaft angles (rad)."""
        cpr = self.counts_per_rev
        return np.array([float(c) * _TWO_PI / cpr for c in counts])

    @property
    def resolution_rad(self) -> float:
        """Angle of one encoder count (rad)."""
        return _TWO_PI / self.counts_per_rev
