"""Experiment sizing: smoke / default / paper scale.

The paper's campaigns total thousands of runs (1 925 for scenario A,
1 361 for scenario B, 600 threshold-training runs).  Re-running all of
that takes hours of wall-clock on the pure-Python simulator, so the
benchmark harness defaults to a reduced — but shape-preserving — workload
and scales up when ``REPRO_SCALE=paper`` is set.

The paper preset runs the paper's grid (6 error values x 8 periods) at
20 repetitions plus 385 fault-free runs: 6 x 8 x 20 + 385 = 1 345 runs
per scenario, in both scenarios.  That is close to the paper's scenario-B
count and about 70% of its scenario-A count.  The 600 training runs
match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.envcfg import env_str


@dataclass(frozen=True)
class Scale:
    """All experiment sizes for one scale preset."""

    name: str
    #: Threshold training.
    training_runs: int
    training_duration_s: float
    #: Campaign grids.
    errors_a_mm: Tuple[float, ...]
    errors_b_dac: Tuple[int, ...]
    periods_ms: Tuple[int, ...]
    repetitions: int
    fault_free_runs: int
    run_duration_s: float
    #: Figure 8 model validation.
    validation_runs: int
    validation_duration_s: float
    #: Table II syscall count.
    syscall_samples: int
    #: Figures 5/6 eavesdropping runs.
    capture_runs: int
    capture_duration_s: float
    #: Robustness sweep (physical-layer fault injection).  Defaulted so
    #: older call sites constructing Scale explicitly keep working.
    robustness_seeds: int = 3
    robustness_fault_free_runs: int = 4
    robustness_duration_s: float = 1.6
    robustness_intensities: Tuple[float, ...] = (0.0, 0.35, 0.7, 1.0)


SMOKE = Scale(
    name="smoke",
    training_runs=4,
    training_duration_s=1.2,
    errors_a_mm=(0.05, 0.5),
    errors_b_dac=(5000, 24000),
    periods_ms=(8, 64),
    repetitions=2,
    fault_free_runs=4,
    run_duration_s=1.4,
    validation_runs=2,
    validation_duration_s=2.0,
    syscall_samples=2_000,
    capture_runs=3,
    capture_duration_s=1.5,
    robustness_seeds=2,
    robustness_fault_free_runs=2,
    robustness_duration_s=1.4,
    robustness_intensities=(0.0, 1.0),
)

DEFAULT = Scale(
    name="default",
    training_runs=24,
    training_duration_s=1.6,
    errors_a_mm=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    errors_b_dac=(2000, 5000, 13000, 18000, 24000, 30000),
    periods_ms=(2, 8, 16, 64, 128),
    repetitions=3,
    fault_free_runs=60,
    run_duration_s=1.6,
    validation_runs=6,
    validation_duration_s=3.0,
    syscall_samples=50_000,
    capture_runs=9,
    capture_duration_s=2.0,
    robustness_seeds=3,
    robustness_fault_free_runs=4,
    robustness_duration_s=1.6,
    robustness_intensities=(0.0, 0.35, 0.7, 1.0),
)

PAPER = Scale(
    name="paper",
    training_runs=600,
    training_duration_s=2.0,
    errors_a_mm=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    errors_b_dac=(2000, 5000, 13000, 18000, 24000, 30000),
    periods_ms=(2, 4, 8, 16, 32, 64, 128, 256),
    repetitions=20,
    fault_free_runs=385,
    run_duration_s=2.0,
    validation_runs=10,
    validation_duration_s=3.0,
    syscall_samples=50_000,
    capture_runs=9,
    capture_duration_s=2.5,
    robustness_seeds=8,
    robustness_fault_free_runs=12,
    robustness_duration_s=2.0,
    robustness_intensities=(0.0, 0.25, 0.5, 0.75, 1.0),
)

_PRESETS = {"smoke": SMOKE, "default": DEFAULT, "paper": PAPER}


def current_scale() -> Scale:
    """The scale selected by ``REPRO_SCALE`` (default: ``default``).

    Raises
    ------
    KeyError
        If ``REPRO_SCALE`` names an unknown preset.
    """
    name = (env_str("REPRO_SCALE") or "default").lower()
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown REPRO_SCALE {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
