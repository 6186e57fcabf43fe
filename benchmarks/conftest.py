"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Expensive
inputs (calibrated thresholds, campaign outcomes) are computed once per
scale preset and cached under ``.cache/``; each benchmark also writes its
regenerated artifact to ``results/<name>.txt`` so the numbers survive the
run.

Scale control: set ``REPRO_SCALE=smoke|default|paper`` (see
``repro.experiments.scale``).  ``paper`` reproduces the paper's full run
counts and takes hours; ``default`` preserves the shapes in minutes.

Parallelism: campaign execution and threshold training fan out over
``REPRO_JOBS`` worker processes (default ``cpu_count - 1``; ``1`` forces
serial).  Results are bit-identical to serial runs; see
``repro.experiments.parallel``.

Batching: single-core vectorization over an ``(N, ...)`` lane axis is the
other throughput lever (detector replay in ``repro.experiments.batch``).
The ``batch_sizes`` fixture controls the swept widths
(``REPRO_BENCH_BATCH``, comma-separated, default ``1,8,32,128``) and
``recorded_stream`` provides the canonical command stream the detector
replay benchmarks share.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.calibration import get_thresholds
from repro.experiments.parallel import resolve_jobs
from repro.experiments.scale import current_scale

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The selected experiment scale."""
    return current_scale()


@pytest.fixture(scope="session")
def jobs():
    """Execution-engine worker count (``REPRO_JOBS``, default serial-safe)."""
    return resolve_jobs()


@pytest.fixture(scope="session")
def thresholds(scale, jobs):
    """Calibrated detector thresholds (cached per scale)."""
    return get_thresholds(scale, jobs=jobs)


@pytest.fixture(scope="session")
def artifact_writer():
    """Write a regenerated artifact to results/ and echo it."""

    def write(name: str, content: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(content + "\n")
        print(f"\n----- {name} -----\n{content}\n")

    return write


# --- batched execution ------------------------------------------------------


@pytest.fixture(scope="session")
def batch_sizes():
    """Batch widths N swept by the batched benchmarks.

    Override with ``REPRO_BENCH_BATCH=1,4,16`` to trade fidelity for
    time; the replay speedup floor is only asserted when the sweep
    includes an N >= 32.
    """
    raw = os.environ.get("REPRO_BENCH_BATCH", "1,8,32,128")
    return tuple(int(part) for part in raw.split(",") if part.strip())


@pytest.fixture(scope="session")
def recorded_stream():
    """One recorded scenario-B command stream (DAC + mpos + pedal) that
    the detector-replay benchmarks re-evaluate under N detector lanes."""
    from repro.experiments.batch import CommandStream
    from repro.sim.runner import run_scenario_b

    result = run_scenario_b(
        seed=11, error_dac=12000, period_ms=300, duration_s=1.2,
        raven_safety_enabled=False,
    )
    return CommandStream.from_trace(result.trace)
