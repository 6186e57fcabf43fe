"""Detector-replay throughput: scalar loop vs ``(N, ...)`` batched replay.

Sweeps the batch width N over {1, 8, 32, 128} on one core and records
runs/sec for the detection pipeline alone (estimator sync, one-step
model prediction, threshold fusion), replayed over one recorded command
stream for N detector variants at once via
:func:`repro.experiments.batch.replay_detector_batched`, against the
scalar reference loop, :func:`~repro.experiments.batch.replay_detector_scalar`.
The table goes to ``results/campaign_throughput.txt``.

The headline assertion is **>= 10x runs/sec at some N >= 32**.  Every
width also checks the batched verdicts against the scalar loop's bit
for bit: speed means nothing here if the bytes drift.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.detector import FusionRule
from repro.experiments.batch import (
    ReplayLaneConfig,
    replay_detector_batched,
    replay_detector_scalar,
)

#: The headline assertion: batched detector replay beats the scalar loop
#: by at least this factor at some swept N >= 32, single-core.
REPLAY_MIN_SPEEDUP = 10.0


def _replay_lanes(thresholds, n: int):
    """N heterogeneous detector variants (thresholds + model error)."""
    return [
        ReplayLaneConfig(
            thresholds=thresholds.scaled(1.0 + 0.02 * i),
            parameter_error=1.0 + 0.005 * i,
            fusion=FusionRule.ANY,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def replay_table(thresholds, recorded_stream, batch_sizes):
    """Rows of (N, scalar_rps, batched_rps, speedup) over one stream."""
    rows = []
    verified = True
    for n in batch_sizes:
        lanes = _replay_lanes(thresholds, n)
        t0 = time.perf_counter()
        scalar = replay_detector_scalar(recorded_stream, lanes)
        scalar_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched = replay_detector_batched(recorded_stream, lanes)
        batched_s = time.perf_counter() - t0
        verified &= np.array_equal(scalar.alert_mask, batched.alert_mask)
        verified &= np.array_equal(scalar.alerts, batched.alerts)
        rows.append((n, n / scalar_s, n / batched_s, scalar_s / batched_s))
    return rows, verified


@pytest.mark.campaign
@pytest.mark.batch
def test_campaign_throughput_artifact(
    artifact_writer, replay_table, batch_sizes, benchmark
):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    replay_rows, replay_ok = replay_table
    cores = os.cpu_count() or 1

    lines = [
        f"machine: {cores} cores (all timings single-core); "
        f"batch widths: {list(batch_sizes)}",
        "",
        "detector replay (vectorized estimator+model+detector over one "
        "recorded stream):",
        "      N   scalar r/s   batched r/s   speedup",
    ]
    for n, s_rps, b_rps, speedup in replay_rows:
        lines.append(f"  {n:5d}  {s_rps:10.2f}  {b_rps:11.2f}  {speedup:7.2f}x")
    lines.append(f"  bit-identical to scalar: {replay_ok}")
    best = max(sp for n, _, _, sp in replay_rows if n >= 32)
    lines.append(
        f"  best replay speedup at N>=32: {best:.2f}x "
        f"(floor: {REPLAY_MIN_SPEEDUP:.0f}x)"
    )
    artifact_writer("campaign_throughput", "\n".join(lines))


@pytest.mark.campaign
@pytest.mark.batch
def test_replay_bit_identical(replay_table, benchmark):
    """Vectorized replay verdicts equal the scalar loop at every N."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, verified = replay_table
    assert verified


@pytest.mark.campaign
@pytest.mark.batch
def test_replay_speedup_floor(replay_table, benchmark):
    """>= 10x detector-replay throughput at some batch width N >= 32."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows, _ = replay_table
    eligible = [speedup for n, _, _, speedup in rows if n >= 32]
    assert eligible, "sweep must include N >= 32"
    assert max(eligible) >= REPLAY_MIN_SPEEDUP
