"""Fleet ingest throughput: in-process and over-the-wire decision rates.

Two sweeps, one artifact (``results/fleet_ingest.txt``):

**In-process** — fleet width over {4, 16, 64} sessions against one
:class:`repro.fleet.FleetSupervisor` (in-memory store, default
checkpoint cadence), recording per width:

- **frames/sec** — telemetry frames fully decided per wall-clock second
  (ingest -> batched evaluate -> decision chain);
- **sessions/sec** — complete session-campaigns finished per second
  (frames/sec divided by frames per session);
- **p99 tick latency** — 99th percentile of one full fleet tick (every
  session's frame decided), the supervisor's per-decision latency bound.

**Over-the-wire** — the same telemetry pushed through the detection
service (``repro.service``): a spawned worker-process pool sharing one
sqlite store, sessions rendezvous-sharded across it, one pipelined
frames+tick round trip per worker per tick.  Swept over {1, 2, 4}
workers; the latency columns are full frontend round trips.

Determinism checks ride along: the timed in-process fleet must equal an
untimed rerun (timing must not perturb decisions), and every service
sweep's fingerprints must be byte-identical to the in-process chains —
the wire, the sharding, and the worker count must all be invisible in
the decision bytes.
"""

from __future__ import annotations

import asyncio
import os
import platform
import time

import numpy as np
import pytest

from repro.experiments.fleet import (
    NOMINAL_THRESHOLDS,
    frame_for,
    run_fleet_campaign,
    session_id,
)
from repro.fleet import FleetConfig, FleetSupervisor, SessionSpec
from repro.service import connect_frontend, spawn_pool

#: Fleet widths swept (sessions multiplexed per supervisor).
FLEET_WIDTHS = (4, 16, 64)

#: Frames each session receives (one per fleet tick).
FRAMES_PER_SESSION = 200

#: Worker-process pool sizes swept for the over-the-wire path.
SERVICE_WORKER_COUNTS = (1, 2, 4)

#: Sessions sharded across the service pool.
SERVICE_SESSIONS = 8

#: Frames each service session receives (one per frontend tick round).
SERVICE_FRAMES_PER_SESSION = 100


def _timed_campaign(num_sessions: int):
    """Run one fleet campaign, timing every tick; return (fps, per-tick s)."""
    config = FleetConfig(checkpoint_every=64)
    fleet = FleetSupervisor(config=config)
    for i in range(num_sessions):
        fleet.register(
            SessionSpec(session_id=session_id(i), thresholds=NOMINAL_THRESHOLDS)
        )
    tick_seconds = []
    for tick in range(FRAMES_PER_SESSION):
        frames = [
            (session_id(i), frame_for(0, i, tick)) for i in range(num_sessions)
        ]
        t0 = time.perf_counter()
        for sid, frame in frames:
            fleet.ingest(sid, frame)
        fleet.tick(tick)
        tick_seconds.append(time.perf_counter() - t0)
    return fleet.fingerprints(), np.asarray(tick_seconds)


@pytest.fixture(scope="module")
def ingest_table():
    """Rows of (N, frames/s, sessions/s, p50 ms, p99 ms) + determinism."""
    rows = []
    verified = True
    for n in FLEET_WIDTHS:
        fingerprints, ticks_s = _timed_campaign(n)
        total_s = float(ticks_s.sum())
        frames = n * FRAMES_PER_SESSION
        rows.append(
            (
                n,
                frames / total_s,
                (frames / total_s) / FRAMES_PER_SESSION,
                float(np.percentile(ticks_s, 50)) * 1e3,
                float(np.percentile(ticks_s, 99)) * 1e3,
            )
        )
        # Timing must be observation-only: an untimed campaign over the
        # same streams must land on identical fingerprints.
        control = run_fleet_campaign(
            num_sessions=n,
            ticks=FRAMES_PER_SESSION,
            seed=0,
            config=FleetConfig(checkpoint_every=64),
        )
        verified &= control.fingerprints == fingerprints
    return rows, verified


async def _drive_service_timed(pool):
    """Register, then time every frontend tick round; return (fps, s)."""
    frontend = await connect_frontend({p.name: p.address for p in pool})
    try:
        for i in range(SERVICE_SESSIONS):
            await frontend.register(
                SessionSpec(
                    session_id=session_id(i), thresholds=NOMINAL_THRESHOLDS
                )
            )
        tick_seconds = []
        for tick in range(SERVICE_FRAMES_PER_SESSION):
            frames = {
                session_id(i): frame_for(0, i, tick)
                for i in range(SERVICE_SESSIONS)
            }
            t0 = time.perf_counter()
            await frontend.run_tick(tick, frames)
            tick_seconds.append(time.perf_counter() - t0)
        return await frontend.fingerprints(), np.asarray(tick_seconds)
    finally:
        await frontend.close(shutdown_workers=True)


def _timed_service_campaign(num_workers: int, store_path: str):
    pool = spawn_pool(
        num_workers, store_path, fleet_config=FleetConfig(checkpoint_every=64)
    )
    try:
        return asyncio.run(_drive_service_timed(pool))
    finally:
        for proc in pool:
            proc.stop(timeout=10.0)


@pytest.fixture(scope="module")
def service_table(tmp_path_factory):
    """Rows of (workers, frames/s, p50 ms, p99 ms) + wire bit-identity.

    The untimed control is the in-process supervisor over the same
    streams: every worker count must land on its exact fingerprints.
    """
    control = run_fleet_campaign(
        num_sessions=SERVICE_SESSIONS,
        ticks=SERVICE_FRAMES_PER_SESSION,
        seed=0,
        config=FleetConfig(checkpoint_every=64),
    )
    rows = []
    verified = True
    for workers in SERVICE_WORKER_COUNTS:
        store = tmp_path_factory.mktemp("svc_bench") / "sessions.sqlite"
        fingerprints, ticks_s = _timed_service_campaign(workers, str(store))
        total_s = float(ticks_s.sum())
        frames = SERVICE_SESSIONS * SERVICE_FRAMES_PER_SESSION
        rows.append(
            (
                workers,
                frames / total_s,
                float(np.percentile(ticks_s, 50)) * 1e3,
                float(np.percentile(ticks_s, 99)) * 1e3,
            )
        )
        verified &= fingerprints == control.fingerprints
    return rows, verified


@pytest.mark.fleet
@pytest.mark.batch
@pytest.mark.service
def test_fleet_ingest_artifact(
    artifact_writer, ingest_table, service_table, benchmark
):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows, verified = ingest_table
    svc_rows, svc_verified = service_table

    lines = [
        f"host: {os.cpu_count()} cores, Python {platform.python_version()}",
        "",
        f"fleet ingest throughput ({FRAMES_PER_SESSION} frames/session, "
        "in-memory store, checkpoint every 64 ticks):",
        "",
        "  sessions   frames/sec   sessions/sec   p50 tick   p99 tick",
    ]
    for n, fps, sps, p50_ms, p99_ms in rows:
        lines.append(
            f"  {n:8d}   {fps:10.0f}   {sps:12.2f}   "
            f"{p50_ms:6.2f}ms   {p99_ms:6.2f}ms"
        )
    lines += [
        "",
        f"decision bit-identity vs untimed rerun: "
        f"{'verified' if verified else 'FAILED'}",
        "p99 tick = 99th percentile wall time for one full fleet tick",
        "(every session's frame ingested, batch-evaluated, and chained).",
        "",
        "over-the-wire service ingest "
        f"({SERVICE_SESSIONS} sessions x {SERVICE_FRAMES_PER_SESSION} frames, "
        "worker processes + shared sqlite store, checkpoint every 64 ticks):",
        "",
        "  workers   frames/sec   p50 round   p99 round",
    ]
    for workers, fps, p50_ms, p99_ms in svc_rows:
        lines.append(
            f"  {workers:7d}   {fps:10.0f}   {p50_ms:7.2f}ms   {p99_ms:7.2f}ms"
        )
    lines += [
        "",
        f"decision bit-identity vs in-process supervisor: "
        f"{'verified' if svc_verified else 'FAILED'}",
        "p99 round = 99th percentile of one frontend tick (every session's",
        "frame framed, shipped, decided remotely, and the responses merged).",
    ]
    artifact_writer("fleet_ingest", "\n".join(lines))

    assert verified, "timing perturbed fleet decisions"
    assert svc_verified, "the wire perturbed fleet decisions"
    # Throughput must scale with width: the widest fleet should decide
    # frames at least as fast as the narrowest (batched evaluation).
    assert rows[-1][1] > rows[0][1] * 0.5
