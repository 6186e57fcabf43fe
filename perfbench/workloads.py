"""The four benchmark workloads.

Each workload is a function ``(seed, seconds, sizes, setups, rec)`` that
sets up ``setups`` times (the median is ``setup_s``), measures for about
``seconds`` seconds, checks its outputs and returns an :class:`Outcome`.
All inputs come from ``seed``.  ``rec`` is the span recorder of a traced
run, or ``None``; wrappers are installed only around the measured phase.

=============  ======  ===============================================
workload       loop    what one operation is
=============  ======  ===============================================
guard_inline   closed  one ``DetectorGuard.process`` call
fleet_tick     closed  one fleet tick: ingest 64 frames, then ``tick``
wire_ingest    open    one ``ServiceFrontend.run_tick`` round
campaign       batch   one outcome (attack cell or fault-free run) of a
                       reduced Table-IV campaign
=============  ======  ===============================================

``BENCHMARK.json`` gates every workload but ``wire_ingest``, whose round
times move too far between runs for any bound; README.md has the numbers.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import trace
from repro.attacks.campaign import ParallelCampaignRunner
from repro.control.state_machine import RobotState
from repro.core import (
    AnomalyDetector,
    DetectorGuard,
    FusionRule,
    MitigationStrategy,
    NextStateEstimator,
    RavenDynamicModel,
    SafetyThresholds,
)
from repro.experiments.batch import CommandStream, ReplayLaneConfig, replay_detector_batched
from repro.experiments.fleet import DROPOUT_EVERY, frame_for, session_id
from repro.experiments.service import run_inprocess_reference
from repro.fleet import FleetConfig, FleetSupervisor, SessionSpec, SqliteSessionStore
from repro.fleet.session import SessionBoard
from repro.hw.usb_packet import decode_command_packet, encode_command_packet
from repro.service import spawn as spawn_module
from repro.service.frontend import connect_frontend
from repro.service.spawn import WorkerProcess, spawn_pool
from repro.sim.runner import run_fault_free

OUT = Path(__file__).resolve().parent / "out"

#: Detector thresholds of every workload: the default-scale calibrated
#: values (24 fault-free training runs), pinned here so that a change to
#: the calibration cache cannot silently change the benchmark's inputs.
THRESHOLDS = SafetyThresholds(
    motor_velocity=np.array([7.5361354475243685, 6.0850283835952, 3.77128540652369]),
    motor_acceleration=np.array([498.67998212240695, 614.6063175336936, 425.3555889926782]),
    joint_velocity=np.array([0.23550423273513652, 0.19612897541874397, 0.04173700959755369]),
    percentile=99.85,
    margin=1.0,
)

#: The 12 detector configurations every guard_inline stream is replayed
#: through: threshold scale x model parameter error x mitigation.
GUARD_CONFIGS: Tuple[Tuple[float, float, MitigationStrategy], ...] = tuple(
    (scale, error, strategy)
    for scale in (0.8, 1.0, 1.25)
    for error in (1.0, 1.03)
    for strategy in (MitigationStrategy.MONITOR, MitigationStrategy.BLOCK)
)

#: Offered wire load: (label, rounds per second, share of the run).  A
#: round carries one frame per session, so 200 rounds/s is 1600 frames/s
#: with 8 sessions.  ``None`` is the closed-loop step that measures the
#: pool's capacity.  The 1600 frames/s step gets the largest share so its
#: p99 rests on at least 1000 rounds in a full-size run.
WIRE_STEPS: Tuple[Tuple[str, Optional[float], float], ...] = (
    ("r800", 100.0, 0.20),
    ("r1600", 200.0, 0.50),
    ("r3200", 400.0, 0.15),
    ("max", None, 0.15),
)

#: A step is sustained when its round p99 is within this limit and the
#: generator's lateness did not grow over the step.
WIRE_P99_LIMIT_MS = 20.0

#: The generator busy-waits this long before each due time.
SPIN_S = 0.0003

#: wire_ingest's sessions and the workers they are sharded across.
WIRE_SESSIONS = 8
WIRE_WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` keeps the self-tests fast."""

    guard_rigs: int = 4
    guard_rig_s: float = 1.6
    fleet_sessions: int = 64
    fleet_warmup_ticks: int = 64
    fleet_resumes: int = 5
    wire_warmup_rounds: int = 64
    campaign_rig_s: float = 1.2
    campaign_grid: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
        ("A", (0.1, 1.0)),
        ("B", (5000, 24000)),
    )
    campaign_periods_ms: Tuple[int, ...] = (8, 64)
    campaign_fault_free: int = 2


FULL = Sizes()
SMOKE = Sizes(
    guard_rigs=1,
    guard_rig_s=0.8,
    fleet_sessions=8,
    fleet_warmup_ticks=8,
    fleet_resumes=2,
    wire_warmup_rounds=8,
    campaign_rig_s=0.8,
    campaign_grid=(("A", (1.0,)), ("B", (24000,))),
    campaign_periods_ms=(64,),
    campaign_fault_free=1,
)


@dataclass
class Metric:
    """One measured number, with its unit and sample count."""

    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: check name -> "ok", "structural" or the reason it failed.
    checks: Dict[str, str] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    #: Operations per second of the measured phase (tracing overhead base).
    rate: float = 0.0
    #: Worker span dumps of a traced wire run.
    worker_dumps: List[dict] = field(default_factory=list)
    #: Telemetry frames sent in the measured phase (wire only).
    frames_sent: int = 0

    def add(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    def check(self, name: str, ok: bool, failure: str) -> None:
        self.checks[name] = "ok" if ok else failure


# -- shared helpers ------------------------------------------------------------------


def digest(payload: Any) -> str:
    """Short SHA-256 of a payload's canonical JSON."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def tail_percentile(samples: int) -> float:
    """p99, or the highest percentile with ten samples beyond it."""
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / samples)))


def add_split(out: Outcome, prefix: str, latencies: Sequence[float], flags: Sequence[bool]) -> None:
    """Latency of the operations that wrote a checkpoint, and p99 of the rest."""
    values = np.asarray(latencies) * 1e3
    flags = np.asarray(flags, dtype=bool)
    if flags.any():
        out.add(f"{prefix}_with_checkpoint.p50_ms", np.percentile(values[flags], 50), "ms",
                int(flags.sum()))
    if (~flags).any():
        out.add(f"{prefix}_without_checkpoint.p99_ms", np.percentile(values[~flags], 99), "ms",
                int((~flags).sum()))


def checkpoint_cycles(latencies: Sequence[float], cycle: int) -> List[Sequence[float]]:
    """Consecutive runs of ``cycle`` operations (all of them if fewer).

    A checkpoint falls in every ``cycle`` consecutive ticks, so each run
    carries the same mix of work; a median over runs keeps a burst of
    outside load in one of them from moving the result.
    """
    chunks = [latencies[i : i + cycle] for i in range(0, len(latencies) - cycle + 1, cycle)]
    return chunks or [latencies]


def cycle_rate(cycles: Sequence[Sequence[float]]) -> float:
    """Operations per busy second, median over checkpoint cycles."""
    return statistics.median(len(chunk) / sum(chunk) for chunk in cycles)


def add_setup(out: Outcome, times: Sequence[float]) -> None:
    out.add("setup_s", statistics.median(times), "s", len(times), "median of the set-ups")


def peak_rss_mb(worker_pids: Sequence[int] = ()) -> float:
    """Peak resident set of this process plus the given workers, MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


def timed_setups(setups: int, build: Callable[[int], Any]):
    """Run ``build`` ``setups`` times; keep the last, return (it, times)."""
    times: List[float] = []
    result = None
    for index in range(setups):
        start = perf_counter()
        result = build(index)
        times.append(perf_counter() - start)
    return result, times


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory under ``perfbench/out`` removed afterwards."""
    path = OUT / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def pinned_check(out: Outcome, expected: Optional[dict], name: str, value: str) -> None:
    """Compare a digest with its pinned value, when one is pinned."""
    out.digests[name] = value
    if expected is None or name not in expected:
        out.checks[f"pinned:{name}"] = "structural"
        return
    out.check(
        f"pinned:{name}",
        expected[name] == value,
        f"digest {value} != pinned {expected[name]}",
    )


# -- guard_inline ---------------------------------------------------------------------


#: Injected DAC offset windows per stream: (cycles, counts).  Fixed, so
#: every seed alerts on about as many packets; the seed picks where each
#: window starts and which channel it hits.
INJECTED_WINDOWS = ((2, 2000), (16, 12000), (128, 30000))


def _inject_offsets(stream: CommandStream, rng: np.random.Generator) -> CommandStream:
    """A copy with three scenario-B-shaped DAC offset windows.

    Recorded streams hold the *commanded* DAC, so without this nothing
    alerts: each window adds 2000-30000 counts to one channel for 2-128
    control cycles (ms) while the pedal is down.
    """
    dac = stream.dac.copy()
    active = np.flatnonzero(stream.pedal_down)
    for length, counts in INJECTED_WINDOWS:
        start = int(rng.integers(active[0], active[-1] - length))
        dac[start : start + length, int(rng.integers(3))] += counts
    np.clip(dac, -32768, 32767, out=dac)
    return CommandStream(dac=dac, mpos=stream.mpos, pedal_down=stream.pedal_down)


def _packets(stream: CommandStream) -> list:
    return [
        decode_command_packet(
            encode_command_packet(
                RobotState.PEDAL_DOWN if down else RobotState.PEDAL_UP,
                True,
                [int(v) for v in dac],
            )
        )
        for dac, down in zip(stream.dac, stream.pedal_down)
    ]


def _lane(config: Tuple[float, float, MitigationStrategy]) -> ReplayLaneConfig:
    scale, error, _ = config
    return ReplayLaneConfig(
        thresholds=THRESHOLDS.scaled(scale), parameter_error=error, fusion=FusionRule.ALL
    )


def _guard(config: Tuple[float, float, MitigationStrategy]) -> DetectorGuard:
    lane = _lane(config)
    guard = DetectorGuard(
        estimator=NextStateEstimator(
            RavenDynamicModel(integrator=lane.integrator, parameter_error=lane.parameter_error)
        ),
        detector=AnomalyDetector(thresholds=lane.thresholds, fusion=lane.fusion),
        strategy=config[2],
    )
    guard.attach(SessionBoard())
    return guard


def _reference_masks(stream: CommandStream) -> np.ndarray:
    """Alert masks of every config from the batched replay, ``(12, T)``.

    Batched lanes must share a fusion rule, so lanes are grouped by it.
    """
    lanes = [_lane(config) for config in GUARD_CONFIGS]
    masks = np.zeros((len(lanes), len(stream)), dtype=bool)
    for fusion in {lane.fusion for lane in lanes}:
        index = [i for i, lane in enumerate(lanes) if lane.fusion is fusion]
        result = replay_detector_batched(stream, [lanes[i] for i in index])
        masks[index] = result.alert_mask
    return masks


def guard_inline(seed, seconds, sizes, setups, rec, expected=None) -> Outcome:
    out = Outcome()

    def build(index: int):
        rng = np.random.default_rng(seed)
        streams = []
        for i in range(sizes.guard_rigs):
            recorded = CommandStream.from_trace(
                run_fault_free(
                    seed=int(rng.integers(2**31)),
                    duration_s=sizes.guard_rig_s,
                    trajectory_name=("circle", "suturing")[i % 2],
                )
            )
            streams += [recorded, _inject_offsets(recorded, rng)]
        return streams, [_packets(stream) for stream in streams]

    (streams, packets), setup_times = timed_setups(setups, build)
    add_setup(out, setup_times)

    pairs = [(s, c) for s in range(len(streams)) for c in range(len(GUARD_CONFIGS))]
    masks: Dict[Tuple[int, int], np.ndarray] = {}
    latencies: List[float] = []
    replay_rates: List[float] = []
    replay_p50s: List[float] = []
    replay_p99s: List[float] = []
    errors: List[str] = []
    replayed = 0
    with trace.measuring(rec):
        start = perf_counter()
        while perf_counter() - start < seconds:
            s, c = pairs[replayed % len(pairs)]
            replayed += 1
            guard = _guard(GUARD_CONFIGS[c])
            stream_packets, mpos = packets[s], streams[s].mpos
            mask = np.zeros(len(stream_packets), dtype=bool)
            first = len(latencies)
            for k, packet in enumerate(stream_packets):
                if rec is not None:
                    rec.request = len(latencies)
                t0 = perf_counter()
                try:
                    guard.process(packet, mpos[k])
                except Exception as exc:  # noqa: BLE001 — counted as a failed operation
                    errors.append(f"{type(exc).__name__}: {exc}")
                latencies.append(perf_counter() - t0)
                evaluation = guard.last_evaluation
                mask[k] = evaluation is not None and evaluation.alert
            replay = latencies[first:]
            replay_rates.append(len(replay) / sum(replay))
            replay_p50s.append(float(np.percentile(replay, 50)))
            replay_p99s.append(float(np.percentile(replay, 99)))
            masks.setdefault((s, c), mask)
            if (masks[(s, c)] != mask).any():
                errors.append(f"stream {s} config {c}: replay differs from its first pass")

    # Best replay: outside load only ever slows a replay down, and the
    # fastest of ~100 replays moved far less between runs than the median.
    replays = f"best of {len(replay_rates)} replays of {len(stream_packets)} calls"
    out.attempted = len(latencies)
    out.rate = max(replay_rates)
    out.add("throughput_per_s", out.rate, "1/s", len(latencies), f"decisions per second, {replays}")
    out.add("latency_p50_ms", min(replay_p50s) * 1e3, "ms", len(latencies),
            f"per DetectorGuard.process call, {replays}")
    out.add("latency_tail_ms", min(replay_p99s) * 1e3, "ms", len(latencies), f"p99, {replays}")
    out.add("pooled_p50_ms", np.percentile(latencies, 50) * 1e3, "ms", len(latencies),
            "over every call of the run")
    out.add("pooled_p99_ms", np.percentile(latencies, 99) * 1e3, "ms", len(latencies),
            "over every call of the run")
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1)

    reference = [_reference_masks(stream) for stream in streams]
    mismatched = sum(int((mask != reference[s][c]).sum()) for (s, c), mask in masks.items())
    out.failed = mismatched + len(errors)
    out.check("raised", not errors, "; ".join(errors[:3]))
    out.check(
        "alert_masks_vs_batched_replay",
        mismatched == 0,
        f"{mismatched} packets alert differently from replay_detector_batched",
    )
    alerts = sum(int(m.sum()) for m in reference)
    out.check("alerts_present", alerts > 0, "no configuration alerted on any stream")
    pinned_check(out, expected, "reference_masks", digest([m.tolist() for m in reference]))
    return out


# -- fleet_tick -----------------------------------------------------------------------


def _fleet_specs(count: int) -> List[SessionSpec]:
    return [SessionSpec(session_id=session_id(i), thresholds=THRESHOLDS) for i in range(count)]


def fleet_tick(seed, seconds, sizes, setups, rec, expected=None) -> Outcome:
    out = Outcome()
    specs = _fleet_specs(sizes.fleet_sessions)
    warmup = sizes.fleet_warmup_ticks

    def drive(fleet: FleetSupervisor, tick: int, cursor: Dict[str, int]) -> None:
        """Ingest the next frame of every session behind ``tick``, then tick."""
        for i, spec in enumerate(specs):
            sid = spec.session_id
            if cursor[sid] <= tick and fleet.ingest(sid, frame_for(seed, i, cursor[sid])):
                cursor[sid] += 1
        fleet.tick(tick)

    with scratch_dir() as scratch:

        def build(index: int):
            store_path = scratch / f"fleet-{index}.sqlite"
            fleet = FleetSupervisor(store=SqliteSessionStore(store_path), config=FleetConfig())
            for spec in specs:
                fleet.register(spec)
            cursor = {spec.session_id: 0 for spec in specs}
            for tick in range(warmup):
                drive(fleet, tick, cursor)
            return fleet, store_path

        (fleet, store_path), setup_times = timed_setups(setups, build)
        add_setup(out, setup_times)
        pinned_check(out, expected, "warmup_fingerprints", digest(fleet.fingerprints()))

        latencies: List[float] = []
        checkpointed: List[bool] = []
        failed_ticks = 0
        errors: List[str] = []
        recoveries: List[float] = []
        tick = warmup
        last_checkpoint = -1
        with trace.measuring(rec):
            start = perf_counter()
            # FleetSupervisor.resume loses the restored estimator state (the
            # pack rebuild writes the pristine lane back over it), so a
            # session resumed straight into a frame without a measurement
            # cannot evaluate it and its chain diverges.  Until that is
            # fixed, the measured phase ends where the catch-up starts on a
            # measured frame; README.md, First findings, has the details.
            while (
                perf_counter() - start < seconds
                or (last_checkpoint + 1) % DROPOUT_EVERY == DROPOUT_EVERY - 1
            ):
                frames = [(spec.session_id, frame_for(seed, i, tick)) for i, spec in enumerate(specs)]
                if rec is not None:
                    rec.request = tick
                t0 = perf_counter()
                try:
                    accepted = [fleet.ingest(sid, frame) for sid, frame in frames]
                    report = fleet.tick(tick)
                except Exception as exc:  # noqa: BLE001 — counted as a failed operation
                    errors.append(f"tick {tick}: {type(exc).__name__}: {exc}")
                    accepted, report = [False], None
                latencies.append(perf_counter() - t0)
                checkpointed.append(report is not None and bool(report.checkpointed))
                if checkpointed[-1]:
                    last_checkpoint = tick
                failed_ticks += not all(accepted)
                tick += 1
            live = fleet.fingerprints()

            # Recovery: every session resumed from the store into a fresh
            # supervisor; the last one catches up to the live tick.
            for _ in range(sizes.fleet_resumes):
                t0 = perf_counter()
                resumed = FleetSupervisor(
                    store=SqliteSessionStore(store_path), config=FleetConfig()
                )
                for spec in specs:
                    resumed.resume(spec)
                recoveries.append(perf_counter() - t0)
            cursor = {sid: s.frames_processed for sid, s in resumed.sessions.items()}
            caught_up = 0
            for resumed_tick in range(min(cursor.values()), tick):
                drive(resumed, resumed_tick, cursor)
                caught_up += 1

    out.attempted = len(latencies) + len(recoveries)
    cycles = checkpoint_cycles(latencies, FleetConfig().checkpoint_every)
    out.rate = cycle_rate(cycles)
    out.add("throughput_per_s", out.rate * len(specs), "1/s", len(latencies),
            f"frames per second, median of {len(cycles)} checkpoint cycles")
    # A tick's p50 is the host's as much as the code's: the best cycle's
    # moved far less between runs than the p50 over every tick.
    out.add("latency_p50_ms", min(np.percentile(c, 50) for c in cycles) * 1e3, "ms",
            len(latencies), f"per tick of {len(specs)} sessions, best of {len(cycles)} cycles")
    tail = tail_percentile(len(latencies))
    out.add("latency_tail_ms", np.percentile(latencies, tail) * 1e3, "ms", len(latencies),
            f"p{tail:.4g} over every tick")
    out.add("pooled_p50_ms", np.percentile(latencies, 50) * 1e3, "ms", len(latencies),
            "over every tick")
    add_split(out, "ticks", latencies, checkpointed)
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    out.add("recovery_ms", statistics.median(recoveries) * 1e3, "ms", len(recoveries),
            f"median time to resume {len(specs)} sessions from sqlite")
    out.add("catchup_ticks", caught_up, "count", 1, "ticks replayed after the last resume")

    matches = resumed.fingerprints() == live
    out.failed = failed_ticks if matches else out.attempted
    out.check("raised", not errors, "; ".join(errors[:3]))
    out.check("backpressure", failed_ticks == 0, f"{failed_ticks} ticks had rejected frames")
    out.check(
        "resumed_fingerprints_vs_live",
        matches,
        "resumed and caught-up sessions differ from the uninterrupted run",
    )
    estopped = sorted(sid for sid, fp in live.items() if fp["estopped"])
    out.check("no_estop", not estopped, f"sessions E-STOPPED: {estopped[:4]}")
    return out


# -- wire_ingest ----------------------------------------------------------------------


class TracedWorkerProcess(WorkerProcess):
    """A service worker started through ``perfbench/traced_worker.py``.

    The worker installs the same wrappers as the benchmark process and
    writes its spans to ``spans_path`` when it shuts down.
    """

    def __init__(self, *args, spans_dir: Path, from_tick: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spans_path = spans_dir / f"spans-{self.name}.json"
        self.from_tick = from_tick

    def command(self) -> List[str]:
        python, _, _, *worker_args = super().command()  # python -m repro.service ...
        return [
            python,
            str(Path(__file__).resolve().parent / "traced_worker.py"),
            "--spans",
            str(self.spans_path),
            "--from-tick",
            str(self.from_tick),
            "--",
            *worker_args,
        ]


def _spawn(count: int, store_path: Path, traced: bool, from_tick: int) -> List[WorkerProcess]:
    if not traced:
        return spawn_pool(count, str(store_path), fleet_config=FleetConfig())
    spawn_module.WorkerProcess = functools.partial(
        TracedWorkerProcess, spans_dir=store_path.parent, from_tick=from_tick
    )
    try:
        return spawn_pool(count, str(store_path), fleet_config=FleetConfig())
    finally:
        spawn_module.WorkerProcess = WorkerProcess


async def _stop(pool, frontend) -> None:
    """Shut the workers down and wait for every one of them to exit.

    A worker asked to shut down exits by itself, a traced one after writing
    its spans; only one still running after 10 s gets SIGTERM, then SIGKILL.
    """
    grace = 0.0
    try:
        if frontend is not None:
            await frontend.close(shutdown_workers=True)
            grace = 10.0
    finally:
        deadline = perf_counter() + grace
        for proc in pool:
            try:
                proc.process.wait(timeout=max(0.0, deadline - perf_counter()))
            except subprocess.TimeoutExpired:
                pass
            proc.stop(timeout=10.0)


def _lateness_grew(lags: Sequence[float], rate: float) -> bool:
    """Whether the generator ran later at the step's end than at its start
    by more than one period (the backlog grew)."""
    window = min(int(rate), max(1, len(lags) // 2))
    first = statistics.fmean(lags[:window])
    last = statistics.fmean(lags[-window:])
    return last - first > 1.0 / rate


async def _wire(seed, seconds, sizes, setups, rec, expected, scratch) -> Outcome:
    out = Outcome()
    specs = _fleet_specs(WIRE_SESSIONS)
    warmup = sizes.wire_warmup_rounds

    def frames_of(round_no: int):
        return {spec.session_id: frame_for(seed, i, round_no) for i, spec in enumerate(specs)}

    setup_times: List[float] = []
    pool: List[WorkerProcess] = []
    frontend = None
    try:
        for index in range(setups):
            await _stop(pool, frontend)
            pool, frontend = [], None
            start = perf_counter()
            pool = _spawn(
                WIRE_WORKERS, scratch / f"wire-{index}.sqlite", rec is not None, warmup
            )
            frontend = await connect_frontend({proc.name: proc.address for proc in pool})
            for spec in specs:
                await frontend.register(spec)
            for round_no in range(warmup):
                await frontend.run_tick(round_no, frames_of(round_no))
            setup_times.append(perf_counter() - start)
        add_setup(out, setup_times)
        pinned_check(out, expected, "warmup_fingerprints", digest(await frontend.fingerprints()))
        errors: List[str] = []
        checkpointed: List[bool] = []
        failed_rounds = 0
        round_no = warmup
        steps: Dict[str, Tuple[List[float], List[float], List[bool]]] = {}

        async def send(frames) -> bool:
            """One round; False when it raised, was refused or lost a worker."""
            if rec is not None:
                rec.request = round_no
            try:
                outcome = await frontend.run_tick(round_no, frames)
            except Exception as exc:  # noqa: BLE001 — counted as a failed operation
                errors.append(f"round {round_no}: {type(exc).__name__}: {exc}")
                checkpointed.append(False)
                return False
            checkpointed.append(any(r["checkpointed"] for r in outcome.reports.values()))
            return not outcome.dead_workers and all(outcome.accepted.get(s) for s in frames)

        with trace.measuring(rec):
            for label, rate, share in WIRE_STEPS:
                latencies: List[float] = []
                lags: List[float] = []
                first = len(checkpointed)
                step_start = perf_counter()
                if rate is None:
                    # Closed loop: the next round goes out when the last returns.
                    while perf_counter() - step_start < seconds * share:
                        frames = frames_of(round_no)
                        t0 = perf_counter()
                        failed_rounds += not await send(frames)
                        latencies.append(perf_counter() - t0)
                        round_no += 1
                else:
                    # Open loop: round k is due at origin + k / rate whatever
                    # the pool does; latency counts from the due time, so a
                    # stall also delays every round queued behind it.
                    period = 1.0 / rate
                    origin = perf_counter() + period
                    for k in range(max(2, round(seconds * share * rate))):
                        due = origin + k * period
                        frames = frames_of(round_no)
                        # Sleep, then spin the last fraction of a millisecond.
                        # Nothing else runs on the loop between rounds, so a
                        # blocking sleep is safe and far finer than the loop's
                        # millisecond timer.
                        idle = due - perf_counter()
                        if idle > SPIN_S:
                            sleep(idle - SPIN_S)
                        while perf_counter() < due:
                            pass
                        lags.append(perf_counter() - due)
                        failed_rounds += not await send(frames)
                        latencies.append(perf_counter() - due)
                        round_no += 1
                steps[label] = (latencies, lags, checkpointed[first:])
        out.add("peak_rss_mb", peak_rss_mb([proc.process.pid for proc in pool]), "MB", 1,
                f"this process and {len(pool)} workers")
        fingerprints = await frontend.fingerprints()
    finally:
        await _stop(pool, frontend)
    if rec is not None:
        for proc in pool:
            with open(proc.spans_path) as handle:
                out.worker_dumps.append(json.load(handle))

    rounds = round_no - warmup
    out.attempted = rounds
    out.frames_sent = rounds * len(specs)
    cycle = FleetConfig().checkpoint_every
    closed_loop = steps["max"][0]
    cycles = checkpoint_cycles(closed_loop, cycle)
    out.rate = cycle_rate(cycles)
    out.add("throughput_per_s", out.rate * len(specs), "1/s", len(closed_loop),
            f"frames per second in closed loop, median of {len(cycles)} checkpoint cycles")
    at_1600 = steps["r1600"][0]
    out.add("latency_p50_ms", np.percentile(at_1600, 50) * 1e3, "ms", len(at_1600),
            "per round at 1600 frames/s, from its due time")
    out.add(
        "latency_tail_ms",
        statistics.median(max(chunk) for chunk in checkpoint_cycles(at_1600, cycle)) * 1e3,
        "ms",
        len(at_1600),
        f"slowest round of each {cycle}-round checkpoint cycle at 1600 frames/s, "
        "median over cycles",
    )
    add_split(out, "wire.r1600.rounds", at_1600, steps["r1600"][2])
    sustained = 0.0
    for label, rate, _ in WIRE_STEPS:
        latencies, lags, _ = steps[label]
        ms = np.asarray(latencies) * 1e3
        out.add(f"wire.{label}.round_p50_ms", np.percentile(ms, 50), "ms", len(ms))
        out.add(f"wire.{label}.round_p99_ms", np.percentile(ms, 99), "ms", len(ms))
        if rate is not None:
            if np.percentile(ms, 99) <= WIRE_P99_LIMIT_MS and not _lateness_grew(lags, rate):
                sustained = rate * len(specs)
            if label == "r1600":
                lag_ms = np.asarray(lags) * 1e3
                out.add("loadgen.lag_p50_ms", np.percentile(lag_ms, 50), "ms", len(lag_ms))
                out.add("loadgen.lag_p99_ms", np.percentile(lag_ms, 99), "ms", len(lag_ms))
    out.add("sustained_frames_per_s", sustained, "1/s", len(WIRE_STEPS) - 1,
            f"highest step with p99 <= {WIRE_P99_LIMIT_MS:g} ms and no growing lateness")

    streams = [[frame_for(seed, i, r) for r in range(round_no)] for i in range(len(specs))]
    reference = run_inprocess_reference(streams, thresholds=THRESHOLDS, fleet=FleetConfig())
    matches = fingerprints == reference
    out.failed = failed_rounds if matches else out.attempted
    out.check("raised", not errors, "; ".join(errors[:3]))
    out.check("rounds", failed_rounds == 0, f"{failed_rounds} rounds rejected or lost a worker")
    out.check(
        "fingerprints_vs_inprocess_reference",
        matches,
        "service fingerprints differ from run_inprocess_reference",
    )
    return out


def wire_ingest(seed, seconds, sizes, setups, rec, expected=None) -> Outcome:
    with scratch_dir() as scratch:
        return asyncio.run(_wire(seed, seconds, sizes, setups, rec, expected, scratch))


# -- campaign -------------------------------------------------------------------------


def _outcome_row(outcome) -> list:
    cell = outcome.cell
    return [
        None if cell is None else [cell.scenario, cell.error_value, cell.period_ms],
        outcome.seed,
        outcome.label,
        outcome.raven_detected,
        outcome.model_detected,
        float(outcome.deviation_mm).hex(),
        outcome.attack_fired,
    ]


def _structural(rows: List[list], cells: int, fault_free: int) -> bool:
    attacks, negatives = rows[:cells], rows[cells:]
    return (
        len(rows) == cells + fault_free
        and all(row[0] is not None and row[6] for row in attacks)
        and all(row[0] is None and not row[2] and not row[6] for row in negatives)
        and all(float.fromhex(row[5]) >= 0.0 for row in rows)
    )


def campaign(seed, seconds, sizes, setups, rec, expected=None) -> Outcome:
    out = Outcome()

    def build(index: int):
        # One short monitored rig, so lazy imports and first-call costs are
        # paid before timing starts.
        guard = _guard((1.0, 1.03, MitigationStrategy.MONITOR))
        run_fault_free(seed=seed, duration_s=0.6, guard=guard)

    _, setup_times = timed_setups(setups, build)
    add_setup(out, setup_times)

    periods = sizes.campaign_periods_ms
    fault_free = sizes.campaign_fault_free
    durations: List[float] = []
    runs = 0
    failed_runs = 0
    rows_of: Dict[str, List[list]] = {}
    wrong: List[str] = []
    with trace.measuring(rec):
        start = perf_counter()
        passes = 0
        # Whole passes over the grid, so every run does the same mix; stop
        # at the pass count that lands closest to ``seconds``.
        while passes == 0 or (perf_counter() - start) * (1 + 0.5 / passes) < seconds:
            passes += 1
            for scenario, values in sizes.campaign_grid:
                cells = len(values) * len(periods)
                runner = ParallelCampaignRunner(
                    THRESHOLDS, duration_s=sizes.campaign_rig_s, base_seed=seed, jobs=1
                )
                t0 = perf_counter()
                try:
                    result = runner.run_campaign(
                        scenario, values, periods, repetitions=1, fault_free_runs=fault_free
                    )
                except Exception as exc:  # noqa: BLE001 — counted as failed operations
                    wrong.append(f"campaign {scenario}: {type(exc).__name__}: {exc}")
                    failed_runs += cells + fault_free
                    continue
                durations.append(perf_counter() - t0)
                runs += len(result.outcomes)
                rows = [_outcome_row(o) for o in result.outcomes]
                if not _structural(rows, cells, fault_free):
                    wrong.append(f"campaign {scenario}: outcome list has the wrong shape")
                if rows_of.setdefault(scenario, rows) != rows:
                    wrong.append(f"campaign {scenario}: outcomes differ between repeats")
        wall = perf_counter() - start

    out.attempted = runs + failed_runs
    out.rate = runs / wall
    out.add("throughput_per_s", out.rate, "1/s", runs,
            "campaign runs (attack cells and fault-free runs) per second")
    ms = np.asarray(durations) * 1e3
    out.add("latency_p50_ms", np.percentile(ms, 50), "ms", len(ms), "per run_campaign call")
    out.add("latency_tail_ms", ms.max(), "ms", len(ms), "slowest run_campaign call")
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1)

    out.check("outcomes", not wrong, "; ".join(wrong[:3]))
    for scenario, rows in sorted(rows_of.items()):
        pinned_check(out, expected, f"campaign_{scenario}", digest(rows))
    pinned_ok = all(v in ("ok", "structural") for k, v in out.checks.items() if k.startswith("pinned:"))
    out.failed = failed_runs if pinned_ok and not wrong else out.attempted
    return out


#: name -> (workload function, why it is in the benchmark)
WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "guard_inline": guard_inline,
    "fleet_tick": fleet_tick,
    "wire_ingest": wire_ingest,
    "campaign": campaign,
}
