"""Span recording for traced benchmark runs.

A traced run wraps public functions of ``repro`` from the benchmark's own
code: :func:`install` replaces each target in :data:`SPANS` with
``setattr`` on its class or module, and :func:`uninstall` puts the
originals back.  ``src/`` is never edited, and an untraced run installs
nothing.

Each wrapper records one span: name, start, end, parent and request id
(the packet index, tick, round or rig run the work belongs to).  Spans
are aggregated as they close — calls and self time per name — so a run
of a few hundred thousand calls stays small in memory; only the first
``keep`` spans are retained for the Chrome trace file.  A span's self
time is its duration minus the *union* of its children's intervals, so
two concurrent children (the per-worker ``client_pipeline`` calls of one
wire round) are not subtracted twice.

Targets are patched on the binding their caller looks up at call time.
``frame_to_wire`` is imported by name into ``repro.service.frontend``
and ``frame_from_wire`` into ``repro.service.worker``, so those module
attributes are the ones replaced; ``encode_message`` and ``decode_body``
are looked up in ``repro.service.protocol`` by ``write_message`` and
``read_message``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import statistics
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Spans kept for the trace file, per process.
DEFAULT_KEEP = 20_000


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class _Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "children", "token")

    def __init__(self, sid, name, start, parent, request):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.children: List[Tuple[float, float]] = []
        self.token = None


class Recorder:
    """Collects spans of one process.

    ``request`` is the id new root spans take; nested spans inherit their
    parent's.  With ``min_request`` set, spans whose request id is below
    it (a worker's warm-up ticks) are not recorded.  The durations of
    spans named in ``busy_spans`` are also summed per request.
    """

    def __init__(
        self,
        keep: int = DEFAULT_KEEP,
        min_request: Optional[int] = None,
        busy_spans: Tuple[str, ...] = (),
    ):
        self.request: Any = 0
        self.keep = keep
        self.min_request = min_request
        #: name -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        #: (name, start, end, span id, parent id, request) of kept spans.
        self.kept: List[tuple] = []
        self.dropped = 0
        #: Per-request busy seconds of the spans named in ``busy_spans``.
        self.busy: Dict[Any, float] = defaultdict(float)
        self.busy_spans = busy_spans
        #: (request, worker name, seconds) of every ``client_pipeline`` call.
        self.pipelines: List[tuple] = []
        self._root_starts = array("d")
        self._root_ends = array("d")
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Start and length of the measured (wrapped) phase.
        self.origin = 0.0
        self.wall = 0.0
        self._next_sid = 0
        self._runs = 0

    # -- spans -------------------------------------------------------------------

    def open(self, name: str, request: Any = None) -> _Span:
        parent = self._current.get()
        if request is None:
            request = parent.request if parent is not None else self.request
        self._next_sid += 1
        span = _Span(self._next_sid, name, perf_counter(), parent, request)
        span.token = self._current.set(span)
        return span

    def close(self, span: _Span) -> None:
        span.end = perf_counter()
        self._current.reset(span.token)
        if self.min_request is not None and (
            span.request is None or span.request < self.min_request
        ):
            return
        parent = span.parent
        if parent is not None:
            parent.children.append((span.start, span.end))
        else:
            self._root_starts.append(span.start)
            self._root_ends.append(span.end)
        duration = span.end - span.start
        if span.children:
            self_s = duration - union_length(span.children)
        else:
            self_s = duration
        entry = self.stats[span.name]
        entry[0] += 1
        entry[1] += self_s
        if span.name in self.busy_spans:
            self.busy[span.request] += duration
        if len(self.kept) < self.keep:
            self.kept.append(
                (
                    span.name,
                    span.start,
                    span.end,
                    span.sid,
                    parent.sid if parent is not None else 0,
                    span.request,
                )
            )
        else:
            self.dropped += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def next_run(self) -> int:
        """A fresh request id for one rig run."""
        self._runs += 1
        return self._runs

    def root_time(self) -> float:
        """Wall time covered by at least one root span."""
        return union_length(list(zip(self._root_starts, self._root_ends)))

    # -- export ------------------------------------------------------------------

    def dump(self, path: str, **extra: Any) -> None:
        """Write this process's spans and aggregates (worker shutdown)."""
        payload = {
            "pid": os.getpid(),
            "stats": {name: list(value) for name, value in self.stats.items()},
            "counters": dict(self.counters),
            "busy": [[key, value] for key, value in self.busy.items()],
            "kept": self.kept,
            "dropped": self.dropped,
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


# -- span targets ------------------------------------------------------------------

#: ``post(recorder, span, args, result)`` runs after a wrapped call returns.
PostHook = Callable[[Recorder, _Span, tuple, Any], None]


def _count_alert(rec: Recorder, span: _Span, args: tuple, result: Any) -> None:
    rec.count("evaluations")
    if result.alert:
        rec.count("alerts")


def _count_rejected(rec: Recorder, span: _Span, args: tuple, result: Any) -> None:
    if not result:
        rec.count("frames_rejected")


def _count_encoded(rec: Recorder, span: _Span, args: tuple, result: Any) -> None:
    rec.count("bytes", len(result))


def _count_decoded(rec: Recorder, span: _Span, args: tuple, result: Any) -> None:
    rec.count("bytes", len(args[0]))


def _record_pipeline(rec: Recorder, span: _Span, args: tuple, result: Any) -> None:
    # args[0] is the ServiceClient; its name is the worker's.
    rec.pipelines.append((span.request, args[0].name, span.end - span.start))


def _worker_tick(rec: Recorder, args: tuple) -> int:
    # args[0] is the ServiceWorker: the round it is assembling.
    return args[0].fleet.tick_count


def _rig_run(rec: Recorder, args: tuple) -> int:
    return rec.next_run()


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, module, attribute path, hooks."""

    name: str
    module: str
    path: str
    post: Optional[PostHook] = None
    request_of: Optional[Callable[[Recorder, tuple], Any]] = None


#: Every span a traced run records, grouped by layer (module).
SPANS: Tuple[Target, ...] = (
    # repro.core, scalar
    Target("core.guard_process", "repro.core.pipeline", "DetectorGuard.process"),
    Target("core.estimator_sync", "repro.core.estimator", "NextStateEstimator.sync"),
    Target("core.estimator_estimate", "repro.core.estimator", "NextStateEstimator.estimate"),
    Target("core.model_predict", "repro.core.dynamic_model", "RavenDynamicModel.predict"),
    Target(
        "core.detector_evaluate", "repro.core.detector", "AnomalyDetector.evaluate",
        post=_count_alert,
    ),
    # repro.core, batched and supervisor
    Target("core.batched_sync", "repro.core.estimator", "BatchedNextStateEstimator.sync"),
    Target("core.batched_coast", "repro.core.estimator", "BatchedNextStateEstimator.coast"),
    Target(
        "core.batched_estimate", "repro.core.estimator", "BatchedNextStateEstimator.estimate"
    ),
    Target("core.supervisor_process", "repro.core.pipeline", "GuardSupervisor.process"),
    Target("core.supervisor_tick_cycle", "repro.core.pipeline", "GuardSupervisor.tick_cycle"),
    # repro.fleet
    Target("fleet.ingest", "repro.fleet.supervisor", "FleetSupervisor.ingest", post=_count_rejected),
    Target("fleet.tick", "repro.fleet.supervisor", "FleetSupervisor.tick"),
    Target("fleet.record_decision", "repro.fleet.session", "FleetSession.record_decision"),
    Target("fleet.checkpoint", "repro.fleet.supervisor", "FleetSupervisor.checkpoint"),
    Target("fleet.snapshot_create", "repro.fleet.store", "SessionSnapshot.create"),
    Target("fleet.store_save", "repro.fleet.store", "SqliteSessionStore.save"),
    Target("fleet.store_load", "repro.fleet.store", "SessionStore.load"),
    # repro.service, frontend side
    Target("service.run_tick", "repro.service.frontend", "ServiceFrontend.run_tick"),
    Target("service.frame_to_wire", "repro.service.frontend", "frame_to_wire"),
    Target(
        "service.encode_message", "repro.service.protocol", "encode_message",
        post=_count_encoded,
    ),
    Target(
        "service.client_pipeline", "repro.service.client", "ServiceClient.pipeline",
        post=_record_pipeline,
    ),
    Target("service.decode_body", "repro.service.protocol", "decode_body", post=_count_decoded),
    # repro.service, worker side
    Target(
        "service.worker_dispatch", "repro.service.worker", "ServiceWorker.dispatch",
        request_of=_worker_tick,
    ),
    Target("service.frame_from_wire", "repro.service.worker", "frame_from_wire"),
    # repro.sim with control, hw, teleop and dynamics
    Target("sim.rig_run", "repro.sim.rig", "SurgicalRig.run", request_of=_rig_run),
    Target("teleop.console_tick", "repro.teleop.console", "MasterConsoleEmulator.tick"),
    Target("control.controller_tick", "repro.control.controller", "RavenController.tick"),
    Target("hw.usb_fd_write", "repro.hw.usb_board", "UsbBoard.fd_write"),
    Target("hw.motor_tick", "repro.hw.motor_controller", "MotorController.tick"),
    Target("dynamics.plant_step", "repro.dynamics.plant", "RavenPlant.step"),
    Target("hw.plc_tick", "repro.hw.plc", "Plc.tick"),
    Target("sim.trace_record", "repro.sim.trace", "RunTrace.record"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(target.name for target in SPANS)

#: Retries are counted, not timed: a retry is a second call of the
#: operation ``RetryingSessionStore._attempt`` was given.
_RETRY_OWNER = ("repro.fleet.store", "RetryingSessionStore._attempt")


def _wrap(rec: Recorder, target: Target, fn: Callable) -> Callable:
    name, post, request_of = target.name, target.post, target.request_of
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span = rec.open(name, request_of(rec, args) if request_of else None)
            try:
                result = await fn(*args, **kwargs)
            finally:
                rec.close(span)
            if post is not None:
                post(rec, span, args, result)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name, request_of(rec, args) if request_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if post is not None:
            post(rec, span, args, result)
        return result

    return wrapper


def _wrap_attempt(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def _attempt(self, operation, *args):
        calls = 0

        def counted(*inner):
            nonlocal calls
            calls += 1
            return operation(*inner)

        try:
            return fn(self, counted, *args)
        finally:
            rec.count("store_retries", max(0, calls - 1))

    return _attempt


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


#: Marks a function as a perfbench wrapper.
_MARK = "__perfbench_wrapper__"

#: ``(owner, attribute, original binding)`` of one installed wrapper.
Patch = Tuple[Any, str, Any]


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Patch:
    if isinstance(owner, type):
        original = owner.__dict__[attr]  # a KeyError means an inherited binding
    else:
        original = getattr(owner, attr)
    fn = original.__func__ if isinstance(original, classmethod) else original
    wrapper = make(fn)
    setattr(wrapper, _MARK, True)
    setattr(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)
    return owner, attr, original


def _targets() -> List[Tuple[Any, str]]:
    return [_resolve(t.module, t.path) for t in SPANS] + [_resolve(*_RETRY_OWNER)]


def install(rec: Recorder) -> List[Patch]:
    """Wrap every target in :data:`SPANS` (plus the retry counter)."""
    if installed():
        raise RuntimeError("perfbench wrappers are already installed")
    patches = [
        _patch(*_resolve(t.module, t.path), lambda fn, t=t: _wrap(rec, t, fn))
        for t in SPANS
    ]
    patches.append(_patch(*_resolve(*_RETRY_OWNER), lambda fn: _wrap_attempt(rec, fn)))
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore every original binding."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def installed() -> int:
    """How many targets are currently wrapped in this process."""
    count = 0
    for owner, attr in _targets():
        binding = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(binding, classmethod):
            binding = binding.__func__
        count += bool(getattr(binding, _MARK, False))
    return count


def chrome_events(
    kept: Sequence[tuple], pid: int, origin: float, process_name: str
) -> List[dict]:
    """Kept spans as Chrome ``trace_event`` complete events."""
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": process_name}}
    ]
    for name, start, end, sid, parent, request in kept:
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": name.split(".", 1)[0],
                "pid": pid,
                "tid": 0,
                "ts": max(0.0, (start - origin) * 1e6),
                "dur": max(0.0, (end - start) * 1e6),
                "args": {"id": sid, "parent": parent, "request": request},
            }
        )
    return events


@contextmanager
def measuring(rec: Optional[Recorder]) -> Iterator[None]:
    """Wrap the targets for the measured phase of a traced run.

    With ``rec=None`` (an untraced run) this installs nothing.
    """
    if rec is None:
        yield
        return
    patches = install(rec)
    rec.origin = perf_counter()
    try:
        yield
    finally:
        rec.wall = perf_counter() - rec.origin
        uninstall(patches)


# -- per-layer metrics ---------------------------------------------------------------


def per_layer(
    rec: Recorder, dumps: Sequence[dict], frames_sent: int, overhead: float
) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics of a traced run: ``name -> (value, unit, samples)``.

    ``dumps`` are the workers' span files, merged by name and tick.
    Shares divide self time by this process's traced wall time; a
    worker's spans run beside it, so shares across processes can sum
    past 1.
    """
    stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    counters: Dict[str, float] = defaultdict(float, rec.counters)
    busy: Dict[Tuple[str, Any], float] = {}
    for source in [rec.stats] + [d["stats"] for d in dumps]:
        for name, (calls, self_s) in source.items():
            stats[name][0] += calls
            stats[name][1] += self_s
    for dump in dumps:
        for name, value in dump["counters"].items():
            if name != "bytes":  # the frontend already counted both directions
                counters[name] += value
        for tick, seconds in dump["busy"]:
            busy[(dump["worker"], tick)] = seconds

    wall = rec.wall
    out: Dict[str, Tuple[float, str, int]] = {}
    for name in SPAN_NAMES:
        calls, self_s = stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count", int(calls))
        out[f"{name}.share"] = (self_s / wall, "ratio", int(calls))
        out[f"{name}.self_us"] = (self_s / calls * 1e6 if calls else 0.0, "us", int(calls))

    evaluations = counters["evaluations"]
    out["core.alert_ratio"] = (
        counters["alerts"] / evaluations if evaluations else 0.0, "ratio", int(evaluations)
    )
    out["fleet.frames_rejected"] = (counters["frames_rejected"], "count", 1)
    out["fleet.store_retries"] = (counters["store_retries"], "count", 1)

    # Transport wait: a worker's pipeline round trip minus the time that
    # worker spent dispatching the round's messages.
    pipelines = [(seconds, busy.get((name, request))) for request, name, seconds in rec.pipelines]
    waits = [seconds - worker for seconds, worker in pipelines if worker is not None]
    piped = sum(seconds for seconds, worker in pipelines if worker is not None)
    out["service.transport_wait_share"] = (sum(waits) / piped if piped else 0.0, "ratio", len(waits))
    out["service.transport_wait_ms"] = (
        statistics.median(waits) * 1e3 if waits else 0.0, "ms", len(waits)
    )
    out["service.bytes_per_frame"] = (
        rec.counters["bytes"] / frames_sent if frames_sent else 0.0, "B", frames_sent
    )
    out["driver.share"] = ((wall - rec.root_time()) / wall, "ratio", 1)
    out["trace.overhead_ratio"] = (overhead, "ratio", 1)
    return out
