"""Process-pool execution engine for the campaign layer.

The paper's evaluation is thousands of *independent* simulator runs
(1 925 scenario-A + 1 361 scenario-B campaign runs plus 600
threshold-training runs), each a deterministic function of its
configuration and seed.  This module provides the shared machinery that
fans those runs out across worker processes and persists their results
safely:

- :func:`resolve_jobs` — worker-count policy (``REPRO_JOBS`` environment
  variable, default ``os.cpu_count() - 1``, ``1`` = in-process);
- :func:`iter_tasks` / :func:`run_tasks` — deterministic-order map over a
  :class:`~concurrent.futures.ProcessPoolExecutor` that degrades to a
  plain in-process loop when one job is requested, so parallel results
  are bit-identical to serial ones by construction.  Each task gets a
  bounded retry budget with exponential backoff (``REPRO_TASK_RETRIES``,
  ``REPRO_TASK_BACKOFF_S``) and an optional per-task deadline
  (``REPRO_TASK_TIMEOUT_S``); a dead worker pool degrades the remaining
  tasks to serial in-process execution instead of aborting the campaign,
  and a task that exhausts its budget raises a typed
  :class:`~repro.errors.TaskExecutionError`;
- :func:`atomic_write_text` / :func:`atomic_write_json` — temp file +
  ``os.replace`` writes, so an interrupt can never leave a half-written
  cache file behind;
- versioned cache payloads (:func:`versioned_payload`,
  :func:`load_versioned_json`) keyed by a fingerprint of everything the
  cached data depends on *and* a digest of the payload body itself, so
  stale caches invalidate and silent bit corruption is detected instead
  of poisoning later artifacts.  :func:`quarantine_file` moves an invalid
  cache file aside so the caller can recompute its cell.

Fault injection hooks into exactly one seam: when the
``REPRO_CHAOS_PLAN`` environment variable (or an explicit ``injector=``
argument) is present, workers are wrapped by
:class:`repro.testing.faults.ChaosInjector`; otherwise the engine never
imports the chaos machinery and production paths pay a single
``os.environ`` lookup.

The module deliberately imports nothing from the simulator: worker
functions live next to the code they execute (``repro.attacks.campaign``,
``repro.sim.runner``) and only the generic engine lives here.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.envcfg import env_is_set, env_parsed
from repro.errors import CacheCorruptionError, TaskExecutionError
from repro.obs.runtime import get_runtime
from repro.obs.timing import monotonic_s

logger = logging.getLogger(__name__)

#: Version of the on-disk cache layout.  Bump when the shape of cached
#: payloads (outcome fields, shard layout, threshold payloads) changes;
#: every cache written under a different version is invalidated on read.
#: v3 added the ``body_sha256`` integrity digest.
SCHEMA_VERSION = 3

#: Default per-task retry budget (attempts = retries + 1).
DEFAULT_TASK_RETRIES = 1

#: Default base backoff between attempts; doubles per retry, capped.
DEFAULT_TASK_BACKOFF_S = 0.05
BACKOFF_CAP_S = 2.0

_T = TypeVar("_T")
_R = TypeVar("_R")


# ---------------------------------------------------------------------------
# Worker-count / retry policy
# ---------------------------------------------------------------------------


def default_jobs() -> int:
    """The default worker count: all cores but one, at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Number of worker processes to use.

    Explicit ``jobs`` wins; otherwise the ``REPRO_JOBS`` environment
    variable; otherwise :func:`default_jobs`.  ``1`` means in-process
    execution.
    """
    if jobs is None:
        jobs = env_parsed("REPRO_JOBS", int, kind="an integer")
    return default_jobs() if jobs is None else max(1, int(jobs))


def _env_number(var: str, parse: Callable[[str], _T]) -> Optional[_T]:
    return env_parsed(var, parse)


def resolve_retries(retries: Optional[int] = None) -> int:
    """Per-task retry budget: explicit, ``REPRO_TASK_RETRIES``, or 1."""
    if retries is None:
        retries = _env_number("REPRO_TASK_RETRIES", int)
    return DEFAULT_TASK_RETRIES if retries is None else max(0, int(retries))


def resolve_backoff_s(backoff_s: Optional[float] = None) -> float:
    """Base retry backoff: explicit, ``REPRO_TASK_BACKOFF_S``, or 50 ms."""
    if backoff_s is None:
        backoff_s = _env_number("REPRO_TASK_BACKOFF_S", float)
    return DEFAULT_TASK_BACKOFF_S if backoff_s is None else max(0.0, float(backoff_s))


def resolve_timeout_s(timeout_s: Optional[float] = None) -> Optional[float]:
    """Per-task deadline: explicit, ``REPRO_TASK_TIMEOUT_S``, or none."""
    if timeout_s is None:
        timeout_s = _env_number("REPRO_TASK_TIMEOUT_S", float)
    if timeout_s is None or timeout_s <= 0:
        return None
    return float(timeout_s)


def _injector_from_env():
    """The ambient chaos injector, or ``None`` on production paths.

    Deferred import: without ``REPRO_CHAOS_PLAN`` set the chaos subsystem
    is never imported and this is one dictionary lookup.
    """
    if not env_is_set("REPRO_CHAOS_PLAN"):
        return None
    from repro.testing.faults import ChaosInjector

    return ChaosInjector.from_env()


# ---------------------------------------------------------------------------
# Deterministic parallel map with bounded retries
# ---------------------------------------------------------------------------


def _backoff(backoff_s: float, attempt: int) -> None:
    if backoff_s > 0:
        time.sleep(min(BACKOFF_CAP_S, backoff_s * (2 ** (attempt - 1))))


class _TaskSpan:
    """Envelope returned by :class:`_SpanTask`: worker result + timing."""

    __slots__ = ("result", "start_s", "dur_s", "pid")

    def __init__(self, result: Any, start_s: float, dur_s: float, pid: int):
        self.result = result
        self.start_s = start_s
        self.dur_s = dur_s
        self.pid = pid


class _SpanTask:
    """Picklable wrapper that times one task on the worker's own clock.

    Installed outermost (around any chaos wrapper) only when telemetry is
    enabled; the parent unwraps the envelope before yielding, so results
    stay bit-identical to an uninstrumented run.  On Linux, worker
    processes share the parent's ``CLOCK_MONOTONIC`` epoch, so the start
    offsets line up with the parent tracer's origin and merged spans land
    in per-worker trace lanes keyed by pid.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: Callable[[Any], Any]):
        self.inner = inner

    def __call__(self, arg: Any) -> _TaskSpan:
        start = monotonic_s()
        result = self.inner(arg)
        return _TaskSpan(result, start, monotonic_s() - start, os.getpid())


def iter_tasks(
    worker: Callable[[_T], _R],
    tasks: Sequence[_T],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    label: str = "tasks",
    retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
    timeout_s: Optional[float] = None,
    injector=None,
) -> Iterator[_R]:
    """Yield ``worker(task)`` for every task, **in task order**.

    With ``jobs == 1`` (or a single task) this is a plain loop in the
    calling process; otherwise tasks execute on a process pool whose
    results are still consumed in submission order, so callers observe
    the same sequence either way and merged results are bit-identical.
    Results stream out as they become available, which lets callers
    checkpoint (e.g. write a cache shard) after every task.

    Failure policy (identical serial and parallel):

    - a task that raises is retried up to ``retries`` times with
      exponentially backed-off sleeps; exhausting the budget raises
      :class:`~repro.errors.TaskExecutionError` (results already yielded
      — and any shards the caller checkpointed — survive the interrupt);
    - with a ``timeout_s`` deadline, a hung task counts as one failed
      attempt and is resubmitted;
    - a dead worker pool (e.g. a SIGKILLed worker) flips the remaining
      tasks to serial in-process execution rather than aborting.

    ``injector`` (or the ``REPRO_CHAOS_PLAN`` environment variable)
    installs a :class:`~repro.testing.faults.ChaosInjector` around the
    worker for fault-injection testing.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    total = len(tasks)
    retries = resolve_retries(retries)
    backoff_s = resolve_backoff_s(backoff_s)
    timeout_s = resolve_timeout_s(timeout_s)
    if injector is None:
        injector = _injector_from_env()
    chaos = injector is not None and injector.wants_task_faults
    call = injector.wrap(worker) if chaos else worker
    # Telemetry (REPRO_OBS): time each task in the process that runs it
    # and merge the spans into the parent tracer as it consumes results.
    obs = get_runtime()
    if obs.enabled:
        call = _SpanTask(call)
        task_seconds = obs.registry.histogram(
            "repro_engine_task_seconds", "per-task wall time in the engine"
        )
        tasks_total = obs.registry.counter(
            "repro_engine_tasks_total", "tasks executed by the engine"
        )

    def emit(result: Any, index: int) -> _R:
        if not isinstance(result, _TaskSpan):
            return result
        obs.tracer.add_span(
            f"{label}[{index}]",
            start_s=result.start_s,
            dur_s=result.dur_s,
            cat="task",
            tid=result.pid,
        )
        task_seconds.observe(result.dur_s)
        tasks_total.inc()
        return result.result

    def submit_arg(index: int, attempt: int):
        return (index, attempt, tasks[index]) if chaos else tasks[index]

    def invoke(index: int, attempt: int) -> _R:
        return call(submit_arg(index, attempt))

    def serial_attempts(index: int, first_attempt: int = 0) -> _R:
        attempt = first_attempt
        while True:
            try:
                return invoke(index, attempt)
            except Exception as exc:  # noqa: BLE001 — typed re-raise below
                attempt += 1
                if attempt > retries:
                    raise TaskExecutionError(label, index, attempt, exc) from exc
                logger.warning(
                    "%s[%d] attempt %d failed (%s: %s); retrying",
                    label, index, attempt, type(exc).__name__, exc,
                )
                _backoff(backoff_s, attempt)

    if jobs == 1 or total <= 1:
        for i in range(total):
            yield emit(serial_attempts(i), i)
            if progress:
                progress(f"{label}: {i + 1}/{total} done (serial)")
        return

    pool = ProcessPoolExecutor(max_workers=min(jobs, total))
    broken = False
    try:
        futures = [
            pool.submit(call, submit_arg(i, 0)) for i in range(total)
        ]
        for i in range(total):
            future = futures[i]
            attempt = 0
            while True:
                if broken:
                    result = serial_attempts(i, first_attempt=attempt)
                    break
                try:
                    result = future.result(timeout=timeout_s)
                    break
                except FuturesTimeout as exc:
                    future.cancel()
                    err: BaseException = exc
                except BrokenProcessPool as exc:
                    broken = True
                    logger.warning(
                        "%s: worker pool died at task %d (%s); "
                        "degrading to serial execution", label, i, exc,
                    )
                    if progress:
                        progress(
                            f"{label}: worker pool died; continuing serially"
                        )
                    err = exc
                except Exception as exc:  # noqa: BLE001  # repro: allow[RPR008] typed re-raise below once retries exhaust
                    err = exc
                attempt += 1
                if attempt > retries:
                    raise TaskExecutionError(label, i, attempt, err) from err
                if not broken:
                    logger.warning(
                        "%s[%d] attempt %d failed (%s: %s); retrying",
                        label, i, attempt, type(err).__name__, err,
                    )
                    _backoff(backoff_s, attempt)
                    try:
                        future = pool.submit(call, submit_arg(i, attempt))
                    except Exception:  # pool shut down between checks  # repro: allow[RPR008] flips to serial fallback, not a swallow
                        broken = True
            yield emit(result, i)
            if progress:
                mode = "serial fallback" if broken else f"{jobs} jobs"
                progress(f"{label}: {i + 1}/{total} done ({mode})")
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def run_tasks(
    worker: Callable[[_T], _R],
    tasks: Sequence[_T],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    label: str = "tasks",
    **policy: Any,
) -> List[_R]:
    """Like :func:`iter_tasks` but collects the results into a list."""
    return list(
        iter_tasks(
            worker, tasks, jobs=jobs, progress=progress, label=label, **policy
        )
    )


def chunked(items: Sequence[_T], chunks: int) -> List[List[_T]]:
    """Split ``items`` into at most ``chunks`` contiguous, ordered groups."""
    items = list(items)
    if not items:
        return []
    chunks = max(1, min(chunks, len(items)))
    size, extra = divmod(len(items), chunks)
    out, start = [], 0
    for i in range(chunks):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


# ---------------------------------------------------------------------------
# Atomic cache writes
# ---------------------------------------------------------------------------


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A reader never observes a partially-written file: either the old
    content is intact or the new content is complete.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: Union[str, Path], payload: Any, indent: int = 1) -> None:
    """Serialize ``payload`` as JSON and write it atomically."""
    atomic_write_text(path, json.dumps(payload, indent=indent))


# ---------------------------------------------------------------------------
# Versioned, integrity-checked cache payloads
# ---------------------------------------------------------------------------

#: Envelope keys; everything else in a payload is its body.
_RESERVED_KEYS = ("schema", "config", "body_sha256")


def config_fingerprint(config: dict) -> str:
    """Stable short digest of everything a cached payload depends on."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _body_digest(body: dict) -> str:
    """Digest of a JSON-native payload body, key-order independent."""
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def versioned_payload(config: dict, body: dict) -> dict:
    """Wrap ``body`` with schema version, config fingerprint, and a body
    integrity digest (so bit corruption of the data is detected on read,
    not just torn envelopes)."""
    # Round-trip normalizes to JSON-native types (tuples become lists)
    # so the digest computed here matches one recomputed after reload.
    body = json.loads(json.dumps(body))
    return {
        "schema": SCHEMA_VERSION,
        "config": config_fingerprint(config),
        "body_sha256": _body_digest(body),
        **body,
    }


def payload_is_current(payload: Any, config: dict) -> bool:
    """Whether a loaded payload matches this schema, ``config``, and its
    own body digest."""
    if not (
        isinstance(payload, dict)
        and payload.get("schema") == SCHEMA_VERSION
        and payload.get("config") == config_fingerprint(config)
    ):
        return False
    body = {k: v for k, v in payload.items() if k not in _RESERVED_KEYS}
    return payload.get("body_sha256") == _body_digest(body)


def load_versioned_json(path: Union[str, Path], config: dict) -> Optional[dict]:
    """Load ``path`` if it exists, parses, and matches ``config``.

    Unreadable, corrupt (truncated or bit-flipped), unversioned (legacy),
    or mismatched payloads all log a warning and return ``None`` — the
    caller recomputes instead of trusting them, and resume never crashes
    on a damaged cache file.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        logger.warning(
            "cache file %s is unreadable or corrupt (%s: %s); "
            "it will be recomputed", path, type(exc).__name__, exc,
        )
        return None
    if not payload_is_current(payload, config):
        logger.warning(
            "cache file %s is stale or fails integrity/config validation; "
            "it will be recomputed", path,
        )
        return None
    return payload


def quarantine_file(path: Union[str, Path]) -> Optional[Path]:
    """Move an invalid cache file into a sibling ``quarantine/`` directory.

    Keeps the evidence for post-mortems while guaranteeing the engine
    never re-reads (or re-trusts) the damaged file.  Returns the new
    location, or ``None`` if the file had already vanished.  Raises
    :class:`~repro.errors.CacheCorruptionError` if the move itself fails.
    """
    path = Path(path)
    if not path.exists():
        return None
    target = path.parent / "quarantine" / path.name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
    except OSError as exc:
        raise CacheCorruptionError(
            f"could not quarantine invalid cache file {path}: {exc}"
        ) from exc
    logger.warning("quarantined invalid cache file %s -> %s", path, target)
    return target
