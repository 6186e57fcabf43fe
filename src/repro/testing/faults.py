"""Deterministic fault injection for the execution and caching layers.

A :class:`FaultPlan` is a declarative, JSON-serializable list of
:class:`FaultSpec` entries.  Two families of faults exist:

**Task faults** (``raise`` / ``crash`` / ``hang``) fire inside engine
workers.  They are keyed on ``(task index, attempt)`` so they are
deterministic across processes without shared state: a spec with
``times=2`` fails attempts 0 and 1 of its task and lets attempt 2
succeed, which is exactly what a bounded-retry engine must survive.
``crash`` sends ``SIGKILL`` to the worker process (the parent observes a
broken pool); when the same task later executes in the parent — the
engine's serial-degradation path — the crash downgrades to an ordinary
:class:`ChaosFault` so the test process itself is never killed.

**Cache faults** (``truncate`` / ``bitflip`` / ``delete`` /
``stale_meta``) fire in the parent the moment a matching cache shard is
written, simulating torn writes, media corruption, lost files, and
stale-schema metadata.  Each spec fires at most ``times`` times, counted
in-process by the :class:`ChaosInjector`.

The injector reaches the engine either as an explicit ``injector=``
argument or via the ``REPRO_CHAOS_PLAN`` environment variable naming a
saved plan file — the hook the chaos suite uses to reach worker fan-out
buried under ``get_campaign``.  With neither present the engine never
imports this module.
"""

from __future__ import annotations

import fnmatch
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.envcfg import env_str
from repro.errors import ChaosFault

#: Environment variable naming a saved :class:`FaultPlan` JSON file.
PLAN_ENV_VAR = "REPRO_CHAOS_PLAN"

#: Fault kinds that fire inside engine workers, keyed by task index.
TASK_FAULT_KINDS = ("raise", "crash", "hang")

#: Fault kinds that corrupt cache files as they are written.
CACHE_FAULT_KINDS = ("truncate", "bitflip", "delete", "stale_meta")

#: Fault kinds targeting fleet sessions (see :mod:`repro.fleet`):
#: ``session_kill`` drops a session's in-memory runtime (it must resume
#: from its store checkpoint), ``store_corrupt`` corrupts the session's
#: latest stored snapshot, ``slow_consumer`` makes the session stop
#: draining its ingest queue for ``hang_s`` fleet ticks.
FLEET_FAULT_KINDS = ("session_kill", "store_corrupt", "slow_consumer")

#: ``times`` value meaning "fire on every attempt, forever".
ALWAYS = -1


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``index`` targets a task position for task faults; ``match`` is an
    ``fnmatch`` pattern against the written file's name for cache faults.
    ``times`` bounds how many attempts (task faults) or writes (cache
    faults) the spec affects; :data:`ALWAYS` never stops firing.

    For fleet faults ``match`` is an ``fnmatch`` pattern against the
    session id and ``index`` is the earliest fleet tick the spec may fire
    at (``None`` = any tick); ``times`` bounds firings per spec as usual.
    """

    kind: str
    index: Optional[int] = None
    match: Optional[str] = None
    times: int = 1
    hang_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in TASK_FAULT_KINDS:
            if self.index is None:
                raise ValueError(f"{self.kind!r} fault needs a task index")
        elif self.kind in CACHE_FAULT_KINDS:
            if self.match is None:
                raise ValueError(f"{self.kind!r} fault needs a file match pattern")
        elif self.kind in FLEET_FAULT_KINDS:
            if self.match is None:
                raise ValueError(
                    f"{self.kind!r} fault needs a session-id match pattern"
                )
        else:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{TASK_FAULT_KINDS + CACHE_FAULT_KINDS + FLEET_FAULT_KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "index": self.index,
            "match": self.match,
            "times": self.times,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            index=data.get("index"),
            match=data.get("match"),
            times=data.get("times", 1),
            hang_s=data.get("hang_s", 0.0),
        )


@dataclass
class FaultPlan:
    """A deterministic, serializable collection of faults."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def random_task_faults(
        cls,
        seed: int,
        n_tasks: int,
        rate: float = 0.2,
        kinds: Sequence[str] = ("raise",),
        times: int = 1,
    ) -> "FaultPlan":
        """A seeded plan faulting ~``rate`` of ``n_tasks`` task indices.

        Pure function of its arguments (a private :mod:`random` instance),
        so the same seed reproduces the same chaos everywhere.
        """
        import random

        rng = random.Random(seed)
        specs = [
            FaultSpec(kind=rng.choice(list(kinds)), index=i, times=times)
            for i in range(n_tasks)
            if rng.random() < rate
        ]
        return cls(specs=specs, seed=seed)

    # -- task faults -------------------------------------------------------------

    def task_fault(self, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault to fire for ``(index, attempt)``, if any."""
        for spec in self.specs:
            if spec.kind not in TASK_FAULT_KINDS or spec.index != index:
                continue
            if spec.times == ALWAYS or attempt < spec.times:
                return spec
        return None

    @property
    def has_task_faults(self) -> bool:
        return any(s.kind in TASK_FAULT_KINDS for s in self.specs)

    @property
    def has_fleet_faults(self) -> bool:
        return any(s.kind in FLEET_FAULT_KINDS for s in self.specs)

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            specs=[FaultSpec.from_dict(d) for d in data.get("specs", [])],
            seed=data.get("seed", 0),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan as JSON (for the ``REPRO_CHAOS_PLAN`` hook)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _in_worker_process() -> bool:
    """Whether this process is a pool worker (not the engine's parent)."""
    return multiprocessing.parent_process() is not None


@dataclass
class FaultyCall:
    """Picklable wrapper the engine installs around its worker function.

    The engine ships tasks as ``(index, attempt, task)`` triples when
    chaos is active; the wrapper consults the plan before delegating to
    the real worker.
    """

    worker: Callable[[Any], Any]
    plan: FaultPlan

    def __call__(self, packed: Tuple[int, int, Any]) -> Any:
        index, attempt, task = packed
        spec = self.plan.task_fault(index, attempt)
        if spec is not None:
            self.fire(spec, index, attempt)
        return self.worker(task)

    def fire(self, spec: FaultSpec, index: int, attempt: int) -> None:
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
            return  # hung past any deadline, then behaves normally
        if spec.kind == "crash" and _in_worker_process():
            os.kill(os.getpid(), signal.SIGKILL)
        # "raise", or a "crash" executing in the parent process (the
        # serial-degradation path), where SIGKILL would kill the caller.
        raise ChaosFault(
            f"injected {spec.kind!r} fault at task {index}, attempt {attempt}"
        )


class ChaosInjector:
    """Applies a :class:`FaultPlan` to the engine and the cache layer."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._cache_fired: Dict[int, int] = {}
        self._fleet_fired: Dict[int, int] = {}

    @classmethod
    def from_env(cls) -> Optional["ChaosInjector"]:
        """The injector named by ``REPRO_CHAOS_PLAN``, if any."""
        path = env_str(PLAN_ENV_VAR)
        if not path:
            return None
        return cls(FaultPlan.load(path))

    # -- engine hook -------------------------------------------------------------

    @property
    def wants_task_faults(self) -> bool:
        return self.plan.has_task_faults

    def wrap(self, worker: Callable[[Any], Any]) -> FaultyCall:
        """The chaos-aware worker the engine substitutes for ``worker``."""
        return FaultyCall(worker, self.plan)

    # -- cache hook --------------------------------------------------------------

    def on_file_written(self, path: Union[str, Path]) -> None:
        """Corrupt ``path`` if an unspent cache fault matches its name."""
        path = Path(path)
        for i, spec in enumerate(self.plan.specs):
            if spec.kind not in CACHE_FAULT_KINDS:
                continue
            if not fnmatch.fnmatch(path.name, spec.match):
                continue
            fired = self._cache_fired.get(i, 0)
            if spec.times != ALWAYS and fired >= spec.times:
                continue
            self._cache_fired[i] = fired + 1
            self._corrupt(path, spec)
            return

    # -- fleet hook --------------------------------------------------------------

    @property
    def wants_fleet_faults(self) -> bool:
        return self.plan.has_fleet_faults

    def fleet_fault(self, session_id: str, tick: int) -> Optional[FaultSpec]:
        """The unspent fleet fault matching ``session_id`` at ``tick``.

        Deterministic: specs are consulted in plan order, the first
        eligible one fires (its in-process counter advances), so the same
        plan against the same session schedule injects the same faults.
        """
        for i, spec in enumerate(self.plan.specs):
            if spec.kind not in FLEET_FAULT_KINDS:
                continue
            if not fnmatch.fnmatch(session_id, spec.match):
                continue
            if spec.index is not None and tick < spec.index:
                continue
            fired = self._fleet_fired.get(i, 0)
            if spec.times != ALWAYS and fired >= spec.times:
                continue
            self._fleet_fired[i] = fired + 1
            return spec
        return None

    @staticmethod
    def _corrupt(path: Path, spec: FaultSpec) -> None:
        if spec.kind == "delete":
            path.unlink()
            return
        data = path.read_bytes()
        if spec.kind == "truncate":
            path.write_bytes(data[: len(data) // 2])
        elif spec.kind == "bitflip":
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x20
            path.write_bytes(bytes(flipped))
        elif spec.kind == "stale_meta":
            payload = json.loads(data.decode())
            payload["schema"] = -1
            path.write_text(json.dumps(payload, indent=1))
