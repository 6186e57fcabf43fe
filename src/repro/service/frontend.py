"""Stateless service frontend: shards sessions across a worker pool.

The frontend owns no detector state — only session *specs* and the
current session→worker placement.  Placement uses **rendezvous
(highest-random-weight) hashing** over the live worker names, so losing
a worker moves exactly that worker's sessions and nobody else's.  All
durable session state lives in the shared
:class:`~repro.fleet.SqliteSessionStore` the workers write checkpoints
to, which is what makes the frontend restartable and sessions
re-homeable: when a worker dies mid-stream
(:class:`~repro.errors.WorkerUnavailableError` on its connection), the
frontend resumes each of its sessions on the rendezvous successor from
the newest verifiable checkpoint and tells the caller where each
session's telemetry cursor must rewind to — the same recovery protocol
:func:`repro.experiments.fleet.run_fleet_campaign` follows in-process.

Each tick, the frontend pushes every worker its sessions' frames *plus*
the tick advance as one pipelined batch (one round trip per worker per
tick), awaiting the workers concurrently.  Within a worker the batch is
processed strictly in order, so per-session decision chains stay exactly
the chains an in-process supervisor would produce.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Dict, List, Optional

from repro.errors import ServiceError, WorkerUnavailableError
from repro.fleet.session import SessionSpec, TelemetryFrame
from repro.obs.runtime import get_runtime
from repro.service.client import RemoteOpError, ServiceClient
from repro.service.protocol import frame_to_wire


def shard_for(session_id: str, workers: List[str]) -> str:
    """Rendezvous hash: the worker that owns ``session_id``.

    Every (worker, session) pair gets a pseudo-random weight from one
    SHA-256; the highest weight wins.  Removing a worker re-homes only
    its own sessions — every other pair's weight is untouched.
    """
    if not workers:
        raise ServiceError("no workers available to shard onto")
    return max(
        sorted(workers),
        key=lambda w: sha256(f"{w}|{session_id}".encode("utf-8")).digest(),
    )


@dataclass
class TickOutcome:
    """What one frontend tick round did, merged across the pool."""

    tick: int
    #: Per-session ingest verdicts (False = backpressure/quarantined).
    accepted: Dict[str, bool] = field(default_factory=dict)
    #: Per-session decision records produced this tick, in chain order.
    decisions: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: Per-worker tick reports (wire form).
    reports: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Sessions re-homed this round → checkpointed ``frames_processed``
    #: the caller must rewind each telemetry cursor to.
    rewinds: Dict[str, int] = field(default_factory=dict)
    #: Sessions whose owner died with no usable checkpoint, with reason.
    lost: Dict[str, str] = field(default_factory=dict)
    #: Workers that died this round.
    dead_workers: List[str] = field(default_factory=list)


class ServiceFrontend:
    """Routes specs, frames, and ticks to a pool of connected workers."""

    def __init__(self, clients: Dict[str, ServiceClient]) -> None:
        if not clients:
            raise ServiceError("frontend needs at least one worker")
        self.workers: Dict[str, ServiceClient] = dict(clients)
        self.specs: Dict[str, SessionSpec] = {}
        self.owners: Dict[str, str] = {}
        #: Sessions lost for good (owner died, no verifiable checkpoint).
        self.lost: Dict[str, str] = {}
        self._obs = get_runtime()

    # -- placement ---------------------------------------------------------------

    async def register(self, spec: SessionSpec) -> str:
        """Place and register one session; returns the owning worker."""
        if spec.session_id in self.specs:
            raise ServiceError(f"session {spec.session_id!r} already placed")
        owner = shard_for(spec.session_id, list(self.workers))
        await self.workers[owner].register(spec)
        self.specs[spec.session_id] = spec
        self.owners[spec.session_id] = owner
        return owner

    # -- the tick round ----------------------------------------------------------

    async def run_tick(
        self, tick: int, frames: Dict[str, TelemetryFrame]
    ) -> TickOutcome:
        """Push one tick: each worker gets its frames + the tick advance.

        Every live worker is ticked even when it has no frames this round
        (staleness watchdogs are tick-driven).  A worker whose connection
        fails is declared dead and its sessions are re-homed before this
        returns; the outcome's ``rewinds`` say where their telemetry
        cursors must rewind to, and their frames from *this* round are
        dropped (they are part of what the replay re-delivers).
        """
        outcome = TickOutcome(tick=tick)
        batches: Dict[str, List[Any]] = {name: [] for name in self.workers}
        frame_order: Dict[str, List[str]] = {name: [] for name in self.workers}
        for sid in sorted(frames):
            owner = self.owners.get(sid)
            if owner is None or owner not in batches:
                raise ServiceError(f"session {sid!r} has no live owner")
            batches[owner].append(
                ("ingest", {"session_id": sid, "frame": frame_to_wire(frames[sid])})
            )
            frame_order[owner].append(sid)
        for name in batches:
            batches[name].append(("tick", {"tick": tick}))

        names = sorted(batches)
        results = await asyncio.gather(
            *(self.workers[name].pipeline(batches[name]) for name in names),
            return_exceptions=True,
        )
        dead: List[str] = []
        for name, result in zip(names, results):
            if isinstance(result, WorkerUnavailableError):
                dead.append(name)
                continue
            if isinstance(result, BaseException):
                raise result
            *ingests, ticked = result
            for sid, response in zip(frame_order[name], ingests):
                outcome.accepted[sid] = bool(response["accepted"])
            outcome.reports[name] = ticked["report"]
            for sid, records in ticked["decisions"].items():
                outcome.decisions[sid] = records

        for name in dead:
            self._obs.log_event("svc_worker_dead", worker=name, tick=tick)
            rewinds = await self._rehome(name)
            outcome.rewinds.update(rewinds)
            outcome.dead_workers.append(name)
        outcome.lost.update(
            {sid: reason for sid, reason in self.lost.items()}
        )
        return outcome

    # -- recovery ----------------------------------------------------------------

    async def _rehome(self, dead: str) -> Dict[str, int]:
        """Move a dead worker's sessions to their rendezvous successors.

        Each moved session resumes from its newest verifiable checkpoint
        in the shared store; the returned map says which frame count each
        resumed session replays from.  A session with no usable
        checkpoint is recorded in :attr:`lost` — visible, not silent.
        """
        client = self.workers.pop(dead, None)
        if client is not None:
            await client.close()
        if not self.workers:
            raise ServiceError(
                f"worker {dead!r} died and no workers remain"
            )
        moved = sorted(
            sid for sid, owner in self.owners.items() if owner == dead
        )
        rewinds: Dict[str, int] = {}
        for sid in moved:
            successor = shard_for(sid, list(self.workers))
            try:
                info = await self.workers[successor].resume(self.specs[sid])
            except RemoteOpError as exc:
                del self.owners[sid]
                self.lost[sid] = f"not resumable after {dead!r} died: {exc}"
                self._obs.log_event(
                    "svc_session_lost", session=sid, worker=dead, error=str(exc)
                )
                continue
            self.owners[sid] = successor
            rewinds[sid] = int(info["frames_processed"])
            self._obs.log_event(
                "svc_session_rehomed",
                session=sid,
                src=dead,
                dst=successor,
                replay_from=rewinds[sid],
            )
        return rewinds

    # -- pool-wide surfaces ------------------------------------------------------

    async def fingerprints(self) -> Dict[str, Dict[str, Any]]:
        """Merged per-session fingerprints from every live worker."""
        merged: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self.workers):
            merged.update(await self.workers[name].fingerprints())
        return {sid: merged[sid] for sid in sorted(merged)}

    async def drain_all(self) -> Dict[str, List[str]]:
        """Flush every worker's sessions to the store (clean shutdown)."""
        return {
            name: await self.workers[name].drain()
            for name in sorted(self.workers)
        }

    async def close(self, shutdown_workers: bool = False) -> None:
        for name in sorted(self.workers):
            client = self.workers[name]
            if shutdown_workers and client.connected:
                try:
                    await client.shutdown()
                except (WorkerUnavailableError, RemoteOpError):
                    pass  # already gone: closing is the goal
            await client.close()


async def connect_frontend(
    addresses: Dict[str, "tuple[str, int]"],
    max_frame_bytes: Optional[int] = None,
) -> ServiceFrontend:
    """A frontend connected to ``{name: (host, port)}`` workers."""
    clients: Dict[str, ServiceClient] = {}
    for name in sorted(addresses):
        host, port = addresses[name]
        kwargs: Dict[str, Any] = {}
        if max_frame_bytes is not None:
            kwargs["max_frame_bytes"] = max_frame_bytes
        client = ServiceClient(host, port, name=name, **kwargs)
        clients[name] = await client.connect()
    return ServiceFrontend(clients)
