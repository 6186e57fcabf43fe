"""One detection-service worker: a ``FleetSupervisor`` behind a socket.

A worker owns exactly one :class:`~repro.fleet.FleetSupervisor` and
exposes its roster/ingest/tick/checkpoint surface as request-response
operations over the length-prefixed protocol (:mod:`repro.service.protocol`).
Messages on a connection are processed **strictly in arrival order** —
the supervisor itself is single-threaded and tick-driven, so the service
adds no scheduling nondeterminism on top of it: the decision hash chains
a worker produces are the chains an in-process supervisor fed the same
frames would produce.

Fail-operational behaviour at the boundary:

- a malformed or oversized message gets an error response and the
  connection is closed; the worker (and every session on it) keeps
  running;
- an operation that raises is answered with an error response carrying
  the exception class name, and the fault is journalled in
  :attr:`ServiceWorker.faults` — never silently swallowed;
- SIGTERM triggers **checkpoint-on-drain** shutdown: every live session
  is flushed to the shared session store (:meth:`FleetSupervisor.drain`)
  before the process exits, so a clean stop loses nothing.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError
from repro.fleet.config import FleetConfig
from repro.fleet.store import SessionStore
from repro.fleet.supervisor import FleetSupervisor, TickReport
from repro.obs.runtime import get_runtime
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    error_response,
    frame_from_wire,
    ok_response,
    read_message,
    spec_from_wire,
    write_message,
)


def _report_to_wire(report: TickReport) -> Dict[str, Any]:
    return {
        "tick": report.tick,
        "frames_processed": report.frames_processed,
        "quarantined": [list(item) for item in report.quarantined],
        "killed": [list(item) for item in report.killed],
        "checkpointed": list(report.checkpointed),
    }


class ServiceWorker:
    """Hosts one fleet supervisor behind an asyncio stream server."""

    def __init__(
        self,
        name: str,
        store: SessionStore,
        config: Optional[ServiceConfig] = None,
        fleet_config: Optional[FleetConfig] = None,
    ) -> None:
        self.name = name
        self.config = config or ServiceConfig.from_env()
        self.fleet = FleetSupervisor(store=store, config=fleet_config)
        #: Fault journal: every exception an operation raised, every
        #: connection that died mid-conversation.  Nothing is swallowed
        #: silently (RPR008 quarantine discipline).
        self.faults: List[str] = []
        #: Per-tenant decision counts (feeds ``/tenants`` and, when obs
        #: is enabled, the ``repro_svc_decisions_total_*`` counters).
        self.tenant_decisions: Dict[str, int] = {}
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._obs = get_runtime()
        self._tenant_counters: Dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "worker not started"
        return int(self._server.sockets[0].getsockname()[1])

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → checkpoint-on-drain shutdown."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_stop)

    def request_stop(self) -> None:
        self._stop.set()

    async def serve_until_stopped(self) -> List[str]:
        """Serve until :meth:`request_stop`; drain, close, and report.

        Returns the session ids whose state was checkpointed by the
        shutdown drain.
        """
        await self._stop.wait()
        self.draining = True
        drained = self.fleet.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Connection handlers notice the stop event and return on their
        # own; awaiting them (instead of cancelling) keeps shutdown quiet.
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._obs.log_event(
            "svc_worker_drained", worker=self.name, sessions=drained
        )
        return drained

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one peer; strict FIFO request/response, no interleaving."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._stop.is_set():
                message = await self._next_message(reader, writer)
                if message is None:
                    break
                await write_message(writer, self.dispatch(message))
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            self.faults.append(
                f"connection dropped mid-conversation: {exc!r}"
            )
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError) as exc:
                self.faults.append(f"close failed: {exc!r}")

    async def _next_message(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Dict[str, Any]]:
        """One framed request, or ``None`` on EOF/stop/framing breach.

        The read races the stop event so a connection idling in a read
        never has to be cancelled — on SIGTERM the handler returns on its
        own, which keeps checkpoint-on-drain shutdown free of spurious
        ``CancelledError`` teardown.
        """
        read_task = asyncio.ensure_future(
            read_message(reader, max_bytes=self.config.max_frame_bytes)
        )
        stop_task = asyncio.ensure_future(self._stop.wait())
        try:
            await asyncio.wait(
                {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_task.cancel()
            if not read_task.done():
                read_task.cancel()
        try:
            if read_task.cancelled():
                return None
            return await read_task
        except asyncio.CancelledError:
            return None
        except ProtocolError as exc:
            # Framing is unrecoverable mid-stream: answer, then hang up.
            # The worker itself stays healthy.
            await write_message(
                writer, error_response(-1, str(exc), kind="ProtocolError")
            )
            return None

    # -- operation dispatch ------------------------------------------------------

    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request, returning its response payload."""
        raw_id = message.get("id")
        msg_id = raw_id if isinstance(raw_id, int) else -1
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return error_response(
                msg_id, f"unknown op {op!r}", kind="ProtocolError"
            )
        try:
            return ok_response(msg_id, **handler(message))
        except ProtocolError as exc:
            return error_response(msg_id, str(exc), kind="ProtocolError")
        except Exception as exc:  # noqa: BLE001 — journalled, never silent
            self.faults.append(f"{op}: {type(exc).__name__}: {exc}")
            return error_response(msg_id, str(exc), kind=type(exc).__name__)

    def _op_register(self, message: Dict[str, Any]) -> Dict[str, Any]:
        spec = spec_from_wire(message.get("spec"))
        session = self.fleet.register(spec)
        return {"session_id": session.session_id}

    def _op_resume(self, message: Dict[str, Any]) -> Dict[str, Any]:
        spec = spec_from_wire(message.get("spec"))
        session = self.fleet.resume(spec)
        return {
            "session_id": session.session_id,
            "frames_processed": session.frames_processed,
            "last_checkpoint_tick": session.last_checkpoint_tick,
        }

    def _op_ingest(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session_id = message.get("session_id")
        if not isinstance(session_id, str):
            raise ProtocolError("ingest requires a string session_id")
        frame = frame_from_wire(message.get("frame"))
        accepted = self.fleet.ingest(session_id, frame)
        return {"accepted": accepted}

    def _op_tick(self, message: Dict[str, Any]) -> Dict[str, Any]:
        tick = message.get("tick")
        if not isinstance(tick, int) or isinstance(tick, bool):
            raise ProtocolError("tick requires an integer tick number")
        before = {
            sid: session.decisions
            for sid, session in self.fleet.sessions.items()
        }
        report = self.fleet.tick(tick)
        decisions: Dict[str, List[Dict[str, Any]]] = {}
        for sid in sorted(self.fleet.sessions):
            session = self.fleet.sessions[sid]
            delta = session.decisions - before.get(sid, 0)
            if delta <= 0:
                continue
            decisions[sid] = session.recent_records(delta)
            self.tenant_decisions[sid] = (
                self.tenant_decisions.get(sid, 0) + delta
            )
            if self._obs.enabled:
                self._tenant_counter(sid).inc(delta)
        return {"report": _report_to_wire(report), "decisions": decisions}

    def _op_checkpoint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session_id = message.get("session_id")
        tick = message.get("tick")
        if not isinstance(session_id, str):
            raise ProtocolError("checkpoint requires a string session_id")
        if not isinstance(tick, int) or isinstance(tick, bool):
            raise ProtocolError("checkpoint requires an integer tick")
        snapshot = self.fleet.checkpoint(session_id, tick)
        return {"session_id": session_id, "version": snapshot.version}

    def _op_drain(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"checkpointed": self.fleet.drain()}

    def _op_fingerprints(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"fingerprints": self.fleet.fingerprints()}

    def _op_health(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"status": self.health_payload()}

    def _op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.request_stop()
        return {"stopping": True}

    # -- status surfaces (shared with the HTTP endpoints) ------------------------

    def health_payload(self) -> Dict[str, Any]:
        sessions = self.fleet.sessions
        quarantined = sorted(
            sid for sid, s in sessions.items() if s.quarantined
        )
        return {
            "status": "draining" if self.draining else "ok",
            "worker": self.name,
            "sessions": len(sessions),
            "quarantined": quarantined,
            "tick_count": self.fleet.tick_count,
            "decisions": sum(s.decisions for s in sessions.values()),
            "faults": len(self.faults),
        }

    def tenants_payload(self) -> Dict[str, Any]:
        """Per-tenant decision counters (works with obs disabled too)."""
        tenants = {}
        for sid in sorted(self.fleet.sessions):
            session = self.fleet.sessions[sid]
            tenants[sid] = {
                "decisions": session.decisions,
                "frames_processed": session.frames_processed,
                "frames_rejected": session.frames_rejected,
                "health": session.health,
                "quarantined": session.quarantined,
                "digest": session.digest,
            }
        return tenants

    def registry_text(self, prefix: str = "") -> str:
        """Prometheus exposition of the process registry (``/metrics``)."""
        return self._obs.registry.to_prometheus(prefix)

    def _tenant_counter(self, session_id: str) -> Any:
        counter = self._tenant_counters.get(session_id)
        if counter is None:
            slug = "".join(
                ch if (ch.isalnum() or ch == "_") else "_" for ch in session_id
            )
            counter = self._obs.registry.counter(
                f"repro_svc_decisions_total_{slug}",
                f"service decisions streamed for session {session_id}",
            )
            self._tenant_counters[session_id] = counter
        return counter
