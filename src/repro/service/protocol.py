"""Length-prefixed, versioned wire protocol for the detection service.

Every message is one canonical-JSON object (sorted keys, minimal
separators — the same encoding :func:`repro.fleet.store.canonical_payload`
uses for checkpoint checksums) encoded as UTF-8 and framed by a 4-byte
big-endian length prefix.  Canonical framing is load-bearing: the worker
feeds decoded frames into the exact :class:`~repro.fleet.session.TelemetryFrame`
the in-process supervisor consumes, so decision hash chains computed over
the wire are *byte-identical* to in-process runs — the differential
golden in ``tests/test_service.py`` holds the protocol to that.

Requests carry ``{"v": 1, "id": <seq>, "op": <name>, ...}``; responses
echo ``id`` and carry ``ok`` plus op-specific fields (or ``error`` when
``ok`` is false).  Anything malformed — bad prefix, oversized payload,
non-JSON bytes, nesting past the parser's depth, wrong version,
missing/mistyped fields — raises :class:`~repro.errors.ProtocolError`
and never reaches a supervisor.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.detector import FusionRule
from repro.core.mitigation import MitigationStrategy
from repro.core.pipeline import SupervisorConfig
from repro.core.thresholds import SafetyThresholds
from repro.errors import ProtocolError
from repro.fleet.session import SessionSpec, TelemetryFrame
from repro.fleet.store import canonical_payload
from repro.service.config import DEFAULT_MAX_FRAME_BYTES

#: Wire schema version.  A peer speaking a different version is rejected
#: before any state is touched.
PROTOCOL_VERSION = 1

_PREFIX = struct.Struct(">I")

#: Worker operations a frontend/client may request.
OPS = (
    "register",
    "resume",
    "ingest",
    "tick",
    "checkpoint",
    "drain",
    "fingerprints",
    "health",
    "shutdown",
)


# -- framing ---------------------------------------------------------------------


def encode_message(payload: Dict[str, Any]) -> bytes:
    """``payload`` as canonical JSON behind a 4-byte length prefix."""
    body = canonical_payload(payload).encode("utf-8")
    return _PREFIX.pack(len(body)) + body


def decode_body(body: bytes, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Parse one message body; :class:`ProtocolError` on anything off."""
    if len(body) > max_bytes:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds cap of {max_bytes}"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"message body is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # A thousand nested brackets exhaust the parser's recursion
        # limit, far under the size cap.
        raise ProtocolError("message body nests too deeply") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this end speaks {PROTOCOL_VERSION})"
        )
    return payload


async def read_message(
    reader: asyncio.StreamReader, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` on clean EOF before a prefix.

    The size cap is enforced on the *prefix*, before the body is read, so
    an oversized announcement never allocates its claimed length.  A
    truncated prefix or body (peer died mid-message) raises
    :class:`ProtocolError`.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-prefix") from exc
    (length,) = _PREFIX.unpack(prefix)
    if length > max_bytes:
        raise ProtocolError(
            f"announced message of {length} bytes exceeds cap of {max_bytes}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-message") from exc
    return decode_body(body, max_bytes=max_bytes)


async def write_message(
    writer: asyncio.StreamWriter, payload: Dict[str, Any]
) -> None:
    writer.write(encode_message(payload))
    await writer.drain()


# -- message shapes --------------------------------------------------------------


def request(op: str, msg_id: int, **fields: Any) -> Dict[str, Any]:
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}")
    payload: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": msg_id, "op": op}
    payload.update(fields)
    return payload


def ok_response(msg_id: int, **fields: Any) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": msg_id, "ok": True}
    payload.update(fields)
    return payload


def error_response(
    msg_id: int, error: str, kind: str = "ServiceError"
) -> Dict[str, Any]:
    """A failure response; ``kind`` names the exception class so the
    caller can distinguish e.g. a resume miss from a protocol breach."""
    return {
        "v": PROTOCOL_VERSION,
        "id": msg_id,
        "ok": False,
        "error": error,
        "kind": kind,
    }


# -- strict field accessors ------------------------------------------------------


def _field(
    obj: Dict[str, Any],
    name: str,
    kind: Union[type, Tuple[type, ...]],
) -> Any:
    """A required, correctly-typed field; :class:`ProtocolError` otherwise."""
    if name not in obj:
        raise ProtocolError(f"message is missing required field {name!r}")
    value = obj[name]
    # bool is an int subclass; a numeric field must not silently accept one.
    if kind is not bool and isinstance(value, bool):
        raise ProtocolError(f"field {name!r} must not be a bool")
    if not isinstance(value, kind):
        expected = (
            kind.__name__
            if isinstance(kind, type)
            else "/".join(k.__name__ for k in kind)
        )
        raise ProtocolError(
            f"field {name!r} must be {expected}, got {type(value).__name__}"
        )
    return value


def _triple(obj: Dict[str, Any], name: str, kind: type) -> Tuple[Any, ...]:
    raw = _field(obj, name, list)
    if len(raw) != 3:
        raise ProtocolError(f"field {name!r} must have 3 elements")
    out = []
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ProtocolError(f"field {name!r} elements must be numbers")
        out.append(kind(item))
    return tuple(out)


# -- TelemetryFrame codec --------------------------------------------------------


def frame_to_wire(frame: TelemetryFrame) -> Dict[str, Any]:
    return {
        "tick": frame.tick,
        "dac": [int(v) for v in frame.dac],
        "pedal_down": frame.pedal_down,
        "mpos": None if frame.mpos is None else [float(v) for v in frame.mpos],
    }


def frame_from_wire(obj: Any) -> TelemetryFrame:
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    tick = _field(obj, "tick", int)
    dac = _triple(obj, "dac", int)
    pedal_down = _field(obj, "pedal_down", bool)
    mpos_raw = obj.get("mpos")
    mpos = None if mpos_raw is None else _triple(obj, "mpos", float)
    return TelemetryFrame(tick=tick, dac=dac, pedal_down=pedal_down, mpos=mpos)


# -- SessionSpec codec -----------------------------------------------------------


def spec_to_wire(spec: SessionSpec) -> Dict[str, Any]:
    return {
        "session_id": spec.session_id,
        "thresholds": spec.thresholds.to_dict(),
        "strategy": spec.strategy.value,
        "fusion": spec.fusion.value,
        "decision_window": (
            None if spec.decision_window is None else list(spec.decision_window)
        ),
        "parameter_error": spec.parameter_error,
        "integrator": spec.integrator,
        "supervisor": (
            None if spec.supervisor is None else spec.supervisor.to_dict()
        ),
    }


def spec_from_wire(obj: Any) -> SessionSpec:
    if not isinstance(obj, dict):
        raise ProtocolError("spec must be a JSON object")
    session_id = _field(obj, "session_id", str)
    if not session_id:
        raise ProtocolError("session_id must be non-empty")
    thresholds_raw = _field(obj, "thresholds", dict)
    try:
        thresholds = SafetyThresholds.from_dict(thresholds_raw)
        strategy = MitigationStrategy(_field(obj, "strategy", str))
        fusion = FusionRule(_field(obj, "fusion", str))
    except Exception as exc:
        raise ProtocolError(f"malformed spec for {session_id!r}: {exc}") from exc
    window_raw = obj.get("decision_window")
    window: Optional[Tuple[int, int]] = None
    if window_raw is not None:
        if (
            not isinstance(window_raw, list)
            or len(window_raw) != 2
            or not all(
                isinstance(v, int) and not isinstance(v, bool)
                for v in window_raw
            )
        ):
            raise ProtocolError("decision_window must be a pair of integers")
        window = (window_raw[0], window_raw[1])
    parameter_error = _field(obj, "parameter_error", (int, float))
    supervisor_raw = obj.get("supervisor")
    supervisor = None
    if supervisor_raw is not None:
        if not isinstance(supervisor_raw, dict):
            raise ProtocolError("supervisor must be an object or null")
        try:
            supervisor = SupervisorConfig.from_dict(supervisor_raw)
        except Exception as exc:
            raise ProtocolError(
                f"malformed supervisor config for {session_id!r}: {exc}"
            ) from exc
    return SessionSpec(
        session_id=session_id,
        thresholds=thresholds,
        strategy=strategy,
        fusion=fusion,
        decision_window=window,
        parameter_error=float(parameter_error),
        integrator=_field(obj, "integrator", str),
        supervisor=supervisor,
    )
