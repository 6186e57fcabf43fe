"""Detection-as-a-service: wire protocol, workers, chaos at the boundary.

The contract under test, layer by layer:

- the length-prefixed canonical-JSON protocol round-trips frames and
  session specs exactly, and rejects malformed, oversized, or
  wrong-version messages before they reach a supervisor;
- a worker answers a poisoned connection with an error response and
  hangs up — the sessions it hosts keep running;
- bounded per-session queues push back over the wire (``accepted:
  false``), they never silently shed frames;
- SIGTERM drains: every live session is checkpointed to the shared
  store before the worker process exits, and a fresh supervisor resumes
  the drained state bit-identically;
- **the differential golden**: a campaign streamed through the
  frontend→worker-pool path — including a worker SIGKILL mid-stream and
  the resulting session re-homing — produces decision hash chains
  byte-identical to the pinned in-process fingerprints.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.experiments.fleet import frame_for, session_id
from repro.experiments.service import (
    run_inprocess_reference,
    run_service_campaign,
)
from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    InMemorySessionStore,
    SessionSpec,
    SqliteSessionStore,
    TelemetryFrame,
)
from repro.service import (
    PROTOCOL_VERSION,
    RemoteOpError,
    ServiceClient,
    ServiceConfig,
    ServiceWorker,
    WorkerProcess,
    shard_for,
)
from repro.service.http import render, start_http_server
from repro.service.protocol import (
    decode_body,
    encode_message,
    frame_from_wire,
    frame_to_wire,
    request,
    spec_from_wire,
    spec_to_wire,
)

pytestmark = pytest.mark.service

# The exact constants the pinned "fleet_campaign" golden was recorded
# with (tests/test_golden_traces.py): the service path must reproduce
# those bytes over the wire.
_SESSIONS = 3
_TICKS = 48
_SEED = 11
_KILL_TICK = 23


def _fleet_config() -> FleetConfig:
    return FleetConfig(checkpoint_every=8)


def _frame(tick: int = 0) -> TelemetryFrame:
    return TelemetryFrame(
        tick=tick, dac=(100, -3, 7), pedal_down=True, mpos=(0.1, -0.2, 0.3)
    )


def _spec(sid: str, thresholds) -> SessionSpec:
    return SessionSpec(session_id=sid, thresholds=thresholds)


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_message_round_trip_is_canonical(self):
        payload = {"v": PROTOCOL_VERSION, "id": 3, "op": "health", "b": [1, 2]}
        blob = encode_message(payload)
        (length,) = struct.unpack(">I", blob[:4])
        assert length == len(blob) - 4
        assert decode_body(blob[4:]) == payload
        # Canonical: key order in the input never changes the bytes.
        shuffled = {"op": "health", "b": [1, 2], "id": 3, "v": PROTOCOL_VERSION}
        assert encode_message(shuffled) == blob

    def test_frame_codec_round_trip(self):
        frame = _frame(7)
        assert frame_from_wire(frame_to_wire(frame)) == frame
        dark = TelemetryFrame(tick=9, dac=(0, 0, 0), pedal_down=False, mpos=None)
        assert frame_from_wire(frame_to_wire(dark)) == dark

    def test_spec_codec_round_trip(self, loose_thresholds):
        spec = _spec("rig-007", loose_thresholds)
        decoded = spec_from_wire(spec_to_wire(spec))
        assert decoded.session_id == "rig-007"
        assert decoded.thresholds.to_dict() == spec.thresholds.to_dict()
        assert decoded.strategy is spec.strategy
        assert decoded.fusion is spec.fusion
        # The codec survives a JSON round trip (what actually hits the wire).
        rewired = json.loads(json.dumps(spec_to_wire(spec)))
        assert spec_from_wire(rewired).thresholds.to_dict() == spec.thresholds.to_dict()

    def test_oversized_body_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds cap"):
            decode_body(b"x" * 65, max_bytes=64)

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_body(b"\xff\xfe{{{")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_body(b"[1,2,3]")

    def test_deeply_nested_body_rejected(self):
        # Far under the size cap, far past the JSON parser's depth.
        with pytest.raises(ProtocolError, match="nests too deeply"):
            decode_body(b"[" * 1000)
        with pytest.raises(ProtocolError, match="nests too deeply"):
            decode_body(b'{"a":' * 5000)

    def test_version_mismatch_rejected(self):
        body = json.dumps({"v": 99, "id": 0, "op": "health"}).encode()
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            decode_body(body)

    def test_bool_is_not_an_int_field(self):
        wire = frame_to_wire(_frame())
        wire["tick"] = True
        with pytest.raises(ProtocolError, match="must not be a bool"):
            frame_from_wire(wire)

    def test_missing_field_rejected(self):
        wire = frame_to_wire(_frame())
        del wire["dac"]
        with pytest.raises(ProtocolError, match="missing required field"):
            frame_from_wire(wire)

    def test_unknown_op_rejected_client_side(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            request("format_disk", 0)


class TestSharding:
    def test_placement_is_deterministic(self):
        workers = ["w0", "w1", "w2"]
        for sid in (session_id(i) for i in range(20)):
            assert shard_for(sid, workers) == shard_for(sid, list(reversed(workers)))

    def test_worker_loss_moves_only_its_sessions(self):
        workers = ["w0", "w1", "w2", "w3"]
        sids = [session_id(i) for i in range(64)]
        before = {sid: shard_for(sid, workers) for sid in sids}
        survivors = [w for w in workers if w != "w1"]
        after = {sid: shard_for(sid, survivors) for sid in sids}
        for sid in sids:
            if before[sid] != "w1":
                # Minimal disruption: everyone else stays put.
                assert after[sid] == before[sid]
            else:
                assert after[sid] in survivors

    def test_empty_pool_raises(self):
        with pytest.raises(ServiceError, match="no workers"):
            shard_for("rig-000", [])


# ---------------------------------------------------------------------------
# In-process worker (asyncio loopback, no child processes)
# ---------------------------------------------------------------------------


def _service_config(**kwargs) -> ServiceConfig:
    defaults = dict(host="127.0.0.1", port=0)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


async def _with_worker(body, fleet_config=None, service_config=None):
    """Run ``body(worker)`` against a started in-process worker."""
    worker = ServiceWorker(
        "test-w",
        InMemorySessionStore(),
        config=service_config or _service_config(),
        fleet_config=fleet_config,
    )
    await worker.start()
    serve = asyncio.ensure_future(worker.serve_until_stopped())
    try:
        return await body(worker)
    finally:
        worker.request_stop()
        await serve


class TestWorkerLoopback:
    def test_register_ingest_tick_decisions(self, loose_thresholds):
        async def body(worker):
            client = await ServiceClient("127.0.0.1", worker.port).connect()
            try:
                sid = await client.register(_spec("rig-000", loose_thresholds))
                assert sid == "rig-000"
                assert await client.ingest(sid, frame_for(_SEED, 0, 0))
                ticked = await client.tick(0)
                assert ticked["report"]["frames_processed"] == 1
                assert len(ticked["decisions"][sid]) == 1
                record = ticked["decisions"][sid][0]
                assert record["tick"] == 0 and "alert" in record
                health = await client.health()
                assert health["status"] == "ok"
                assert health["sessions"] == 1 and health["decisions"] == 1
                return worker.tenant_decisions
            finally:
                await client.close()

        tenants = asyncio.run(_with_worker(body))
        assert tenants == {"rig-000": 1}

    def test_backpressure_surfaces_over_the_wire(self, loose_thresholds):
        async def body(worker):
            client = await ServiceClient("127.0.0.1", worker.port).connect()
            try:
                sid = await client.register(_spec("rig-000", loose_thresholds))
                verdicts = [
                    await client.ingest(sid, frame_for(_SEED, 0, t))
                    for t in range(3)
                ]
                # queue_depth=2: the third frame is rejected, not shed.
                assert verdicts == [True, True, False]
                await client.tick(0)
                assert await client.ingest(sid, frame_for(_SEED, 0, 3))
                return (await client.fingerprints())[sid]["frames_rejected"]
            finally:
                await client.close()

        rejected = asyncio.run(
            _with_worker(body, fleet_config=FleetConfig(queue_depth=2))
        )
        assert rejected == 1

    def test_remote_errors_carry_the_exception_kind(self, loose_thresholds):
        async def body(worker):
            client = await ServiceClient("127.0.0.1", worker.port).connect()
            try:
                with pytest.raises(RemoteOpError) as err:
                    await client.ingest("ghost", _frame())
                assert err.value.kind == "FleetError"
                with pytest.raises(RemoteOpError) as err:
                    await client.resume(_spec("never-stored", loose_thresholds))
                assert err.value.kind == "FleetError"
                # The faults journal saw both; the connection still works.
                assert (await client.health())["faults"] == 2
                return list(worker.faults)
            finally:
                await client.close()

        faults = asyncio.run(_with_worker(body))
        assert len(faults) == 2 and all("FleetError" in f for f in faults)

    def test_malformed_bytes_get_error_then_hangup(self, loose_thresholds):
        async def body(worker):
            client = await ServiceClient("127.0.0.1", worker.port).connect()
            sid = await client.register(_spec("rig-000", loose_thresholds))
            await client.ingest(sid, frame_for(_SEED, 0, 0))
            await client.close()

            # A hostile peer: valid prefix, garbage body.
            reader, writer = await asyncio.open_connection("127.0.0.1", worker.port)
            garbage = b"\xffnot json at all"
            writer.write(struct.pack(">I", len(garbage)) + garbage)
            await writer.drain()
            from repro.service.protocol import read_message

            answer = await read_message(reader)
            assert answer["ok"] is False and answer["kind"] == "ProtocolError"
            assert await reader.read() == b""  # worker hung up on the peer
            writer.close()
            await writer.wait_closed()

            # The worker (and its session) survived the poisoned peer.
            fresh = await ServiceClient("127.0.0.1", worker.port).connect()
            try:
                ticked = await fresh.tick(0)
                assert ticked["report"]["frames_processed"] == 1
                assert (await fresh.health())["status"] == "ok"
            finally:
                await fresh.close()

        asyncio.run(_with_worker(body))

    def test_deeply_nested_body_gets_error_then_hangup(self, loose_thresholds):
        async def body(worker):
            client = await ServiceClient("127.0.0.1", worker.port).connect()
            sid = await client.register(_spec("rig-000", loose_thresholds))
            await client.ingest(sid, frame_for(_SEED, 0, 0))

            # A hostile peer: a small body nested past the parser's depth.
            reader, writer = await asyncio.open_connection("127.0.0.1", worker.port)
            nested = b"[" * 1000
            writer.write(struct.pack(">I", len(nested)) + nested)
            await writer.drain()
            from repro.service.protocol import read_message

            answer = await read_message(reader)
            assert answer["ok"] is False and answer["kind"] == "ProtocolError"
            assert "nests too deeply" in answer["error"]
            assert await reader.read() == b""  # worker hung up on the peer
            writer.close()
            await writer.wait_closed()

            # The other connection, and the worker, kept serving.
            try:
                ticked = await client.tick(0)
                assert ticked["report"]["frames_processed"] == 1
                assert (await client.health())["status"] == "ok"
            finally:
                await client.close()
            return list(worker.faults)

        # A framing breach is answered, not journalled as a worker fault.
        assert asyncio.run(_with_worker(body)) == []

    def test_oversized_announcement_never_allocates(self):
        async def body(worker):
            reader, writer = await asyncio.open_connection("127.0.0.1", worker.port)
            # Announce 1 GiB; the cap trips on the prefix alone.
            writer.write(struct.pack(">I", 1 << 30))
            await writer.drain()
            from repro.service.protocol import read_message

            answer = await read_message(reader)
            assert answer["ok"] is False and answer["kind"] == "ProtocolError"
            assert "exceeds cap" in answer["error"]
            writer.close()
            await writer.wait_closed()

        asyncio.run(
            _with_worker(
                body, service_config=_service_config(max_frame_bytes=4096)
            )
        )

    def test_http_surface(self, loose_thresholds):
        async def body(worker):
            server = await start_http_server(worker, "127.0.0.1", 0)
            port = int(server.sockets[0].getsockname()[1])
            client = await ServiceClient("127.0.0.1", worker.port).connect()
            try:
                sid = await client.register(_spec("rig-000", loose_thresholds))
                await client.ingest(sid, frame_for(_SEED, 0, 0))
                await client.tick(0)

                async def get(path):
                    r, w = await asyncio.open_connection("127.0.0.1", port)
                    w.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                    await w.drain()
                    raw = await r.read()
                    w.close()
                    await w.wait_closed()
                    head, _, body = raw.partition(b"\r\n\r\n")
                    return head.split(b" ", 2)[1], body

                status, body_ = await get("/healthz")
                assert status == b"200"
                assert json.loads(body_)["sessions"] == 1
                status, body_ = await get("/tenants")
                assert json.loads(body_)["rig-000"]["decisions"] == 1
                status, body_ = await get("/metrics?prefix=repro_svc_")
                assert status == b"200"  # empty body: REPRO_OBS is off
                status, _ = await get("/nowhere")
                assert status == b"404"
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(_with_worker(body))

    def test_http_render_rejects_non_get(self):
        worker = ServiceWorker(
            "r", InMemorySessionStore(), config=_service_config()
        )
        assert b"405" in render(worker, "POST", "/healthz").split(b"\r\n")[0]

    def test_stop_drains_every_session(self, loose_thresholds):
        store = InMemorySessionStore()

        async def scenario():
            worker = ServiceWorker(
                "drainer",
                store,
                config=_service_config(),
                fleet_config=FleetConfig(checkpoint_every=1000),
            )
            await worker.start()
            serve = asyncio.ensure_future(worker.serve_until_stopped())
            client = await ServiceClient("127.0.0.1", worker.port).connect()
            for i in range(2):
                await client.register(_spec(session_id(i), loose_thresholds))
            for t in range(5):
                for i in range(2):
                    await client.ingest(session_id(i), frame_for(_SEED, i, t))
                await client.tick(t)
            digests = {
                sid: fp["digest"]
                for sid, fp in (await client.fingerprints()).items()
            }
            await client.shutdown()
            drained = await serve
            await client.close()
            return digests, drained

        digests, drained = asyncio.run(scenario())
        assert drained == [session_id(0), session_id(1)]
        # The drained checkpoints resume bit-identically in a new process.
        resumed = FleetSupervisor(store=store, config=FleetConfig())
        for i in range(2):
            session = resumed.resume(_spec(session_id(i), loose_thresholds))
            assert session.digest == digests[session_id(i)]
            assert session.frames_processed == 5


# ---------------------------------------------------------------------------
# Chaos + differential goldens (spawned worker pool, shared sqlite store)
# ---------------------------------------------------------------------------


@pytest.mark.golden
class TestServiceGoldens:
    """Over-the-wire decisions must equal the pinned in-process bytes."""

    def test_service_campaign_matches_fleet_golden(self, golden, tmp_path):
        result = run_service_campaign(
            str(tmp_path / "svc.sqlite"),
            num_sessions=_SESSIONS,
            ticks=_TICKS,
            seed=_SEED,
            workers=2,
            fleet=_fleet_config(),
        )
        assert result.ticks_run == _TICKS
        assert not result.dead_workers and not result.lost
        # Both workers flushed their shards on shutdown.
        assert sorted(
            sid for ids in result.drained.values() for sid in ids
        ) == [session_id(i) for i in range(_SESSIONS)]
        golden.check("fleet_campaign", result.fingerprints)

    def test_worker_sigkill_rehomes_to_the_same_golden(self, golden, tmp_path):
        result = run_service_campaign(
            str(tmp_path / "svc.sqlite"),
            num_sessions=_SESSIONS,
            ticks=_TICKS,
            seed=_SEED,
            workers=2,
            fleet=_fleet_config(),
            kill_worker=(_KILL_TICK, "w1"),
        )
        assert result.dead_workers == ["w1"]
        assert result.rehomed and not result.lost
        # Replayed frames mean extra tick rounds — and every re-homed
        # session now lives on the survivor.
        assert result.ticks_run > _TICKS
        assert set(result.owners.values()) == {"w0"}
        golden.check("fleet_campaign", result.fingerprints)

    @pytest.mark.slow
    @pytest.mark.campaign
    def test_scenario_b_streams_differentially_identical(
        self, tmp_path, loose_thresholds
    ):
        """Recorded attack telemetry, streamed through the service with a
        mid-campaign worker kill, decides byte-identically to an
        in-process supervisor fed the same streams."""
        import numpy as np

        from repro.core.thresholds import SafetyThresholds
        from repro.experiments.fleet import frames_from_trace
        from repro.sim.runner import run_scenario_b

        # The replayed stream hands the *attacked* DAC to the model too,
        # so residuals are smaller than in-sim: tighten the envelope to
        # keep the detector firing (the point is alert-bearing chains).
        thresholds = SafetyThresholds(
            motor_velocity=np.asarray(loose_thresholds.motor_velocity) * 0.1,
            motor_acceleration=np.asarray(loose_thresholds.motor_acceleration) * 0.1,
            joint_velocity=np.asarray(loose_thresholds.joint_velocity) * 0.1,
        )
        streams = [
            frames_from_trace(
                run_scenario_b(
                    seed=_SEED + i,
                    error_dac=12000,
                    period_ms=300,
                    duration_s=1.2,
                    raven_safety_enabled=False,
                ).trace
            )
            for i in range(2)
        ]
        baseline = run_inprocess_reference(
            streams, thresholds=thresholds, fleet=_fleet_config()
        )
        # The attack must actually trip the detector, or the equality
        # below proves nothing interesting.
        assert any(fp["stats"]["alerts"] > 0 for fp in baseline.values())

        service = run_service_campaign(
            str(tmp_path / "svc.sqlite"),
            workers=2,
            fleet=_fleet_config(),
            thresholds=thresholds,
            streams=streams,
            kill_worker=(10, "w0"),
        )
        assert service.dead_workers == ["w0"]
        assert service.fingerprints == baseline


@pytest.mark.chaos
class TestServiceChaos:
    def test_terminate_mid_campaign_loses_nothing(self, tmp_path, loose_thresholds):
        """SIGTERM (not SIGKILL): checkpoint-on-drain flushes live state,
        so a resume picks up the exact digests the worker died with."""
        db = str(tmp_path / "svc.sqlite")
        proc = WorkerProcess(
            "solo", db, fleet_config=FleetConfig(checkpoint_every=1000)
        ).start()

        async def drive():
            client = await ServiceClient(*proc.address).connect()
            try:
                for i in range(2):
                    await client.register(_spec(session_id(i), loose_thresholds))
                for t in range(7):
                    for i in range(2):
                        await client.ingest(session_id(i), frame_for(_SEED, i, t))
                    await client.tick(t)
                return {
                    sid: fp["digest"]
                    for sid, fp in (await client.fingerprints()).items()
                }
            finally:
                await client.close()

        digests = asyncio.run(drive())
        proc.terminate()
        assert proc.wait(timeout=30.0) == 0

        resumed = FleetSupervisor(
            store=SqliteSessionStore(db), config=FleetConfig()
        )
        for i in range(2):
            session = resumed.resume(_spec(session_id(i), loose_thresholds))
            assert session.digest == digests[session_id(i)]
            assert session.frames_processed == 7
