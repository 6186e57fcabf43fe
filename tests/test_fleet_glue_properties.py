"""Property tests: the fleet's per-frame glue equals the forms it replaced.

The fleet tick builds each frame's command packet without the wire
bytes, writes each decision's chain link with a fixed formatter, screens
measurements on Python floats, writes each checkpoint's text without
building its payload, and moves estimator state between scalar
estimators and pack lanes without a hex round trip.  Each test keeps the
replaced form as the specification and requires the same result, the
same bytes, or the same exception (type and message).  The rules are in
docs/architecture.md, "Fleet supervisor & session resilience".
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.state_machine import RobotState
from repro.core.detector import AnomalyDetector, DetectionResult, FusionRule
from repro.core.dynamic_model import RavenDynamicModel
from repro.core.estimator import BatchedNextStateEstimator, NextStateEstimator, hex_vector
from repro.core.pipeline import (
    AlertEvent,
    DetectorGuard,
    GuardHealth,
    GuardStats,
    GuardSupervisor,
    SupervisorConfig,
    _result_to_dict,
)
from repro.core.thresholds import SafetyThresholds
from repro.experiments.fleet import frame_for, session_id
from repro.fleet import FleetConfig, FleetSession, FleetSupervisor, SessionSpec, TelemetryFrame
from repro.fleet.session import _chain_digest, _chain_link
from repro.fleet.store import canonical_payload
from repro.hw.usb_packet import command_packet, decode_command_packet, encode_command_packet

pytestmark = pytest.mark.fleet

THRESHOLDS = SafetyThresholds(
    motor_velocity=np.array([50.0, 50.0, 50.0]),
    motor_acceleration=np.array([50000.0, 50000.0, 50000.0]),
    joint_velocity=np.array([5.0, 5.0, 5.0]),
)


def outcome(fn, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


any_floats = st.floats(allow_nan=True, allow_infinity=True)


# -- the command packet ----------------------------------------------------------------


def spec_command_packet(state, watchdog, dac_values):
    return decode_command_packet(encode_command_packet(state, watchdog, dac_values))


def packet_fields(packet):
    """Every field, with the DAC values' exact types (``True == 1``)."""
    return (
        packet.raw_state_byte,
        packet.state,
        type(packet.watchdog),
        packet.watchdog,
        [(type(v), v) for v in packet.dac_values],
        packet.checksum_ok,
    )


dac_value = st.one_of(
    st.integers(-(1 << 15) - 3, (1 << 15) + 2),
    st.integers(-(1 << 15), (1 << 15) - 1),
    st.integers(),
    st.floats(-40000.0, 40000.0),
    any_floats,
    st.booleans(),
)


class TestCommandPacket:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(list(RobotState)),
        st.one_of(st.booleans(), st.integers(0, 2)),
        st.lists(dac_value, max_size=9),
    )
    def test_equals_the_round_trip(self, state, watchdog, dacs):
        new = outcome(command_packet, state, watchdog, dacs)
        spec = outcome(spec_command_packet, state, watchdog, dacs)
        if spec[0] == "ok":
            assert new[0] == "ok"
            assert packet_fields(new[1]) == packet_fields(spec[1])
            assert new[1] == spec[1]
        else:
            assert new == spec

    @pytest.mark.parametrize(
        "dacs",
        [[1] * 9, [40000], [-32769, 0, 0], [0, 1.5, float("nan")], [float("inf")]],
    )
    def test_same_packet_errors(self, dacs):
        new = outcome(command_packet, RobotState.PEDAL_DOWN, True, dacs)
        assert new[0] != "ok"
        assert new == outcome(spec_command_packet, RobotState.PEDAL_DOWN, True, dacs)

    @settings(max_examples=100, deadline=None)
    @given(st.booleans(), st.tuples(*[st.integers(-40000, 40000)] * 3))
    def test_telemetry_frame_to_packet(self, pedal_down, dac):
        frame = TelemetryFrame(tick=0, dac=dac, pedal_down=pedal_down)
        state = RobotState.PEDAL_DOWN if pedal_down else RobotState.PEDAL_UP
        spec = outcome(spec_command_packet, state, True, list(dac))
        new = outcome(frame.to_packet)
        if spec[0] == "ok":
            assert packet_fields(new[1]) == packet_fields(spec[1])
        else:
            assert new == spec


# -- the chain link ----------------------------------------------------------------------


#: Values the formatter writes itself: exact ``bool``, ``int`` and ``str``.
plain_scalar = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(-(1 << 80), 1 << 80),
    st.text(),
    st.sampled_from([health.value for health in GuardHealth]),
)

#: Values that take the ``_chain_digest`` fallback (formatted or rejected).
other_value = st.one_of(
    any_floats,
    st.none(),
    st.builds(np.int64, st.integers(-(1 << 63), (1 << 63) - 1)),
    st.builds(np.bool_, st.booleans()),
    st.lists(st.integers(), max_size=2),
    st.sampled_from(list(GuardHealth)),
)

field_value = st.one_of(plain_scalar, plain_scalar, other_value)


def values_of(scalars, dac):
    """Decision values: ``tick``, ``dac``, then the other six fields."""
    tick, *rest = scalars
    return (tick, tuple(dac), *rest)


def spec_record(values):
    """The decision record as a dict, ``dac`` as a list (the old form)."""
    tick, dac, pedal_down, had_mpos, allowed, evaluated, alert, health = values
    return {
        "tick": tick,
        "dac": list(dac),
        "pedal_down": pedal_down,
        "had_mpos": had_mpos,
        "allowed": allowed,
        "evaluated": evaluated,
        "alert": alert,
        "health": health,
    }


class TestChainLink:
    @settings(max_examples=400, deadline=None)
    @given(
        st.text(max_size=70),
        st.lists(field_value, min_size=7, max_size=7),
        st.lists(field_value, max_size=4),
    )
    def test_equals_chain_digest(self, prev, scalars, dac):
        values = values_of(scalars, dac)
        assert outcome(_chain_link, prev, values) == outcome(
            _chain_digest, prev, spec_record(values)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(),
        st.lists(st.one_of(st.booleans(), st.integers()), min_size=3, max_size=3),
        st.lists(st.booleans(), min_size=5, max_size=5),
        st.sampled_from(list(GuardHealth)),
    )
    def test_decision_records(self, tick, dac, flags, health):
        """Bool DAC entries, negative and large ints, every health value."""
        values = values_of([tick, *flags, health.value], dac)
        assert _chain_link("0" * 64, values) == _chain_digest("0" * 64, spec_record(values))

    @pytest.mark.parametrize(
        "odd", [1.5, float("nan"), float("inf"), -float("inf"), 1e16, None, np.int64(1)]
    )
    def test_non_plain_values_fall_back(self, odd):
        for position in range(7):
            scalars = [1, True, True, True, True, False, "nominal"]
            scalars[position] = odd
            for dac in ([1, 2, 3], [odd, 2, 3]):
                values = values_of(scalars, dac)
                assert outcome(_chain_link, "a", values) == outcome(
                    _chain_digest, "a", spec_record(values)
                )

    def test_session_chain_matches_the_spec(self):
        session = FleetSession(SessionSpec("s", THRESHOLDS), FleetConfig())
        digest = session.digest
        for tick in range(20):
            frame = TelemetryFrame(
                tick=tick,
                dac=(tick - 10, True, 1 << 20),
                pedal_down=tick % 3 != 0,
                mpos=None if tick % 4 else (0.0, 0.0, 0.0),
            )
            session.record_decision(tick, frame, tick % 2 == 0, tick % 5 == 0, False)
            digest = _chain_digest(
                digest,
                {
                    "tick": tick,
                    "dac": list(frame.dac),
                    "pedal_down": frame.pedal_down,
                    "had_mpos": frame.mpos is not None,
                    "allowed": tick % 2 == 0,
                    "evaluated": tick % 5 == 0,
                    "alert": False,
                    "health": session.health,
                },
            )
            assert session.digest == digest
        assert session.recent_records(1) == [
            {
                "tick": 19,
                "dac": [9, True, 1 << 20],
                "pedal_down": True,
                "had_mpos": False,
                "allowed": False,
                "evaluated": False,
                "alert": False,
                "health": "nominal",
            }
        ]
        assert len(session.recent_records()) == 20


# -- the plausibility screen -----------------------------------------------------------


def spec_plausible(mpos, last, limit):
    if not np.isfinite(mpos).all():
        return False
    if last is None:
        return True
    jump = float(np.max(np.abs(mpos - last)))
    return jump <= limit


@pytest.fixture(scope="module")
def supervisor():
    guard = DetectorGuard(NextStateEstimator(), AnomalyDetector(THRESHOLDS))
    return GuardSupervisor(guard)


def near(limit):
    """Offsets at, just inside and just outside the jump limit."""
    edges = [limit, -limit, math.nextafter(limit, math.inf), math.nextafter(limit, 0.0)]
    return st.one_of(st.sampled_from(edges + [0.0, -0.0]), any_floats)


class TestPlausible:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(any_floats, min_size=3, max_size=3),
        st.one_of(st.none(), st.lists(any_floats, min_size=3, max_size=3)),
        st.sampled_from([0.5, 0.015, 0.0, 1e-300, math.inf]),
        st.data(),
    )
    def test_equals_the_numpy_form(self, supervisor, values, last, limit, data):
        if last is not None and data.draw(st.booleans()):
            # Measurements one offset away from the last, ties included.
            values = [prev + data.draw(near(limit)) for prev in last]
        mpos = np.array(values)
        last_mpos = None if last is None else np.array(last)
        supervisor.config = SupervisorConfig(implausible_jump_rad=limit)
        supervisor._last_mpos = last_mpos
        with np.errstate(all="ignore"):
            expected = spec_plausible(mpos, last_mpos, limit)
        assert supervisor._plausible(mpos) is expected

    @pytest.mark.parametrize(
        "mpos, last, expected",
        [
            ([0.5, -0.5, 0.0], [0.0, 0.0, -0.0], True),
            ([math.nextafter(0.5, 1.0), 0.0, 0.0], [0.0, 0.0, 0.0], False),
            ([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], True),
            ([math.nan, 0.0, 0.0], None, False),
            ([0.0, math.inf, 0.0], None, False),
            ([0.0, 0.0, 0.0], [math.nan, 0.0, 0.0], False),
            ([0.0, 0.0, 0.0], [0.0, -math.inf, 0.0], False),
            ([9.0, 9.0, 9.0], None, True),
        ],
    )
    def test_edges(self, supervisor, mpos, last, expected):
        supervisor.config = SupervisorConfig(implausible_jump_rad=0.5)
        supervisor._last_mpos = None if last is None else np.array(last)
        with np.errstate(all="ignore"):
            assert spec_plausible(np.array(mpos), supervisor._last_mpos, 0.5) is expected
        assert supervisor._plausible(np.array(mpos)) is expected


# -- checkpoint payloads -----------------------------------------------------------------


def spec_hex_vector(values):
    if values is None:
        return None
    return [float(v).hex() for v in np.asarray(values, dtype=float)]


def spec_stats_snapshot(stats: GuardStats) -> dict:
    """``GuardStats.snapshot`` with ``Enum.value`` per transition row."""
    return {
        "packets_seen": stats.packets_seen,
        "packets_evaluated": stats.packets_evaluated,
        "alerts": stats.alerts,
        "blocked": stats.blocked,
        "alerts_dropped": stats.alerts_dropped,
        "coasted_cycles": stats.coasted_cycles,
        "implausible_measurements": stats.implausible_measurements,
        "stale_escalations": stats.stale_escalations,
        "health": stats.health.value,
        "health_transitions": [
            [cycle, health.value] for cycle, health in stats.health_transitions
        ],
        "alert_events": [
            {
                "cycle": event.cycle,
                "state": event.state.name,
                "result": _result_to_dict(event.result),
                "blocked": event.blocked,
            }
            for event in stats.alert_events
        ],
        **(
            {"transitions_dropped": stats.transitions_dropped}
            if stats.transitions_dropped
            else {}
        ),
    }


health = st.sampled_from(list(GuardHealth))
alert_event = st.builds(
    AlertEvent,
    cycle=st.integers(0, 10**6),
    state=st.sampled_from(list(RobotState)),
    result=st.builds(
        DetectionResult,
        alert=st.booleans(),
        alarms=st.fixed_dictionaries({"motor_velocity": st.booleans()}),
        margins=st.fixed_dictionaries({"motor_velocity": any_floats}),
        raw_alert=st.one_of(st.none(), st.booleans()),
    ),
    blocked=st.booleans(),
)


class TestCheckpointPayload:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 10**9), min_size=8, max_size=8),
        health,
        st.lists(st.tuples(st.integers(0, 10**9), health), max_size=40),
        st.lists(alert_event, max_size=3),
        st.one_of(st.just(0), st.integers(1, 10**9)),
    )
    def test_stats_snapshot_bytes(self, counters, current, transitions, events, dropped):
        stats = GuardStats(*counters[:8], health=current, transitions_dropped=dropped)
        stats.health_transitions = transitions
        stats.alert_events = events
        assert canonical_payload(stats.snapshot()) == canonical_payload(
            spec_stats_snapshot(stats)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.none(),
            st.lists(any_floats, max_size=6),
            st.lists(any_floats, max_size=6).map(np.array),
            st.lists(st.floats(width=32), max_size=6).map(
                lambda v: np.array(v, dtype=np.float32)
            ),
            st.lists(st.integers(-(1 << 40), 1 << 40), max_size=6).map(np.array),
        )
    )
    def test_hex_vector(self, values):
        assert outcome(hex_vector, values) == outcome(spec_hex_vector, values)


json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()
)
json_tree = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=30,
)


class TestCanonicalPayload:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), json_tree, max_size=5))
    def test_equals_checked_json_dumps(self, payload):
        spec = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert canonical_payload(payload) == spec

    def test_payload_containing_itself_raises(self):
        payload: dict = {"a": []}
        payload["a"].append(payload)
        with pytest.raises(RecursionError):
            canonical_payload(payload)


# -- checkpoint text -----------------------------------------------------------------------

#: Strings that need escaping in JSON (quotes, backslashes, controls,
#: non-ASCII) beside arbitrary text.
awkward_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['rig "7"', "back\\slash", "ünïcødé ✓", "tab\tnew\nline", "\x00\x1f", "😀"]),
)
vec3 = st.lists(any_floats, min_size=3, max_size=3).map(np.array)
edge_vec3 = st.one_of(
    vec3,
    st.lists(st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 0.5]), min_size=3, max_size=3).map(
        np.array
    ),
)
counter = st.one_of(st.integers(0, 10**6), st.integers())
transition_log = st.one_of(st.sampled_from([0, 1, 64, 65, 100]), st.integers(0, 70)).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, 10**9), health), min_size=n, max_size=n)
)
window = st.one_of(
    st.none(), st.integers(1, 5).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n)))
)
session_state = st.fixed_dictionaries(
    {
        "session_id": awkward_text,
        "window": window,
        "window_bits": st.lists(st.booleans(), max_size=6),
        "fleet": st.lists(counter, min_size=4, max_size=4),
        "digest": awkward_text,
        "estop": st.tuples(st.booleans(), st.one_of(st.none(), awkward_text)),
        "supervisor": st.tuples(counter, counter, st.one_of(st.none(), counter)),
        "last_mpos": st.one_of(st.none(), edge_vec3),
        "guard": st.tuples(counter, counter, counter, counter),
        "synced": st.booleans(),
        "has_prediction": st.booleans(),
        "rows": st.lists(edge_vec3, min_size=4, max_size=4),
        "coast_streak": counter,
        "stats": st.lists(counter, min_size=8, max_size=8),
        "health": health,
        "transitions": transition_log,
        "events": st.lists(alert_event, max_size=3),
        "dropped": st.one_of(st.just(0), counter),
    }
)


def state_session(state) -> FleetSession:
    """A fresh session holding exactly ``state``."""
    session = FleetSession(
        SessionSpec(state["session_id"], THRESHOLDS, decision_window=state["window"]),
        FleetConfig(),
    )
    session.decisions, session.frames_ingested, session.frames_processed, session.frames_rejected = (
        state["fleet"]
    )
    session.digest = state["digest"]
    session.board.plc.estop_latched, session.board.plc.estop_reason = state["estop"]
    supervisor = session.supervisor
    supervisor._cycle, supervisor._coast_streak, supervisor._last_packet_cycle = state["supervisor"]
    supervisor._last_mpos = state["last_mpos"]
    guard = supervisor.guard
    guard._cycle, guard._block_streak, guard.detector.alerts, guard.detector.evaluations = state[
        "guard"
    ]
    if guard.detector.debouncer is not None:
        for bit in state["window_bits"]:
            guard.detector.debouncer.update(bit)
    estimator = guard.estimator
    jpos, jvel, predicted_jpos, predicted_jvel = state["rows"]
    estimator._jpos = jpos if state["synced"] else None
    estimator._jvel = jvel
    if state["has_prediction"]:
        estimator._predicted_jpos, estimator._predicted_jvel = predicted_jpos, predicted_jvel
    estimator.coast_streak = state["coast_streak"]
    stats = guard.stats
    (
        stats.packets_seen,
        stats.packets_evaluated,
        stats.alerts,
        stats.blocked,
        stats.alerts_dropped,
        stats.coasted_cycles,
        stats.implausible_measurements,
        stats.stale_escalations,
    ) = state["stats"]
    stats.health = state["health"]
    stats.health_transitions = state["transitions"]
    stats.alert_events = state["events"]
    stats.transitions_dropped = state["dropped"]
    return session


def spec_text(session: FleetSession, tick) -> str:
    return canonical_payload(session.snapshot_payload(tick))


def assert_text_is_spec(session: FleetSession, tick) -> str:
    text = session.checkpoint_text(tick)
    assert text == spec_text(session, tick)
    # The row cache holds exactly the live log.
    assert set(session._transition_text) == set(session.supervisor.stats.health_transitions)
    return text


AGED_SPEC = SessionSpec(session_id(0), THRESHOLDS, decision_window=(2, 3))


@functools.lru_cache(maxsize=None)
def aged_checkpoint_text() -> str:
    """The checkpoint of a session whose transition log is past the cap."""
    fleet = FleetSupervisor(config=FleetConfig(checkpoint_every=10**6))
    fleet.register(AGED_SPEC)
    for tick in range(600):
        fleet.ingest(AGED_SPEC.session_id, frame_for(0, 0, tick))
        fleet.tick(tick)
    assert fleet.sessions[AGED_SPEC.session_id].supervisor.stats.transitions_dropped
    return fleet.checkpoint(AGED_SPEC.session_id, 7).encoded


class TestCheckpointText:
    """``checkpoint_text`` writes ``canonical_payload(snapshot_payload)``."""

    @settings(max_examples=300, deadline=None)
    @given(session_state, st.integers())
    def test_equals_the_canonical_payload(self, state, tick):
        assert_text_is_spec(state_session(state), tick)

    @settings(max_examples=50, deadline=None)
    @given(session_state, st.lists(st.integers(0, 40), min_size=2, max_size=8))
    def test_consecutive_checkpoints_while_the_log_shifts(self, state, bursts):
        """The cached rows stay right as entries arrive and fall off."""
        session = state_session(state)
        stats = session.supervisor.stats
        cycle = 0
        for tick, burst in enumerate(bursts):
            assert_text_is_spec(session, tick)
            for _ in range(burst):
                cycle += 1
                stats.record_health(cycle, list(GuardHealth)[cycle % len(GuardHealth)])
            stats.packets_seen += burst
        assert_text_is_spec(session, len(bursts))

    def test_a_real_session_at_every_checkpoint(self):
        """Alerts, blocks, a decision window, coasting and a log past the
        cap, checked against the spec at every cadence checkpoint."""
        fleet = FleetSupervisor(config=FleetConfig(checkpoint_every=16))
        tight = SafetyThresholds(
            motor_velocity=np.array([50.0, 50.0, 50.0]),
            motor_acceleration=np.array([2000.0, 2000.0, 2000.0]),
            joint_velocity=np.array([5.0, 5.0, 5.0]),
        )
        for i in range(3):
            fleet.register(
                SessionSpec(
                    session_id(i),
                    tight,
                    fusion=FusionRule.ANY,
                    decision_window=(1, 2) if i else None,
                )
            )
        checked = 0
        for tick in range(700):
            for i in range(3):
                frame = frame_for(0, i, tick)
                if tick % 97 in (5, 6):  # DAC spikes: alerts, blocks
                    frame = TelemetryFrame(tick, (32000, -32000, 32000), mpos=frame.mpos)
                fleet.ingest(session_id(i), frame)
            report = fleet.tick(tick)
            for sid in report.checkpointed:
                session = fleet.sessions[sid]
                assert fleet.store.load(sid).encoded == assert_text_is_spec(session, tick)
                checked += 1
        stats = fleet.sessions[session_id(1)].supervisor.stats
        assert stats.transitions_dropped and stats.alert_events and checked > 100

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=2, max_size=4))
    def test_after_restore_payload(self, bursts):
        """A restored session writes the text it was restored from, and
        renders every row afresh (``restore_payload`` drops the cache)."""
        text = aged_checkpoint_text()
        session = FleetSession(AGED_SPEC, FleetConfig())
        stats = session.supervisor.stats
        cycle = 10**6
        for burst in bursts:
            session.restore_payload(json.loads(text))
            assert session._transition_text == {}
            assert assert_text_is_spec(session, 7) == text
            stats = session.supervisor.stats
            for _ in range(burst):
                cycle += 1
                stats.record_health(cycle, list(GuardHealth)[cycle % len(GuardHealth)])
            assert_text_is_spec(session, 8)

    @pytest.mark.parametrize(
        "attribute, value",
        [("decisions", np.int64(3)), ("frames_rejected", 1.5), ("digest", b"ab")],
    )
    def test_values_outside_json_scalars_raise(self, attribute, value):
        """Types the formatter does not write raise ``TypeError``; of these,
        ``json.dumps`` itself rejects all but the float."""
        session = FleetSession(SessionSpec("s", THRESHOLDS), FleetConfig())
        setattr(session, attribute, value)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            session.checkpoint_text(0)


# -- lane writeback ------------------------------------------------------------------------

LANES = 3
row = st.lists(any_floats, min_size=3, max_size=3)
lane_fill = st.fixed_dictionaries(
    {
        "synced": st.booleans(),
        "has_prediction": st.booleans(),
        "jpos": row,
        "jvel": row,
        "predicted_jpos": row,
        "predicted_jvel": row,
        "coast_streak": st.integers(0, 10**6),
    }
)


def filled_batch(fills):
    """A batched estimator whose lanes hold exactly ``fills``."""
    batch = BatchedNextStateEstimator([RavenDynamicModel() for _ in fills])
    for lane, fill in enumerate(fills):
        batch._synced[lane] = fill["synced"]
        batch._has_prediction[lane] = fill["has_prediction"]
        batch._jpos[lane] = fill["jpos"]
        batch._jvel[lane] = fill["jvel"]
        batch._predicted_jpos[lane] = fill["predicted_jpos"]
        batch._predicted_jvel[lane] = fill["predicted_jvel"]
        batch.coast_streak[lane] = fill["coast_streak"]
    return batch


def stale_estimator():
    """A scalar estimator holding state the copy must overwrite."""
    estimator = NextStateEstimator()
    estimator.sync([0.1, 0.2, 0.3])
    estimator.estimate([100.0, 100.0, 100.0])
    estimator.coast_streak = 7
    return estimator


def spec_writeback(batch, lane):
    estimator = NextStateEstimator()
    estimator.restore(batch.lane_state(lane))
    return estimator


EDGE_ROWS = ([-0.0, math.inf, -math.inf], [math.nan, -0.0, 0.0])


class TestLaneWriteback:
    """``copy_lane_into`` equals the ``restore(lane_state(lane))`` it
    replaced, and hands the scalar estimator rows it owns."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(lane_fill, min_size=LANES, max_size=LANES))
    def test_equals_restore_of_lane_state(self, fills):
        batch = filled_batch(fills)
        for lane in range(LANES):
            estimator = stale_estimator()
            batch.copy_lane_into(lane, estimator)
            spec = spec_writeback(batch, lane)
            assert estimator.snapshot() == spec.snapshot()
            assert type(estimator.coast_streak) is int
            assert estimator.synced == spec.synced

    @pytest.mark.parametrize("synced", [False, True])
    @pytest.mark.parametrize("has_prediction", [False, True])
    def test_edges_and_no_aliasing(self, synced, has_prediction):
        jpos, jvel = EDGE_ROWS
        fill = {
            "synced": synced,
            "has_prediction": has_prediction,
            "jpos": jpos,
            "jvel": jvel,
            "predicted_jpos": jvel,
            "predicted_jvel": jpos,
            "coast_streak": 3,
        }
        batch = filled_batch([fill] * LANES)
        estimators = [stale_estimator() for _ in range(LANES)]
        for lane, estimator in enumerate(estimators):
            batch.copy_lane_into(lane, estimator)
            assert estimator.snapshot() == spec_writeback(batch, lane).snapshot()
        copied = [estimator.snapshot() for estimator in estimators]

        # In-place writes (reset) and fresh rows (sync, estimate, coast)
        # on the batch leave the scalar estimators as they were.
        batch.reset()
        batch.sync(np.zeros((LANES, 3)))
        batch.estimate(np.full((LANES, 3), 100.0))
        batch.coast()
        assert [estimator.snapshot() for estimator in estimators] == copied


def fill_estimator(fill) -> NextStateEstimator:
    """A scalar estimator holding exactly ``fill`` (rows as arrays)."""
    estimator = NextStateEstimator()
    estimator._jpos = np.array(fill["jpos"]) if fill["synced"] else None
    estimator._jvel = np.array(fill["jvel"])
    if fill["has_prediction"]:
        estimator._predicted_jpos = np.array(fill["predicted_jpos"])
        estimator._predicted_jvel = np.array(fill["predicted_jvel"])
    estimator.coast_streak = fill["coast_streak"]
    return estimator


def lane_bytes(batch, lane, canonical_nan=False):
    """Every field of one lane, rows as bytes (NaNs made canonical on
    request: the hex text spells every NaN ``nan``)."""
    rows = [batch._jpos, batch._jvel, batch._predicted_jpos, batch._predicted_jvel]
    if canonical_nan:
        rows = [np.where(np.isnan(r[lane]), math.nan, r[lane]) for r in rows]
    else:
        rows = [r[lane] for r in rows]
    return (
        bool(batch._synced[lane]),
        bool(batch._has_prediction[lane]),
        int(batch.coast_streak[lane]),
        [r.tobytes() for r in rows],
    )


class TestLaneLoad:
    """``load_lane_from`` equals the ``load_lane_state(lane,
    estimator.snapshot())`` it replaced, and shares no rows."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(lane_fill, min_size=LANES, max_size=LANES),
        st.lists(lane_fill, min_size=LANES, max_size=LANES),
    )
    def test_equals_load_of_the_snapshot(self, stale, fills):
        direct, spec = filled_batch(stale), filled_batch(stale)
        for lane, fill in enumerate(fills):
            estimator = fill_estimator(fill)
            direct.load_lane_from(lane, estimator)
            spec.load_lane_state(lane, estimator.snapshot())
        for lane in range(LANES):
            assert direct.lane_state(lane) == spec.lane_state(lane)
            assert lane_bytes(direct, lane, canonical_nan=True) == lane_bytes(
                spec, lane, canonical_nan=True
            )
            assert type(direct.lane_state(lane)["coast_streak"]) is int

    @pytest.mark.parametrize("synced", [False, True])
    @pytest.mark.parametrize("has_prediction", [False, True])
    def test_edges_and_no_aliasing(self, synced, has_prediction):
        jpos, jvel = EDGE_ROWS
        fill = {
            "synced": synced,
            "has_prediction": has_prediction,
            "jpos": jpos,
            "jvel": jvel,
            "predicted_jpos": jvel,
            "predicted_jvel": jpos,
            "coast_streak": 3,
        }
        stale = {**fill, "synced": not synced, "has_prediction": not has_prediction}
        direct, spec = filled_batch([stale] * LANES), filled_batch([stale] * LANES)
        estimators = [fill_estimator(fill) for _ in range(LANES)]
        for lane, estimator in enumerate(estimators):
            direct.load_lane_from(lane, estimator)
            spec.load_lane_state(lane, estimator.snapshot())
        # -0.0, +-inf and the canonical NaN: the very same bytes.
        loaded = [lane_bytes(direct, lane) for lane in range(LANES)]
        assert loaded == [lane_bytes(spec, lane) for lane in range(LANES)]

        # In-place writes on either side leave the other as it was.
        for estimator in estimators:
            rows = (estimator._jpos, estimator._jvel, estimator._predicted_jpos, estimator._predicted_jvel)
            for row in rows:
                if row is not None:
                    row[:] = 7.0
        assert [lane_bytes(direct, lane) for lane in range(LANES)] == loaded
        states = [estimator.snapshot() for estimator in estimators]
        direct.reset()
        assert [estimator.snapshot() for estimator in estimators] == states


class TestLaneEstimates:
    def test_last_estimates_survive_later_ticks(self):
        """A guard's ``last_estimate`` never aliases a buffer the pack
        reuses: the values it holds stay put while later ticks run."""
        fleet = FleetSupervisor(config=FleetConfig())
        for i in range(4):
            fleet.register(SessionSpec(session_id(i), THRESHOLDS))
        kept = []
        for tick in range(40):
            for i in range(4):
                fleet.ingest(session_id(i), frame_for(0, i, tick))
            fleet.tick(tick)
            for session in fleet.active:
                estimate = session.supervisor.last_estimate
                if estimate is not None:
                    kept.append((estimate, [a.tobytes() for a in fields_of(estimate)]))
        assert len(kept) > 100
        for estimate, frozen in kept:
            assert [a.tobytes() for a in fields_of(estimate)] == frozen


def fields_of(estimate):
    return (
        estimate.motor_velocity,
        estimate.motor_acceleration,
        estimate.joint_velocity,
        estimate.jpos_next,
        estimate.jvel_next,
    )
