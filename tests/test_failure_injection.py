"""Failure-injection tests: accidental faults, not attacks.

The paper distinguishes malicious tampering from "accidental mechanical or
electrical malfunctions or unintentional human errors" — the FDA-reported
incidents its Section III.C cites.  These tests inject non-malicious
failures into the stack and check the system degrades the way the design
intends (graceful hold, PLC E-STOP, packet rejection), which is also the
backdrop the detectors must not false-alarm against.
"""

import numpy as np

from repro import constants
from repro.control.state_machine import RobotState
from repro.sim.rig import RigConfig, SurgicalRig
from repro.sim.runner import run_fault_free

DURATION = 1.1


class TestConsoleFailures:
    def test_console_silence_holds_pose(self):
        """Console dies mid-surgery: the robot holds its last desired
        pose instead of drifting or crashing."""
        config = RigConfig(seed=61, duration_s=DURATION)
        rig = SurgicalRig(config)

        original_tick = rig.console.tick
        death_time = 0.8

        def dying_tick(now, dt=constants.CONTROL_PERIOD_S):
            if now >= death_time:
                return None  # transmitter dead: no packets at all
            return original_tick(now, dt)

        rig.console.tick = dying_tick  # type: ignore[method-assign]
        trace = rig.run()
        assert not trace.estop_occurred()
        # Position nearly frozen over the silent tail.
        tail = trace.tip_array[-200:]
        assert np.linalg.norm(tail.max(axis=0) - tail.min(axis=0)) < 5e-4

    def test_garbage_datagrams_rejected(self):
        """A malfunctioning console spews noise: every datagram fails the
        checksum and teleoperation simply does not progress."""
        config = RigConfig(seed=62, duration_s=DURATION)
        rig = SurgicalRig(config)
        rng = np.random.default_rng(0)

        original_tick = rig.console.tick

        def noisy_tick(now, dt=constants.CONTROL_PERIOD_S):
            packet = original_tick(now, dt)
            # Replace the last datagram in flight with random bytes.
            rig.channel._in_flight[-1] = (
                rig.channel._in_flight[-1][0],
                rig.channel._in_flight[-1][1],
                bytes(rng.integers(0, 256, constants.ITP_PACKET_SIZE, dtype=np.uint8)),
            )
            return packet

        rig.console.tick = noisy_tick  # type: ignore[method-assign]
        trace = rig.run()
        assert rig.controller.bad_packets > 500
        assert not trace.estop_occurred()


class TestControlSoftwareFailures:
    def test_software_hang_trips_plc_watchdog(self):
        """The control process freezes: no more writes, watchdog goes
        silent, the PLC latches E-STOP and engages the brakes."""
        config = RigConfig(seed=63, duration_s=DURATION)
        rig = SurgicalRig(config)
        hang_at = int(0.8 / constants.CONTROL_PERIOD_S)

        original_tick = rig.controller.tick
        counter = {"k": 0}
        last_output = {}

        def hanging_tick(now):
            counter["k"] += 1
            if counter["k"] >= hang_at:
                return last_output["out"]  # process stuck: no new write
            last_output["out"] = original_tick(now)
            return last_output["out"]

        rig.controller.tick = hanging_tick  # type: ignore[method-assign]
        rig.run()
        assert rig.plc.estop_latched
        assert "watchdog" in rig.plc.estop_reason
        assert rig.plant.brakes_engaged

    def test_mechanical_disturbance_is_corrected(self):
        """A sudden external disturbance (bumped arm) is pulled back by
        the PID — the 'accidental failure' twin of a torque injection."""
        reference = run_fault_free(seed=64, duration_s=DURATION)
        config = RigConfig(seed=64, duration_s=DURATION)
        rig = SurgicalRig(config)
        kicked = {"done": False}

        original_tick = rig.motor_controller.tick

        def kicking_tick(dt=constants.CONTROL_PERIOD_S):
            snapshot = original_tick(dt)
            if not kicked["done"] and snapshot.time > 0.8:
                # Impulse: instantaneously add joint velocity.
                rig.plant._y[3] += 0.15
                kicked["done"] = True
            return snapshot

        rig.motor_controller.tick = kicking_tick  # type: ignore[method-assign]
        trace = rig.run()
        # The disturbance shows up...
        assert trace.max_deviation_from(reference) > 1e-4
        # ...but the PID recovers: final tracking error back to normal.
        final_gap = np.linalg.norm(trace.tip_array[-1] - reference.tip_array[-1])
        assert final_gap < 1e-3


class TestSensorFailures:
    def test_encoder_noise_burst_survivable(self):
        """Heavy (10x nominal) electrical noise on the encoders degrades
        tracking but does not destabilize the loop."""
        config = RigConfig(seed=65, duration_s=DURATION, encoder_noise_counts=3.0)
        trace = SurgicalRig(config).run()
        assert trace.states[-1] is RobotState.PEDAL_DOWN
        assert not trace.adverse_impact()

    def test_extreme_encoder_noise_trips_the_drives(self):
        """Beyond some noise level the derivative action amplifies the
        jitter until the DAC check trips — noisy sensors fail safe."""
        config = RigConfig(seed=65, duration_s=DURATION, encoder_noise_counts=8.0)
        trace = SurgicalRig(config).run()
        assert trace.estop_occurred() or trace.safety_trip_cycles

    def test_total_encoder_failure_detected_by_raven(self):
        """A stuck encoder (constant reading) makes the PID wind up until
        the software safety check trips — the robot's own mechanisms do
        catch gross *accidental* failures."""
        config = RigConfig(seed=66, duration_s=DURATION)
        rig = SurgicalRig(config)
        frozen = {}

        original_to_counts = rig.encoders.to_counts

        def sticky_to_counts(mpos):
            counts = original_to_counts(mpos)
            if rig.plant.time > 0.8:
                if "value" not in frozen:
                    frozen["value"] = counts.copy()
                return frozen["value"]
            return counts

        rig.encoders.to_counts = sticky_to_counts  # type: ignore[method-assign]
        trace = rig.run()
        assert trace.estop_occurred() or trace.safety_trip_cycles
