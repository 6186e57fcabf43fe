"""End-to-end test of the paper's full three-phase attack anatomy.

Phase 1 (preparation): eavesdrop USB traffic with the preloaded library.
Phase 2 (offline analysis): recover the state byte, watchdog bit and the
Pedal-Down trigger values from the captures alone.
Phase 3 (deployment): build the injection malware *from the analysis
output* and show it corrupts the physical system mid-surgery — and that
the dynamic-model detector catches it preemptively.
"""

import pytest

from repro import constants
from repro.attacks.analysis import OfflineAnalysis
from repro.attacks.eavesdrop import EavesdropLogger, build_eavesdropper_library
from repro.attacks.injection import DacOffsetInjection, build_scenario_b_library
from repro.attacks.malware import PedalDownTrigger
from repro.core.mitigation import MitigationStrategy
from repro.sim.rig import RigConfig, SurgicalRig
from repro.sim.runner import make_detector_guard, run_fault_free

DURATION = 1.2


@pytest.fixture(scope="module")
def analysis_conclusion():
    """Phases 1+2: capture three sessions and analyze them."""
    analysis = OfflineAnalysis()
    for seed in (31, 32, 33):
        logger = EavesdropLogger()
        library, _ = build_eavesdropper_library(logger)
        config = RigConfig(
            seed=seed,
            duration_s=DURATION,
            trajectory_name=("circle", "figure8", "suturing")[seed % 3],
            pedal_release_s=DURATION * 0.85 if seed % 2 else None,
        )
        SurgicalRig(config, preload_libraries=[library]).run()
        analysis.add_run(logger.command_packets())
    return analysis.conclude()


class TestOfflinePhases:
    def test_state_byte_recovered(self, analysis_conclusion):
        assert analysis_conclusion.state_byte == constants.USB_STATE_BYTE

    def test_watchdog_bit_recovered(self, analysis_conclusion):
        assert analysis_conclusion.watchdog_bit == constants.USB_WATCHDOG_BIT

    def test_pedal_down_values_recovered(self, analysis_conclusion):
        expected = {
            constants.STATE_BYTE_PEDAL_DOWN,
            constants.STATE_BYTE_PEDAL_DOWN | (1 << constants.USB_WATCHDOG_BIT),
        }
        assert set(analysis_conclusion.pedal_down_raw_values) == expected

    def test_state_names_mapped(self, analysis_conclusion):
        assert analysis_conclusion.value_to_state[
            constants.STATE_BYTE_PEDAL_DOWN
        ] == "Pedal Down"


class TestDeploymentPhase:
    def _attack_library(self, conclusion):
        """Build the malware purely from the attacker's conclusions."""
        trigger = PedalDownTrigger(
            trigger_values=conclusion.pedal_down_raw_values,
            delay_cycles=150,
            duration_cycles=64,
        )
        return build_scenario_b_library(
            trigger, DacOffsetInjection(26000, channel=0)
        ), trigger

    def test_attack_fires_only_during_engagement(self, analysis_conclusion):
        library, trigger = self._attack_library(analysis_conclusion)
        config = RigConfig(seed=35, duration_s=DURATION)
        rig = SurgicalRig(config, preload_libraries=[library])
        trace = rig.run()
        # The burst runs until its duration OR until the robot's own
        # safety checks E-STOP it (the state byte then leaves Pedal Down,
        # which also silences the trigger — the attack is state-keyed).
        assert 1 <= trigger.activations <= 64
        from repro.control.state_machine import RobotState

        first = trigger.first_active_cycle
        # The trigger fired while engaged (allow 1 packet of skew).
        assert trace.states[first - 1] is RobotState.PEDAL_DOWN

    def test_attack_corrupts_physical_state(self, analysis_conclusion):
        reference = run_fault_free(seed=35, duration_s=DURATION)
        library, _ = self._attack_library(analysis_conclusion)
        config = RigConfig(seed=35, duration_s=DURATION,
                           raven_safety_enabled=False)
        trace = SurgicalRig(config, preload_libraries=[library]).run()
        assert trace.max_deviation_from(reference) > constants.UNSAFE_JUMP_M

    def test_detector_preempts_deployed_attack(
        self, analysis_conclusion, loose_thresholds
    ):
        library, trigger = self._attack_library(analysis_conclusion)
        guard = make_detector_guard(
            loose_thresholds, strategy=MitigationStrategy.BLOCK_AND_ESTOP
        )
        config = RigConfig(seed=35, duration_s=DURATION)
        rig = SurgicalRig(config, preload_libraries=[library], guard=guard)
        trace = rig.run()
        assert guard.stats.alerted
        first_alert = guard.stats.first_alert_cycle
        # Detection within a few cycles of the first malicious packet.
        assert first_alert - trigger.first_active_cycle < 20
        # The jump never develops: robot halted safely.
        assert trace.max_jump(window_s=10e-3) < 2 * constants.UNSAFE_JUMP_M
