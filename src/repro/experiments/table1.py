"""Table I: attack variants on the robot control structure.

Runs one representative attack per Table I row and reports the observed
impact, which should match the paper's column:

- socket comm., change port          -> robot unresponsive / trajectory hold
- socket comm., change content       -> hijacked trajectory
- math library drift (sin/cos)       -> unwanted state (IK failure)
- PLC state corruption               -> homing failure
- motor command corruption (write)   -> abrupt jump / E-STOP
- encoder feedback corruption (read) -> abrupt jump / E-STOP
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.attacks.injection import ByteCorruptionInjection, build_scenario_b_library
from repro.attacks.malware import PedalDownTrigger
from repro.attacks.variants import (
    VariantOutcome,
    build_encoder_corruption_library,
    build_plc_state_corruption_library,
    build_socket_drop_library,
    build_socket_hijack_library,
    install_math_drift,
)
from repro.experiments.report import format_table
from repro.sim.rig import RigConfig, SurgicalRig
from repro.sim.runner import run_fault_free


def _config(seed: int, duration_s: float) -> RigConfig:
    return RigConfig(seed=seed, duration_s=duration_s, trajectory_name="circle")


def run_table1(seed: int = 7, duration_s: float = 1.8) -> List[VariantOutcome]:
    """Execute every Table I variant and classify the outcome."""
    outcomes = []
    reference = run_fault_free(seed=seed, duration_s=duration_s)

    # --- socket: change port (datagrams lost) --------------------------------
    rig = SurgicalRig(_config(seed, duration_s),
                      preload_libraries=[build_socket_drop_library()])
    trace = rig.run()
    frozen = trace.pedal_down_fraction() == 0.0
    outcomes.append(
        VariantOutcome(
            variant="socket: change port",
            impact="robot never engages (teleoperation unavailable)"
            if frozen
            else "console commands lost",
            details=f"pedal-down fraction {trace.pedal_down_fraction():.2f}",
        )
    )

    # --- socket: change packet content (hijack) --------------------------------
    trigger = PedalDownTrigger.for_pedal_down(delay_cycles=300, duration_cycles=400)
    hijack = build_socket_hijack_library(
        trigger, hijack_dpos_m=np.array([8e-5, 0.0, 4e-5])
    )
    rig = SurgicalRig(_config(seed, duration_s), preload_libraries=[hijack])
    trace = rig.run()
    deviation = trace.max_deviation_from(reference)
    outcomes.append(
        VariantOutcome(
            variant="socket: change packet content",
            impact="hijacked trajectory"
            if deviation > 1e-3
            else "no effect",
            details=f"deviation from surgeon intent {deviation * 1e3:.1f} mm",
        )
    )

    # --- math library drift ---------------------------------------------------
    rig = SurgicalRig(_config(seed, duration_s))
    install_math_drift(rig, drift_per_call=3e-6)
    trace = rig.run()
    ik_failed = any("IK failure" in r for r in trace.estop_reasons)
    outcomes.append(
        VariantOutcome(
            variant="math: add drift to sin/cos",
            impact="unwanted state (IK failure -> E-STOP)"
            if ik_failed
            else (
                "trajectory drift"
                if trace.max_deviation_from(reference) > 1e-3
                else "no effect"
            ),
            details="; ".join(trace.estop_reasons[:1]),
        )
    )

    # --- PLC state corruption ---------------------------------------------------
    rig = SurgicalRig(
        _config(seed, duration_s),
        preload_libraries=[build_plc_state_corruption_library()],
    )
    trace = rig.run()
    never_ready = trace.pedal_down_fraction() == 0.0
    outcomes.append(
        VariantOutcome(
            variant="interface: change robot state in PLC",
            impact="homing failure (robot never becomes operational)"
            if never_ready
            else "initialization disturbed",
            details=f"PLC E-STOP: {rig.plc.estop_latched}",
        )
    )

    # --- motor command corruption (random byte) --------------------------------
    trigger = PedalDownTrigger.for_pedal_down(delay_cycles=300, duration_cycles=200)
    payload = ByteCorruptionInjection(np.random.default_rng(seed))
    rig = SurgicalRig(
        _config(seed, duration_s),
        preload_libraries=[build_scenario_b_library(trigger, payload)],
    )
    trace = rig.run()
    deviation = trace.max_deviation_from(reference)
    estopped = trace.estop_occurred()
    outcomes.append(
        VariantOutcome(
            variant="physical: change motor commands",
            impact=_jump_impact(deviation, estopped),
            details=f"deviation {deviation * 1e3:.1f} mm; "
            f"E-STOP {estopped}",
        )
    )

    # --- encoder feedback corruption ---------------------------------------------
    trigger = PedalDownTrigger.for_pedal_down(delay_cycles=300, duration_cycles=200)
    library = build_encoder_corruption_library(trigger, offset_counts=4000)
    rig = SurgicalRig(_config(seed, duration_s), preload_libraries=[library])
    trace = rig.run()
    deviation = trace.max_deviation_from(reference)
    estopped = trace.estop_occurred()
    outcomes.append(
        VariantOutcome(
            variant="physical: change encoder feedback",
            impact=_jump_impact(deviation, estopped),
            details=f"deviation {deviation * 1e3:.1f} mm; E-STOP {estopped}",
        )
    )
    return outcomes


def _jump_impact(deviation_m: float, estopped: bool) -> str:
    if deviation_m > 1e-3 and estopped:
        return "abrupt jump + unwanted state (E-STOP)"
    if deviation_m > 1e-3:
        return "abrupt jump"
    if estopped:
        return "unwanted state (E-STOP)"
    return "no physical effect"


def format_results(outcomes: List[VariantOutcome]) -> str:
    """Table I-style report."""
    return format_table(
        ["variant", "observed impact", "details"],
        [[o.variant, o.impact, o.details] for o in outcomes],
    )
