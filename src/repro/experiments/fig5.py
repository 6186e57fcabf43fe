"""Figure 5: USB packet byte patterns over one run.

Runs one complete teleoperation session — E-STOP, start button, Init,
Pedal Up, Pedal Down — with the eavesdropping library preloaded, then
analyzes the captured packets byte by byte the way the paper's attacker
does: per-byte cardinalities, the many-valued DAC bytes (Byte 4 in the
paper), and Byte 0 switching among 8 raw values that collapse to the 4
operational states once the periodic watchdog bit is removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import constants
from repro.attacks.analysis import (
    byte_cardinalities,
    byte_value_series,
    infer_state_byte,
    infer_state_sequence,
)
from repro.attacks.eavesdrop import EavesdropLogger, build_eavesdropper_library
from repro.experiments.report import format_table
from repro.sim.rig import RigConfig, SurgicalRig


def capture_run(
    seed: int = 0,
    duration_s: float = 2.0,
    trajectory_name: str = "circle",
    pedal_release_s: Optional[float] = None,
) -> List[bytes]:
    """One eavesdropped run; returns the captured command packets."""
    logger = EavesdropLogger()
    library, _ = build_eavesdropper_library(logger)
    config = RigConfig(
        seed=seed,
        duration_s=duration_s,
        trajectory_name=trajectory_name,
        pedal_release_s=pedal_release_s,
    )
    rig = SurgicalRig(config, preload_libraries=[library])
    rig.run()
    return logger.command_packets()


@dataclass
class Fig5Result:
    """Everything Figure 5 shows, as data."""

    series: np.ndarray
    cardinalities: List[int]
    state_byte: int
    watchdog_bit: Optional[int]
    raw_state_values: List[int]
    masked_state_values: List[int]
    segments: list


def run_fig5(seed: int = 0, duration_s: float = 2.0) -> Fig5Result:
    """Capture one run and perform the per-byte analysis."""
    packets = capture_run(seed=seed, duration_s=duration_s)
    series = byte_value_series(packets)
    cards = byte_cardinalities(series)
    inference = infer_state_byte(series)
    _mapping, segments = infer_state_sequence(
        series, inference.byte_index, inference.watchdog_bit
    )
    raw_values = sorted(int(v) for v in np.unique(series[:, inference.byte_index]))
    return Fig5Result(
        series=series,
        cardinalities=cards,
        state_byte=inference.byte_index,
        watchdog_bit=inference.watchdog_bit,
        raw_state_values=raw_values,
        masked_state_values=sorted(inference.masked_values),
        segments=segments,
    )


def format_results(result: Fig5Result) -> str:
    """Figure 5-style textual report."""
    rows = [
        [f"byte {i}", c, "state byte" if i == result.state_byte else ""]
        for i, c in enumerate(result.cardinalities)
    ]
    table = format_table(["byte", "distinct values", "note"], rows)
    lines = [
        table,
        "",
        f"state byte: Byte {result.state_byte}",
        f"watchdog bit: bit {result.watchdog_bit} "
        f"(paper: bit {constants.USB_WATCHDOG_BIT})",
        f"raw Byte {result.state_byte} values ({len(result.raw_state_values)}): "
        + ", ".join(f"0x{v:02X}" for v in result.raw_state_values),
        f"after removing watchdog bit ({len(result.masked_state_values)}): "
        + ", ".join(f"0x{v:02X}" for v in result.masked_state_values),
        "state segments: "
        + " -> ".join(f"{name}[{end - start}]" for start, end, name in result.segments),
    ]
    return "\n".join(lines)
