"""Trajectory visualization: the graphic simulator's headless stand-in.

The paper's simulation framework includes "a graphic simulator that
animates the robot movements in real time by ... mapping robotic arms and
instruments movements to CAD models ... in a 3D virtual environment".
This module is the headless equivalent: it renders a recorded
:class:`~repro.sim.trace.RunTrace` to a standalone SVG with the three
orthographic projections of the tool-tip path, the commanded (desired)
path, and event markers (attack activation, detector alerts, E-STOPs).

Pure standard library — the SVG is assembled as text.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.sim.trace import RunTrace

#: Projection planes: (title, index of abscissa, index of ordinate).
_PROJECTIONS = (("top (x-y)", 0, 1), ("front (x-z)", 0, 2), ("side (y-z)", 1, 2))

_PANEL = 260
_MARGIN = 42


def _scale(points: np.ndarray, ax: int, ay: int) -> Tuple[np.ndarray, float]:
    """Map (n, 3) points onto panel coordinates for one projection."""
    p = points[:, (ax, ay)]
    lo = p.min(axis=0)
    hi = p.max(axis=0)
    span = float(max((hi - lo).max(), 1e-6))
    scale = (_PANEL - 2 * 14) / span
    xy = (p - lo) * scale + 14
    xy[:, 1] = _PANEL - xy[:, 1]  # SVG y grows downward
    return xy, span


def _polyline(xy: np.ndarray, color: str, width: float, dash: str = "") -> str:
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in xy[:: max(1, len(xy) // 800)])
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash_attr}/>'
    )


def _marker(xy: np.ndarray, index: int, color: str, label: str) -> str:
    index = min(max(index, 0), len(xy) - 1)
    x, y = xy[index]
    return (
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}">'
        f"<title>{label}</title></circle>"
    )


def render_svg(
    trace: RunTrace,
    reference: Optional[RunTrace] = None,
    title: str = "tool-tip trajectory",
) -> str:
    """Render a run trace (and optional fault-free reference) to SVG text.

    Raises
    ------
    ValueError
        If the trace holds fewer than two samples.
    """
    if len(trace) < 2:
        raise ValueError("trace too short to render")
    tips = trace.tip_array
    pos_d = np.vstack(trace.pos_d)
    ref = reference.tip_array if reference is not None and len(reference) else None

    width = len(_PROJECTIONS) * (_PANEL + _MARGIN) + _MARGIN
    height = _PANEL + 2 * _MARGIN + 30
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{_MARGIN}" y="18" font-size="14">{title}</text>',
    ]

    for i, (name, ax, ay) in enumerate(_PROJECTIONS):
        ox = _MARGIN + i * (_PANEL + _MARGIN)
        oy = _MARGIN
        combined = tips if ref is None else np.vstack([tips, ref])
        # Use a shared bounding box so actual/desired/reference align.
        all_points = np.vstack([combined, pos_d])
        xy_all, span = _scale(all_points, ax, ay)
        n = len(tips)
        xy_tip = xy_all[:n]
        if ref is not None:
            xy_ref = xy_all[n : n + len(ref)]
            xy_des = xy_all[n + len(ref) :]
        else:
            xy_ref = None
            xy_des = xy_all[n:]

        parts.append(f'<g transform="translate({ox},{oy})">')
        parts.append(
            f'<rect width="{_PANEL}" height="{_PANEL}" fill="#fbfbfb" '
            f'stroke="#888"/>'
        )
        parts.append(f'<text x="4" y="-6">{name}  (span {span * 1e3:.1f} mm)</text>')
        if xy_ref is not None:
            parts.append(_polyline(xy_ref, "#9ecae1", 1.2))
        parts.append(_polyline(xy_des, "#bbbbbb", 1.0, dash="4,3"))
        parts.append(_polyline(xy_tip, "#d62728", 1.6))
        if trace.attack_first_cycle is not None:
            parts.append(
                _marker(xy_tip, trace.attack_first_cycle, "#000000", "attack start")
            )
        for cycle in trace.detector_alert_cycles[:5]:
            if cycle >= 0:
                parts.append(_marker(xy_tip, cycle, "#2ca02c", "detector alert"))
        for when, reason in trace.estop_events[:5]:
            index = int(round((when - trace.times[0]) / trace.dt))
            parts.append(_marker(xy_tip, index, "#ff7f0e", f"E-STOP: {reason}"))
        parts.append("</g>")

    legend_y = _PANEL + _MARGIN + 18
    legend = [
        ("#d62728", "actual tip"),
        ("#bbbbbb", "desired (pos_d)"),
        ("#9ecae1", "fault-free reference"),
        ("#000000", "attack start"),
        ("#2ca02c", "detector alert"),
        ("#ff7f0e", "E-STOP"),
    ]
    x = _MARGIN
    for color, label in legend:
        parts.append(f'<rect x="{x}" y="{legend_y - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{x + 14}" y="{legend_y}">{label}</text>')
        x += 14 + 8 * len(label) + 24
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(
    trace: RunTrace,
    path: Union[str, Path],
    reference: Optional[RunTrace] = None,
    title: str = "tool-tip trajectory",
) -> Path:
    """Render and write the SVG; returns the path written."""
    path = Path(path)
    path.write_text(render_svg(trace, reference=reference, title=title))
    return path
