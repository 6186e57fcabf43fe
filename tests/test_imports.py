"""Every ``repro`` subpackage imports cold, in a fresh interpreter.

A test session imports modules in whatever order its tests happen to
use, so an import cycle between subpackages can pass every other test
and still break ``import repro.<pkg>`` as a program's first import.
Each case here runs in its own subprocess to catch exactly that.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).resolve().parent.parent

SUBPACKAGES = sorted(
    path.parent.name for path in (_SRC / "repro").glob("*/__init__.py")
)


def test_subpackages_are_found():
    assert len(SUBPACKAGES) >= 15
    assert {"control", "dynamics", "hw", "kinematics", "teleop"} <= set(SUBPACKAGES)


@pytest.mark.parametrize(
    "statement",
    [f"import repro.{name}" for name in SUBPACKAGES]
    + ["from repro.hw.usb_packet import decode_feedback_packet"],
)
def test_cold_import(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", statement],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
