"""Desired-motion generators for the master console emulator.

The paper's simulation framework replays "previously collected trajectories
of surgical movements made by a human operator".  We generate synthetic
surgical-movement families instead (circles, figure-eights, suturing loops,
idle holds), each overlaid with a physiological hand-tremor model, and a
:class:`TrajectoryLibrary` that samples parameter variations — the paper's
threshold learning requires fault-free runs "with sufficient variability in
the movement".

A trajectory is an absolute desired tool-tip path ``p(t)`` around a centre
point; the console transmits *incremental* motions ``p(t+dt) - p(t)`` per
ITP packet, exactly like the RAVEN master console.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro import constants
from repro.kinematics.spherical_arm import SphericalArm
from repro.kinematics.workspace import Workspace


class TremorModel:
    """Band-limited physiological hand tremor (~8-12 Hz, tens of microns).

    Implemented as white noise through a lightly damped second-order
    resonator centred at ``frequency_hz``; output is a 3-vector of position
    perturbations added to the ideal path.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        amplitude_m: float = 3e-5,
        frequency_hz: float = 9.0,
        damping: float = 0.15,
    ) -> None:
        if amplitude_m < 0:
            raise ValueError("amplitude_m must be non-negative")
        self.amplitude = amplitude_m
        self.omega = 2.0 * math.pi * frequency_hz
        self.damping = damping
        self._rng = rng
        self._x = [0.0, 0.0, 0.0]
        self._v = [0.0, 0.0, 0.0]

    def sample(self, dt: float) -> np.ndarray:
        """Advance one tick and return the tremor displacement (m).

        The white-noise drive is scaled by ``1/sqrt(dt)`` so its power
        spectral density — and hence the steady-state displacement variance
        ``1 / (4 * damping)`` of the unit resonator — is independent of the
        step size; the output is then scaled so its RMS equals
        ``amplitude``.
        """
        if self.amplitude == 0.0:
            return np.zeros(3)
        # Per axis on floats, in the operation order of the vector form
        # drive = n * w**1.5 / sqrt(dt); acc = drive - c * v - w**2 * x.
        drive_gain, root_dt = self.omega**1.5, math.sqrt(dt)
        damping = 2 * self.damping * self.omega
        stiffness = self.omega**2
        x_next, v_next = [], []
        for n, x, v in zip(self._rng.standard_normal(3).tolist(), self._x, self._v):
            acc = n * drive_gain / root_dt - damping * v - stiffness * x
            v = v + acc * dt
            x_next.append(x + v * dt)
            v_next.append(v)
        self._x, self._v = x_next, v_next
        scale = self.amplitude * 2.0 * math.sqrt(self.damping)
        return np.array([x * scale for x in x_next])


class Trajectory:
    """Base class: absolute desired tool-tip position over time."""

    def __init__(
        self,
        center: np.ndarray,
        tremor: Optional[TremorModel] = None,
        name: str = "trajectory",
    ) -> None:
        self.center = np.asarray(center, dtype=float)
        self.tremor = tremor
        self.name = name

    def offset(self, t: float) -> np.ndarray:
        """Ideal displacement from the centre at time ``t`` (override me)."""
        raise NotImplementedError

    def position(self, t: float, dt: float = constants.CONTROL_PERIOD_S) -> np.ndarray:
        """Desired absolute position at time ``t`` including tremor."""
        p = self.center + self.offset(t)
        if self.tremor is not None:
            p = p + self.tremor.sample(dt)
        return p

    def increments(
        self, duration: float, dt: float = constants.CONTROL_PERIOD_S
    ) -> Iterator[np.ndarray]:
        """Yield per-tick incremental motions over ``duration`` seconds."""
        steps = int(round(duration / dt))
        prev = self.position(0.0, dt)
        for k in range(1, steps + 1):
            cur = self.position(k * dt, dt)
            yield cur - prev
            prev = cur


class IdleTrajectory(Trajectory):
    """Instrument held still (tremor only) — e.g. while the surgeon pauses."""

    def __init__(self, center, tremor=None) -> None:
        super().__init__(center, tremor, name="idle")

    def offset(self, t: float) -> np.ndarray:
        return np.zeros(3)


class CircleTrajectory(Trajectory):
    """Circular sweep in a tilted plane — blunt-dissection-like motion."""

    def __init__(
        self,
        center,
        radius: float = 0.015,
        period: float = 4.0,
        tilt: float = 0.4,
        tremor=None,
    ) -> None:
        super().__init__(center, tremor, name="circle")
        if radius <= 0 or period <= 0:
            raise ValueError("radius and period must be positive")
        self.radius = radius
        self.period = period
        self.tilt = tilt

    def offset(self, t: float) -> np.ndarray:
        # Smooth-start envelope avoids a velocity step at t = 0.
        envelope = min(1.0, t / (0.25 * self.period))
        phase = 2.0 * math.pi * t / self.period
        x = self.radius * math.cos(phase) - self.radius
        y = self.radius * math.sin(phase)
        z = math.sin(self.tilt) * y
        return np.array([envelope * x, envelope * (math.cos(self.tilt) * y), envelope * z])


class Figure8Trajectory(Trajectory):
    """Lissajous figure-eight — instrument-exercise motion."""

    def __init__(
        self,
        center,
        width: float = 0.02,
        height: float = 0.012,
        period: float = 5.0,
        tremor=None,
    ) -> None:
        super().__init__(center, tremor, name="figure8")
        if width <= 0 or height <= 0 or period <= 0:
            raise ValueError("width, height and period must be positive")
        self.width = width
        self.height = height
        self.period = period

    def offset(self, t: float) -> np.ndarray:
        envelope = min(1.0, t / (0.2 * self.period))
        phase = 2.0 * math.pi * t / self.period
        return np.array(
            [
                envelope * (self.width * math.sin(phase)),
                envelope * (self.height * math.sin(2.0 * phase)),
                envelope * (0.3 * self.height * math.cos(phase) - 0.3 * self.height),
            ]
        )


class SuturingTrajectory(Trajectory):
    """Repeated stitching loops advancing along a seam, with depth bobbing.

    The motion the paper's intro motivates: small fast loops (the needle
    pass) superposed on a slow advance, with periodic insertion-depth
    changes as the needle enters and exits tissue.
    """

    def __init__(
        self,
        center,
        loop_radius: float = 0.008,
        loop_period: float = 1.5,
        advance_speed: float = 0.002,
        depth_amplitude: float = 0.006,
        tremor=None,
    ) -> None:
        super().__init__(center, tremor, name="suturing")
        if loop_radius <= 0 or loop_period <= 0:
            raise ValueError("loop_radius and loop_period must be positive")
        self.loop_radius = loop_radius
        self.loop_period = loop_period
        self.advance_speed = advance_speed
        self.depth_amplitude = depth_amplitude

    def offset(self, t: float) -> np.ndarray:
        envelope = min(1.0, t / (0.5 * self.loop_period))
        phase = 2.0 * math.pi * t / self.loop_period
        # envelope * loop + (0, advance_speed * t, 0), per axis; the zero
        # terms are kept because adding 0.0 turns -0.0 into 0.0.
        return np.array(
            [
                envelope * (self.loop_radius * math.cos(phase) - self.loop_radius) + 0.0,
                envelope * (0.4 * self.loop_radius * math.sin(phase))
                + self.advance_speed * t,
                envelope * (self.depth_amplitude * 0.5 * (1 - math.cos(phase))) + 0.0,
            ]
        )


class TrajectoryLibrary:
    """Named trajectory factories with randomized-parameter sampling."""

    def __init__(
        self,
        arm: Optional[SphericalArm] = None,
        workspace: Optional[Workspace] = None,
    ) -> None:
        self.arm = arm or SphericalArm()
        self.workspace = workspace or Workspace()
        self.center = self.arm.forward(self.workspace.neutral())

    def names(self) -> Tuple[str, ...]:
        """Names of the available trajectory families."""
        return ("idle", "circle", "figure8", "suturing")

    def make(
        self,
        name: str,
        rng: Optional[np.random.Generator] = None,
        tremor_amplitude: float = 3e-5,
        **params,
    ) -> Trajectory:
        """Build a trajectory by family name with explicit parameters."""
        rng = rng or np.random.default_rng(0)
        tremor = TremorModel(rng, amplitude_m=tremor_amplitude)
        if name == "idle":
            return IdleTrajectory(self.center, tremor=tremor)
        if name == "circle":
            return CircleTrajectory(self.center, tremor=tremor, **params)
        if name == "figure8":
            return Figure8Trajectory(self.center, tremor=tremor, **params)
        if name == "suturing":
            return SuturingTrajectory(self.center, tremor=tremor, **params)
        raise KeyError(f"unknown trajectory family {name!r}")

    def sample(self, rng: np.random.Generator) -> Trajectory:
        """A random trajectory with randomized parameters (training runs)."""
        name = rng.choice(["circle", "figure8", "suturing"])
        if name == "circle":
            return self.make(
                "circle",
                rng=rng,
                radius=float(rng.uniform(0.008, 0.025)),
                period=float(rng.uniform(2.5, 6.0)),
                tilt=float(rng.uniform(0.0, 0.8)),
            )
        if name == "figure8":
            return self.make(
                "figure8",
                rng=rng,
                width=float(rng.uniform(0.01, 0.025)),
                height=float(rng.uniform(0.006, 0.015)),
                period=float(rng.uniform(3.0, 7.0)),
            )
        return self.make(
            "suturing",
            rng=rng,
            loop_radius=float(rng.uniform(0.005, 0.012)),
            loop_period=float(rng.uniform(1.0, 2.5)),
            advance_speed=float(rng.uniform(0.001, 0.003)),
            depth_amplitude=float(rng.uniform(0.003, 0.008)),
        )

    def paper_pair(self, rng: np.random.Generator) -> Dict[str, Trajectory]:
        """The paper's two training trajectories ("two different
        trajectories containing sufficient variability in the movement")."""
        return {
            "circle": self.make("circle", rng=rng, radius=0.018, period=3.5, tilt=0.5),
            "suturing": self.make("suturing", rng=rng),
        }
