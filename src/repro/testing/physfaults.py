"""Physical-layer fault injection for the simulated rig.

Where :mod:`repro.testing.faults` stresses the *execution engine* (worker
crashes, cache corruption), this module stresses the *simulated robot
itself* — the everyday degradation an in-situ deployment of the paper's
detector must survive on a real RAVEN II:

- **encoder faults** (``encoder_dropout`` / ``encoder_glitch`` /
  ``encoder_stuck``) corrupt the quantized counts of every encoder read,
  via :attr:`repro.hw.encoder.EncoderBank.count_fault`;
- **DAC faults** (``dac_stuck`` / ``dac_saturate``) corrupt the values the
  USB board latches into the motor controllers *after* the guard decision,
  via :attr:`repro.hw.usb_board.UsbBoard.dac_fault` — output-stage faults
  no software layer can see directly;
- **network faults** (``packet_loss`` / ``packet_duplicate`` /
  ``packet_jitter`` / ``itp_corrupt``) impose windowed bursts on the
  console->robot UDP link via :attr:`repro.teleop.network.UdpChannel.fault`
  (``itp_corrupt`` flips wire bytes with
  :func:`repro.teleop.itp.corrupt_itp`, which the receiver's checksum
  turns into loss);
- **model faults** (``model_drift``) apply bounded inertia/friction drift
  to the *detector's* dynamic model via
  :meth:`repro.core.dynamic_model.RavenDynamicModel.apply_parameter_drift`
  — the plant stays nominal, only the model's view of it degrades.

A :class:`PhysFaultPlan` is seedable and JSON-serializable (the sibling of
:class:`~repro.testing.faults.FaultPlan`); per-cycle fault decisions are a
pure function of ``(plan seed, subsystem, control cycle)``, so the same
plan reproduces the same degradation regardless of how many times a
subsystem is read within a cycle or which process executes the run.

The injector reaches the rig either through ``RigConfig.phys_faults`` or
the ``REPRO_PHYS_FAULT_PLAN`` environment variable naming a saved plan
file.  With neither present the rig never imports this module and the
simulation is bit-identical to a build without it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import constants
from repro.envcfg import env_str
from repro.teleop.itp import corrupt_itp
from repro.teleop.network import ChannelFault

#: Environment variable naming a saved :class:`PhysFaultPlan` JSON file.
PLAN_ENV_VAR = "REPRO_PHYS_FAULT_PLAN"

#: Fault kinds per subsystem.
ENCODER_FAULT_KINDS = ("encoder_dropout", "encoder_glitch", "encoder_stuck")
DAC_FAULT_KINDS = ("dac_stuck", "dac_saturate")
NETWORK_FAULT_KINDS = (
    "packet_loss",
    "packet_duplicate",
    "packet_jitter",
    "itp_corrupt",
)
MODEL_FAULT_KINDS = ("model_drift",)

PHYS_FAULT_KINDS = (
    ENCODER_FAULT_KINDS + DAC_FAULT_KINDS + NETWORK_FAULT_KINDS + MODEL_FAULT_KINDS
)

#: Default encoder glitch magnitude (counts): far outside one cycle of real
#: motion, so the supervisor's plausibility screen can reject it.
DEFAULT_GLITCH_COUNTS = 2000.0

#: Default jitter-burst spread (seconds) at intensity 1.0.
DEFAULT_JITTER_S = 0.02

#: Default relative inertia/friction drift of the model at intensity 1.0.
DEFAULT_DRIFT_FRACTION = 0.4

#: Stable subsystem ids for the per-cycle RNG keying.
_SUBSYS_ENCODER = 0
_SUBSYS_NETWORK = 2


@dataclass(frozen=True)
class PhysFaultSpec:
    """One physical fault, active during ``[start_s, stop_s)``.

    ``intensity`` is the per-cycle firing probability for stochastic kinds
    (dropout, glitch, loss, duplicate, corrupt) and the severity scale for
    continuous kinds (saturate, jitter, drift); ``value`` overrides the
    kind's default magnitude (glitch counts, stuck DAC counts, saturation
    limit, jitter seconds, drift fraction).  ``axis`` restricts encoder/DAC
    faults to one axis/channel (``None`` = all).
    """

    kind: str
    intensity: float = 1.0
    axis: Optional[int] = None
    start_s: float = 0.0
    stop_s: Optional[float] = None
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in PHYS_FAULT_KINDS:
            raise ValueError(
                f"unknown physical fault kind {self.kind!r}; "
                f"choose from {PHYS_FAULT_KINDS}"
            )
        if not (0.0 <= self.intensity <= 1.0):
            raise ValueError("intensity must be in [0, 1]")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ValueError("stop_s must exceed start_s")

    def active(self, now: float) -> bool:
        """Whether the fault window covers time ``now``."""
        if now < self.start_s:
            return False
        return self.stop_s is None or now < self.stop_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "intensity": self.intensity,
            "axis": self.axis,
            "start_s": self.start_s,
            "stop_s": self.stop_s,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhysFaultSpec":
        return cls(
            kind=data["kind"],
            intensity=data.get("intensity", 1.0),
            axis=data.get("axis"),
            start_s=data.get("start_s", 0.0),
            stop_s=data.get("stop_s"),
            value=data.get("value"),
        )


def _kinds_of(specs: Sequence[PhysFaultSpec], kinds: Tuple[str, ...]) -> List[PhysFaultSpec]:
    return [s for s in specs if s.kind in kinds]


@dataclass
class PhysFaultPlan:
    """A deterministic, serializable set of physical-layer faults."""

    specs: List[PhysFaultSpec] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def single(cls, kind: str, intensity: float = 1.0, seed: int = 0, **kwargs: Any) -> "PhysFaultPlan":
        """A plan with one fault of ``kind`` (convenience for sweeps)."""
        return cls(specs=[PhysFaultSpec(kind=kind, intensity=intensity, **kwargs)], seed=seed)

    # -- subsystem views ---------------------------------------------------------

    @property
    def encoder_specs(self) -> List[PhysFaultSpec]:
        return _kinds_of(self.specs, ENCODER_FAULT_KINDS)

    @property
    def dac_specs(self) -> List[PhysFaultSpec]:
        return _kinds_of(self.specs, DAC_FAULT_KINDS)

    @property
    def network_specs(self) -> List[PhysFaultSpec]:
        return _kinds_of(self.specs, NETWORK_FAULT_KINDS)

    @property
    def model_specs(self) -> List[PhysFaultSpec]:
        return _kinds_of(self.specs, MODEL_FAULT_KINDS)

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhysFaultPlan":
        return cls(
            specs=[PhysFaultSpec.from_dict(d) for d in data.get("specs", [])],
            seed=data.get("seed", 0),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan as JSON (for the ``REPRO_PHYS_FAULT_PLAN`` hook)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PhysFaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_env(cls) -> Optional["PhysFaultPlan"]:
        """The plan named by ``REPRO_PHYS_FAULT_PLAN``, if any."""
        path = env_str(PLAN_ENV_VAR)
        if not path:
            return None
        return cls.load(path)


def coerce_plan(
    plan: Union["PhysFaultPlan", dict, str, Path]
) -> "PhysFaultPlan":
    """Accept a plan object, its dict form, or a path to a saved plan."""
    if isinstance(plan, PhysFaultPlan):
        return plan
    if isinstance(plan, dict):
        return PhysFaultPlan.from_dict(plan)
    return PhysFaultPlan.load(plan)


class _PhysChannelFault(ChannelFault):
    """Applies a plan's network faults to one UDP channel."""

    def __init__(self, injector: "PhysFaultInjector") -> None:
        self.injector = injector

    def on_send(self, data: bytes, now: float) -> List[Tuple[bytes, float]]:
        return self.injector.network_deliveries(data, now)


class PhysFaultInjector:
    """Wires a :class:`PhysFaultPlan` into one :class:`SurgicalRig`.

    All stochastic decisions draw from a generator keyed on
    ``(plan seed, subsystem, control cycle)``: repeated reads within one
    cycle see the same corruption (a physical fault, not resampled noise)
    and runs are reproducible across processes.
    """

    def __init__(self, plan: Union[PhysFaultPlan, dict, str, Path]) -> None:
        self.plan = coerce_plan(plan)
        self.now = 0.0
        #: Held counts per stuck-encoder spec index (latched on first
        #: active read).
        self._stuck_counts: Dict[int, np.ndarray] = {}
        # Visibility counters (diagnostics / tests).
        self.encoder_faults_fired = 0
        self.dac_faults_fired = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_jittered = 0
        self.packets_corrupted = 0

    # -- timekeeping -------------------------------------------------------------

    def set_time(self, now: float) -> None:
        """Advance the injector's clock (called by the rig each cycle)."""
        self.now = now

    @property
    def cycle(self) -> int:
        return int(round(self.now / constants.CONTROL_PERIOD_S))

    def _rng(self, subsystem: int, cycle: Optional[int] = None) -> np.random.Generator:
        key = (self.plan.seed, subsystem, self.cycle if cycle is None else cycle)
        return np.random.default_rng(np.random.SeedSequence(entropy=key))

    # -- rig installation --------------------------------------------------------

    def install(self, rig) -> None:
        """Attach every configured fault family to ``rig``'s components."""
        plan = self.plan
        if plan.encoder_specs:
            rig.encoders.count_fault = self.encoder_hook
        if plan.dac_specs:
            rig.usb_board.dac_fault = self.dac_hook
        if plan.network_specs:
            rig.channel.fault = _PhysChannelFault(self)
        if plan.model_specs and rig.guard is not None:
            self.apply_model_faults(rig.guard)

    def apply_model_faults(self, guard) -> None:
        """Drift the detector-side dynamic model per the plan's specs.

        Accepts a bare :class:`~repro.core.pipeline.DetectorGuard` or a
        :class:`~repro.core.pipeline.GuardSupervisor` wrapping one.
        """
        inner = getattr(guard, "guard", guard)
        model = inner.estimator.model
        for spec in self.plan.model_specs:
            fraction = DEFAULT_DRIFT_FRACTION if spec.value is None else spec.value
            model.apply_parameter_drift(1.0 + spec.intensity * fraction)

    # -- encoder faults ----------------------------------------------------------

    def encoder_hook(self, counts: np.ndarray) -> np.ndarray:
        """The :attr:`EncoderBank.count_fault` implementation."""
        now = self.now
        active = [
            (i, s)
            for i, s in enumerate(self.plan.specs)
            if s.kind in ENCODER_FAULT_KINDS and s.active(now)
        ]
        if not active:
            return counts
        out = counts.copy()
        rng = self._rng(_SUBSYS_ENCODER)
        fired = False
        for index, spec in active:
            axes = range(len(out)) if spec.axis is None else (spec.axis,)
            if spec.kind == "encoder_stuck":
                held = self._stuck_counts.setdefault(index, counts.copy())
                for axis in axes:
                    out[axis] = held[axis]
                fired = True
            elif spec.kind == "encoder_dropout":
                if rng.random() < spec.intensity:
                    # The read fails: the register reports zero counts.
                    for axis in axes:
                        out[axis] = 0
                    fired = True
            elif spec.kind == "encoder_glitch":
                if rng.random() < spec.intensity:
                    magnitude = (
                        DEFAULT_GLITCH_COUNTS if spec.value is None else spec.value
                    )
                    axis = (
                        int(rng.integers(len(out)))
                        if spec.axis is None
                        else spec.axis
                    )
                    sign = 1.0 if rng.random() < 0.5 else -1.0
                    out[axis] += int(round(sign * magnitude))
                    fired = True
        if fired:
            self.encoder_faults_fired += 1
        return out

    # -- DAC faults --------------------------------------------------------------

    def dac_hook(self, dac_values: Sequence[int]) -> List[int]:
        """The :attr:`UsbBoard.dac_fault` implementation."""
        now = self.now
        out = [int(v) for v in dac_values]
        fired = False
        for spec in self.plan.dac_specs:
            if not spec.active(now):
                continue
            channels = range(len(out)) if spec.axis is None else (spec.axis,)
            if spec.kind == "dac_stuck":
                stuck = 0 if spec.value is None else int(spec.value)
                for ch in channels:
                    if out[ch] != stuck:
                        fired = True
                    out[ch] = stuck
            elif spec.kind == "dac_saturate":
                limit = (
                    int(spec.value)
                    if spec.value is not None
                    else int(
                        round(
                            (1.0 - 0.9 * spec.intensity)
                            * constants.DAC_FULL_SCALE
                        )
                    )
                )
                for ch in channels:
                    clipped = max(-limit, min(limit, out[ch]))
                    if clipped != out[ch]:
                        fired = True
                    out[ch] = clipped
        if fired:
            self.dac_faults_fired += 1
        return out

    # -- network faults ----------------------------------------------------------

    def network_deliveries(
        self, data: bytes, now: float
    ) -> List[Tuple[bytes, float]]:
        """Map one console datagram to its (possibly degraded) deliveries."""
        active = [s for s in self.plan.network_specs if s.active(now)]
        if not active:
            return [(data, 0.0)]
        cycle = int(round(now / constants.CONTROL_PERIOD_S))
        rng = self._rng(_SUBSYS_NETWORK, cycle)
        extra_delay = 0.0
        duplicated = False
        for spec in active:
            if spec.kind == "packet_loss":
                if rng.random() < spec.intensity:
                    self.packets_dropped += 1
                    return []
            elif spec.kind == "itp_corrupt":
                if rng.random() < spec.intensity:
                    data = corrupt_itp(data, int(rng.integers(len(data) or 1)))
                    self.packets_corrupted += 1
            elif spec.kind == "packet_jitter":
                spread = DEFAULT_JITTER_S if spec.value is None else spec.value
                jitter = spec.intensity * spread * float(rng.random())
                if jitter > 0:
                    extra_delay += jitter
                    self.packets_jittered += 1
            elif spec.kind == "packet_duplicate":
                if rng.random() < spec.intensity:
                    duplicated = True
        deliveries = [(data, extra_delay)]
        if duplicated:
            # The duplicate trails by one cycle, as a retransmit would.
            deliveries.append((data, extra_delay + constants.CONTROL_PERIOD_S))
            self.packets_duplicated += 1
        return deliveries

    # -- diagnostics -------------------------------------------------------------

    def summary(self) -> dict:
        """Counters of what actually fired during the run."""
        return {
            "encoder_faults_fired": self.encoder_faults_fired,
            "dac_faults_fired": self.dac_faults_fired,
            "packets_dropped": self.packets_dropped,
            "packets_duplicated": self.packets_duplicated,
            "packets_jittered": self.packets_jittered,
            "packets_corrupted": self.packets_corrupted,
        }
