"""Attack Deployment phase: the injection wrappers (scenarios A and B).

Scenario B — *injection of unintended motor torque commands* — exports a
``write`` wrapper that, when the trigger (Byte 0 = Pedal Down) is active,
modifies the DAC fields of the outgoing USB packet **after** the software
safety checks have passed (the TOCTOU exploit).  Two payloads are provided:

- :class:`DacOffsetInjection`: adds a chosen error value to a DAC channel —
  the parametrized attack of Table IV / Figure 9(b);
- :class:`ByteCorruptionInjection`: overwrites a raw byte with a random
  value (e.g. between 0 and 100), the blunt corruption of Section III.C.

Scenario A — *injection of unintended user inputs* — exports a ``recvfrom``
wrapper that perturbs the operator's desired-position increments after
they are received by the control software, plus a passive ``write`` wrapper
that feeds the shared Pedal-Down trigger (the malware watches the robot
state through the same side channel either way).

The wrappers are small classes that share one :class:`Injection` (trigger,
payload and scenario A's activity flag), not closures, so a deep copy of a
rig (:meth:`repro.sim.rig.SurgicalRig.fork`) carries its own copy of the
attack state, which can then take a new payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.attacks.malware import PedalDownTrigger
from repro.errors import AttackConfigError, ChecksumError, PacketError
from repro.sysmodel.linker import SharedLibrary
from repro.sysmodel.process import Process
from repro.teleop.itp import decode_itp, encode_itp, ItpPacket

_INT16_MIN, _INT16_MAX = -(1 << 15), (1 << 15) - 1


@dataclass
class AttackRecord:
    """Summary of what an injection library actually did during a run."""

    scenario: str
    error_value: float
    period_cycles: int
    activations: int = 0
    first_active_cycle: Optional[int] = None

    @property
    def fired(self) -> bool:
        """Whether the attack activated at least once."""
        return self.activations > 0


class Injection:
    """The attack state a deployed library's wrappers share.

    ``trigger`` decides when the attack is active and ``payload`` is what
    it applies then.  Scenario A's two wrappers also share ``active``: the
    ``write`` wrapper sets it from each USB packet's state byte and the
    ``recvfrom`` wrapper reads it.  ``payload`` may be ``None`` until the
    trigger arms (:attr:`PedalDownTrigger.armed`); it is never applied
    before the first active packet.
    """

    def __init__(self, trigger: PedalDownTrigger, payload=None) -> None:
        self.trigger = trigger
        self.payload = payload
        self.active = False


class _Wrapper:
    """One preloaded wrapper around the next function in the chain."""

    def __init__(
        self,
        next_fn: Callable,
        process: Process,
        injection: Injection,
        target_process: str,
    ) -> None:
        self.next_fn = next_fn
        self.process = process
        self.injection = injection
        self.target_process = target_process

    def _targets(self, data: bytes, size: int) -> bool:
        return self.process.name == self.target_process and len(data) == size


# ---------------------------------------------------------------------------
# Scenario B payloads
# ---------------------------------------------------------------------------


class DacOffsetInjection:
    """Add ``offset_counts`` to one DAC channel of the USB packet."""

    def __init__(self, offset_counts: int, channel: int = 0) -> None:
        if not (0 <= channel < constants.USB_NUM_CHANNELS):
            raise AttackConfigError(f"bad DAC channel {channel}")
        if offset_counts == 0:
            raise AttackConfigError("offset_counts must be non-zero")
        self.offset_counts = int(offset_counts)
        self.channel = channel

    def apply(self, data: bytes) -> bytes:
        """Return the modified packet bytes (checksum left stale)."""
        buf = bytearray(data)
        lo = constants.USB_DAC_OFFSET + 2 * self.channel
        value = int.from_bytes(buf[lo : lo + 2], "big", signed=True)
        value = max(_INT16_MIN, min(_INT16_MAX, value + self.offset_counts))
        buf[lo : lo + 2] = value.to_bytes(2, "big", signed=True)
        return bytes(buf)


class ByteCorruptionInjection:
    """Overwrite one raw (non-state) byte with a random value.

    The byte position and value are drawn once, at the first activation,
    and held for the whole burst — one corruption event, sustained over
    the activation period, exactly like the paper's "inject a random value
    (e.g., between 0 and 100) to one of the bytes".
    """

    def __init__(
        self,
        rng: np.random.Generator,
        byte_index: Optional[int] = None,
        value_range: Tuple[int, int] = (0, 100),
    ) -> None:
        if byte_index is not None and byte_index == constants.USB_STATE_BYTE:
            raise AttackConfigError(
                "corrupting the state byte would break the trigger"
            )
        self.rng = rng
        self.byte_index = byte_index
        self.value_range = value_range
        self._chosen_value: Optional[int] = None

    def apply(self, data: bytes) -> bytes:
        """Return the packet with the corrupted byte."""
        if self.byte_index is None:
            # Pick the high-order byte of one of the live DAC channels
            # (channels 0-2 drive the three modelled motors): a "random
            # value between 0 and 100" written there re-commands the motor
            # to up to ~25k counts, which is what makes the arm jump.
            channel = int(self.rng.integers(0, 3))
            self.byte_index = constants.USB_DAC_OFFSET + 2 * channel
        if self._chosen_value is None:
            self._chosen_value = int(
                self.rng.integers(self.value_range[0], self.value_range[1] + 1)
            )
        buf = bytearray(data)
        buf[self.byte_index] = self._chosen_value
        return bytes(buf)


class _InjectingWrite(_Wrapper):
    """Scenario B's ``write``: rewrites the DAC bytes while active."""

    def __call__(self, fd: int, data: bytes) -> int:
        if self._targets(data, constants.USB_PACKET_SIZE):
            injection = self.injection
            if injection.trigger.observe(data[constants.USB_STATE_BYTE]):
                data = injection.payload.apply(data)
        return self.next_fn(fd, data)


def build_scenario_b_library(
    trigger: PedalDownTrigger,
    payload,
    target_process: str = "r2_control",
    name: str = "libinject_b.so",
) -> SharedLibrary:
    """The deployment-phase library for scenario B (torque commands).

    The wrapper checks the process name and packet size, feeds Byte 0 to
    the trigger, and — while active — rewrites the DAC bytes before
    calling the original ``write``.  The library's ``state`` is the
    :class:`Injection` its wrapper shares.
    """
    injection = Injection(trigger, payload)
    library = SharedLibrary(name, state=injection)
    library.export(
        "write",
        partial(_InjectingWrite, injection=injection, target_process=target_process),
    )
    return library


# ---------------------------------------------------------------------------
# Scenario A payload + library
# ---------------------------------------------------------------------------


class UserInputInjection:
    """Add a position error to the operator's incremental commands.

    ``error_m`` metres are injected *per packet* along ``direction`` while
    the trigger is active, so the total commanded deviation grows with the
    activation period — matching the paper's observation that impact
    probability rises with both the injected error value and the period.
    """

    def __init__(
        self,
        error_m: float,
        direction: Optional[Sequence[float]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if error_m <= 0:
            raise AttackConfigError("error_m must be positive")
        self.error_m = float(error_m)
        if direction is None:
            rng = rng or np.random.default_rng(0)
            vec = rng.standard_normal(3)
        else:
            vec = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise AttackConfigError("direction must be non-zero")
        self.direction = vec / norm

    def apply(self, packet: ItpPacket) -> ItpPacket:
        """Return a copy of the console packet with the injected increment."""
        return ItpPacket(
            sequence=packet.sequence,
            pedal_down=packet.pedal_down,
            dpos=packet.dpos + self.error_m * self.direction,
            dquat=packet.dquat,
            mode=packet.mode,
        )


class _ObservingWrite(_Wrapper):
    """Scenario A's passive ``write``: feeds the trigger, changes nothing."""

    def __call__(self, fd: int, data: bytes) -> int:
        if self._targets(data, constants.USB_PACKET_SIZE):
            injection = self.injection
            injection.active = injection.trigger.observe(
                data[constants.USB_STATE_BYTE]
            )
        return self.next_fn(fd, data)


class _InjectingRecvfrom(_Wrapper):
    """Scenario A's ``recvfrom``: perturbs console packets while active."""

    def __call__(self, fd: int, max_bytes: int) -> Optional[bytes]:
        data = self.next_fn(fd, max_bytes)
        if (
            data is None
            or not self.injection.active
            or not self._targets(data, constants.ITP_PACKET_SIZE)
        ):
            return data
        try:
            packet = decode_itp(data)
        except (PacketError, ChecksumError):
            return data
        return encode_itp(self.injection.payload.apply(packet))


def build_scenario_a_library(
    trigger: PedalDownTrigger,
    payload: Optional[UserInputInjection],
    target_process: str = "r2_control",
    name: str = "libinject_a.so",
) -> SharedLibrary:
    """The deployment-phase library for scenario A (user inputs).

    Exports *two* wrappers: a passive ``write`` wrapper that feeds the
    Pedal-Down trigger from the USB side channel, and a ``recvfrom``
    wrapper that perturbs the parsed console packets while the trigger is
    active.  The modification happens after the control software has
    received (and checksum-validated) the datagram, modelling the paper's
    in-process corruption of user inputs; the re-encoded packet therefore
    carries a fresh valid checksum.  The library's ``state`` is the
    :class:`Injection` both wrappers share.
    """
    injection = Injection(trigger, payload)
    library = SharedLibrary(name, state=injection)
    for symbol, wrapper in (("write", _ObservingWrite), ("recvfrom", _InjectingRecvfrom)):
        library.export(
            symbol,
            partial(wrapper, injection=injection, target_process=target_process),
        )
    return library
