"""Real (un-wrapped) system-call implementations.

Each real syscall dispatches to the :class:`~repro.sysmodel.process.DeviceFile`
behind the file descriptor.  The dynamic linker chains preloaded wrappers
*in front of* these functions, so a wrapper receives the next function in
the chain exactly like a real ``LD_PRELOAD`` wrapper obtains the original
via ``dlsym(RTLD_NEXT, ...)``.

The implementations are bound methods of a :class:`RealSyscalls` object,
not closures, so a deep copy of a linked process (as made by
:meth:`repro.sim.rig.SurgicalRig.fork`) rebinds them to the copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import SyscallError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sysmodel.process import Process

#: Names of the runtime-library calls the linker knows how to interpose.
SYSCALL_NAMES = ("write", "read", "recvfrom")


class RealSyscalls:
    """The un-wrapped syscalls of one process."""

    def __init__(self, process: "Process") -> None:
        self.process = process

    def write(self, fd: int, data: bytes) -> int:
        if not isinstance(data, (bytes, bytearray)):
            raise SyscallError("write expects bytes")
        return self.process.device(fd).fd_write(bytes(data))

    def read(self, fd: int, max_bytes: int) -> bytes:
        return self.process.device(fd).fd_read(max_bytes)

    def recvfrom(self, fd: int, max_bytes: int) -> Optional[bytes]:
        device = self.process.device(fd)
        recv = getattr(device, "fd_recvfrom", None)
        if recv is None:
            raise SyscallError(
                f"fd {fd} ({type(device).__name__}) is not a socket"
            )
        return recv(max_bytes)


def real_syscalls(process: "Process") -> Dict[str, Callable]:
    """Build the un-wrapped symbol table for ``process``."""
    real = RealSyscalls(process)
    return {"write": real.write, "read": real.read, "recvfrom": real.recvfrom}
