"""Process model: file descriptors and the syscall entry points.

A :class:`Process` mimics a user-space program: it owns a file-descriptor
table mapping small integers to :class:`DeviceFile` objects (USB interface
boards, UDP sockets, log files...) and calls ``write``/``read``/``recvfrom``
through its *resolved symbol table* — which the dynamic linker may have
pointed at malicious preloaded wrappers instead of the real implementations.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from repro.errors import SyscallError


class DeviceFile(Protocol):
    """Anything that can sit behind a file descriptor."""

    def fd_write(self, data: bytes) -> int:
        """Handle a ``write``; returns the number of bytes consumed."""
        ...

    def fd_read(self, max_bytes: int) -> bytes:
        """Handle a ``read``; returns up to ``max_bytes`` bytes."""
        ...


class Process:
    """A user-space process issuing system calls through resolved symbols.

    Symbols are resolved by the :class:`~repro.sysmodel.linker.DynamicLinker`
    at "exec time" (:meth:`relink`); until then the process uses the real
    implementations.  This mirrors the paper's observation that the malware
    affects *future* processes (new terminals after ``.bashrc`` sets
    ``LD_PRELOAD``), not already-running ones.
    """

    _next_pid = 1000

    def __init__(self, name: str) -> None:
        self.name = name
        self.pid = Process._next_pid
        Process._next_pid += 1
        self._fds: Dict[int, DeviceFile] = {}
        self._next_fd = 3  # 0-2 reserved, as on a real system
        self._symbols: Dict[str, Callable] = {}
        from repro.sysmodel.syscalls import real_syscalls

        self._symbols = real_syscalls(self)

    # -- file descriptors -----------------------------------------------------

    def open_device(self, device: DeviceFile) -> int:
        """Attach a device and return its new file descriptor."""
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = device
        return fd

    def close(self, fd: int) -> None:
        """Detach a file descriptor."""
        if fd not in self._fds:
            raise SyscallError(f"close: bad file descriptor {fd}")
        del self._fds[fd]

    def device(self, fd: int) -> DeviceFile:
        """The device behind ``fd`` (raises on bad descriptors)."""
        try:
            return self._fds[fd]
        except KeyError:
            raise SyscallError(f"bad file descriptor {fd}") from None

    # -- symbol table ---------------------------------------------------------

    def set_symbol(self, name: str, fn: Callable) -> None:
        """Install a resolved symbol (done by the dynamic linker)."""
        self._symbols[name] = fn

    def symbol(self, name: str) -> Callable:
        """Look up a resolved symbol."""
        try:
            return self._symbols[name]
        except KeyError:
            raise SyscallError(f"undefined symbol {name!r}") from None

    def relink(self, linker: "DynamicLinker") -> None:  # noqa: F821
        """Re-resolve all syscall symbols through ``linker`` (process start)."""
        linker.link(self)

    # -- syscall entry points ---------------------------------------------------

    def write(self, fd: int, data: bytes) -> int:
        """``write(2)`` through the resolved symbol (possibly wrapped)."""
        return self._symbols["write"](fd, data)

    def read(self, fd: int, max_bytes: int) -> bytes:
        """``read(2)`` through the resolved symbol (possibly wrapped)."""
        return self._symbols["read"](fd, max_bytes)

    def recvfrom(self, fd: int, max_bytes: int) -> Optional[bytes]:
        """``recvfrom(2)`` through the resolved symbol (possibly wrapped).

        Returns ``None`` when no datagram is pending (non-blocking).
        """
        return self._symbols["recvfrom"](fd, max_bytes)
