"""LD_PRELOAD-style dynamic linking.

A :class:`SharedLibrary` exports *wrapper factories*: for a symbol name
like ``"write"`` it provides a factory that, given the next function in the
resolution chain (the ``dlsym(RTLD_NEXT, ...)`` result) and the process
being linked, returns the replacement function.

The :class:`SystemEnvironment` models the two preload mechanisms the paper
describes:

- ``LD_PRELOAD`` in a *user's* startup profile (``.bashrc``) — affects new
  processes started by that user (no root needed);
- ``/etc/ld.so.preload`` — affects new processes of *every* user (root).

Only processes (re)linked after the preload entry is added pick up the
wrappers, mirroring real loader behaviour.

Factories and the wrappers they return should be plain objects (classes,
bound methods, :func:`functools.partial`), not closures: ``copy.deepcopy``
treats a function as atomic, so a deep-copied process would keep calling
closures bound to the original's devices and attack state.  The rigs that
:meth:`repro.sim.rig.SurgicalRig.fork` copies rely on this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import LinkerError
from repro.sysmodel.process import Process
from repro.sysmodel.syscalls import SYSCALL_NAMES, real_syscalls

#: A wrapper factory: (next_fn, process) -> replacement callable.
WrapperFactory = Callable[[Callable, Process], Callable]


class SharedLibrary:
    """A shared object exporting wrapper symbols.

    ``state`` is whatever the library's wrappers share (for the attack
    libraries, their :class:`repro.attacks.injection.Injection`), kept here
    for callers that adjust it after the library is deployed.
    """

    def __init__(self, name: str, state: Optional[object] = None) -> None:
        self.name = name
        self.state = state
        self._factories: Dict[str, WrapperFactory] = {}

    def export(self, symbol: str, factory: WrapperFactory) -> None:
        """Export ``symbol`` with the given wrapper factory.

        Raises
        ------
        LinkerError
            If the symbol name is not an interposable runtime call.
        """
        if symbol not in SYSCALL_NAMES:
            raise LinkerError(
                f"cannot interpose unknown symbol {symbol!r}; "
                f"known: {SYSCALL_NAMES}"
            )
        self._factories[symbol] = factory

    def exports(self) -> Dict[str, WrapperFactory]:
        """Exported symbol -> factory mapping (copy)."""
        return dict(self._factories)

    def __repr__(self) -> str:
        return f"SharedLibrary({self.name!r}, exports={sorted(self._factories)})"


class SystemEnvironment:
    """LD_PRELOAD (per-user) and /etc/ld.so.preload (system-wide) state."""

    def __init__(self) -> None:
        self._user_preload: Dict[str, List[SharedLibrary]] = {}
        self._system_preload: List[SharedLibrary] = []

    def set_user_preload(self, user: str, library: SharedLibrary) -> None:
        """Append to ``user``'s LD_PRELOAD (as via ``.bashrc``; no root)."""
        self._user_preload.setdefault(user, []).append(library)

    def add_system_preload(self, library: SharedLibrary) -> None:
        """Append to ``/etc/ld.so.preload`` (requires root on a real box)."""
        self._system_preload.append(library)

    def clear_user_preload(self, user: str) -> None:
        """Remove the user's LD_PRELOAD entries (attack cleanup)."""
        self._user_preload.pop(user, None)

    def clear_system_preload(self) -> None:
        """Empty ``/etc/ld.so.preload``."""
        self._system_preload.clear()

    def preload_list(self, user: Optional[str]) -> List[SharedLibrary]:
        """Effective preload order for a process started by ``user``.

        ld.so honours ``/etc/ld.so.preload`` before ``LD_PRELOAD``.
        """
        libs = list(self._system_preload)
        if user is not None:
            libs.extend(self._user_preload.get(user, []))
        return libs


class DynamicLinker:
    """Resolves process symbols through the preload chain to the real code."""

    def __init__(self, environment: Optional[SystemEnvironment] = None) -> None:
        self.environment = environment or SystemEnvironment()

    def link(self, process: Process, user: Optional[str] = "surgeon") -> None:
        """Resolve all interposable symbols for ``process``.

        The chain is built back-to-front: the real function first, then each
        preloaded library's wrapper around it, so the *first* library in
        preload order is called first — matching ld.so.
        """
        real = real_syscalls(process)
        libraries = self.environment.preload_list(user)
        for symbol in SYSCALL_NAMES:
            fn = real[symbol]
            for library in reversed(libraries):
                factory = library.exports().get(symbol)
                if factory is not None:
                    fn = factory(fn, process)
            process.set_symbol(symbol, fn)

    def spawn(self, name: str, user: Optional[str] = "surgeon") -> Process:
        """Create and link a new process as started by ``user``."""
        process = Process(name)
        self.link(process, user=user)
        return process
