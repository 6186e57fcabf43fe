"""RPR001 — guard bypass and TOCTOU windows on the DAC write path.

The paper's scenario-B attack injects corrupted DAC commands *after* the
software safety checks; the detector closes that gap by being the last
computational component before the motor controllers.  This rule proves
the same discipline at the code level:

1. **Sink confinement** — no module outside the sanctioned set may call
   a DAC sink (``latch``/``_latch``) directly; everything else must go
   through ``UsbBoard.fd_write``, where the guard hook runs.
2. **Hook confinement** — installing or replacing ``guard``/``dac_fault``
   hooks on another object is reserved to the pipeline and the phys-fault
   seam (``self.<attr> = ...`` definition sites are exempt, as is any
   module in the allowlist).  ``setattr`` spelling is caught too.
3. **TOCTOU window** — inside any function, once a value has been passed
   to a guard check (a call through a ``guard`` attribute or variable),
   mutating or rebinding that value afterwards re-opens the
   check-then-act gap and is rejected wherever it appears.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.compat import flatten_statements
from repro.analysis.config import AnalysisConfig, module_matches
from repro.analysis.findings import Finding
from repro.analysis.rules.base import (
    Rule,
    attribute_chain,
    names_in_args,
    root_name,
)
from repro.analysis.source import ModuleSource

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "clear",
        "update",
        "setdefault",
        "remove",
        "sort",
        "reverse",
        "fill",
    }
)


def _assignment_targets(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


class GuardBypassRule(Rule):
    """DAC sinks reached only through guard-approved paths."""

    rule_id = "RPR001"
    summary = (
        "DAC sink calls, guard-hook installs, and post-guard-check "
        "mutations outside the sanctioned modules"
    )

    def check(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        sink_exempt = module_matches(
            module.module, config.dac_sink_allowed_modules
        )
        hook_exempt = module_matches(
            module.module, config.guard_hook_allowed_modules
        )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if not sink_exempt:
                    for found in self._check_sink_call(module, node, config):
                        yield found
                if not hook_exempt:
                    for found in self._check_setattr(module, node, config):
                        yield found
            elif not hook_exempt and isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ):
                for found in self._check_hook_assign(module, node, config):
                    yield found

        for found in self._check_toctou(module, config):
            yield found

    # -- 1: sink confinement ------------------------------------------------------

    def _check_sink_call(
        self, module: ModuleSource, call: ast.Call, config: AnalysisConfig
    ) -> Iterator[Finding]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in config.dac_sink_attrs:
            yield self.finding(
                module,
                call,
                f"direct DAC sink call '.{func.attr}(...)' outside the "
                "guarded write path; route commands through "
                "UsbBoard.fd_write so the detector guard sees them",
            )

    # -- 2: hook confinement ------------------------------------------------------

    def _check_hook_assign(
        self, module: ModuleSource, stmt: ast.stmt, config: AnalysisConfig
    ) -> Iterator[Finding]:
        for target in _assignment_targets(stmt):
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr not in config.guard_hook_attrs:
                continue
            # ``self.guard = ...`` is the owning object's definition
            # site, not a cross-component (re)install.
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                continue
            yield self.finding(
                module,
                stmt,
                f"'{target.attr}' hook installed outside the sanctioned "
                "modules; only repro.core.pipeline (and the phys-fault "
                "seam) may wire or replace actuation-path hooks",
            )

    def _check_setattr(
        self, module: ModuleSource, call: ast.Call, config: AnalysisConfig
    ) -> Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Name) and func.id == "setattr"):
            return
        if len(call.args) < 2:
            return
        name = call.args[1]
        if (
            isinstance(name, ast.Constant)
            and isinstance(name.value, str)
            and name.value in config.guard_hook_attrs
        ):
            yield self.finding(
                module,
                call,
                f"setattr(..., '{name.value}', ...) installs an "
                "actuation-path hook outside the sanctioned modules",
            )

    # -- 3: TOCTOU window ---------------------------------------------------------

    def _guard_checks(
        self, func: ast.AST, config: AnalysisConfig
    ) -> List[Tuple[int, Set[str]]]:
        """``(line, checked names)`` for every guard-check call in ``func``."""
        checks: List[Tuple[int, Set[str]]] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if not chain:
                continue
            if any(part in config.guard_call_names for part in chain):
                names = names_in_args(node)
                if names:
                    checks.append((node.lineno, names))
        return checks

    def _check_toctou(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            checks = self._guard_checks(func, config)
            if not checks:
                continue
            reported: Set[Tuple[int, str]] = set()
            for stmt in flatten_statements(func.body):
                for lineno, name in self._mutations(stmt):
                    for check_line, checked in checks:
                        if lineno <= check_line or name not in checked:
                            continue
                        key = (lineno, name)
                        if key in reported:
                            continue
                        reported.add(key)
                        yield self.finding(
                            module,
                            stmt,
                            f"'{name}' is mutated after it passed the "
                            "guard check (TOCTOU window): the approved "
                            "value no longer matches the executed one",
                        )
                        break

    def _mutations(self, stmt: ast.stmt) -> Iterator[Tuple[int, str]]:
        """``(line, variable)`` pairs this statement mutates or rebinds."""
        for target in _assignment_targets(stmt):
            if isinstance(target, ast.Name):
                yield stmt.lineno, target.id
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                name = root_name(target)
                if name is not None:
                    yield stmt.lineno, name
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        yield stmt.lineno, element.id
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                name = root_name(func.value)
                if name is not None:
                    yield stmt.lineno, name
