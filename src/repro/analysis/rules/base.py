"""Rule protocol and the shared AST plumbing every rule family uses."""

from __future__ import annotations

import abc
import ast
from typing import TYPE_CHECKING, ClassVar, Dict, Iterator, List, Optional, Set

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.source import ModuleSource

if TYPE_CHECKING:  # imported lazily to avoid a base→graph→base cycle
    from repro.analysis.graph.project import ProjectGraph


class Rule(abc.ABC):
    """One rule family (RPR001..RPR004)."""

    rule_id: ClassVar[str]
    summary: ClassVar[str]

    @abc.abstractmethod
    def check(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.rule_id,
            path=module.display_path,
            module=module.module,
            line=lineno,
            col=col,
            message=message,
            source=module.line_text(lineno),
        )


class ProjectRule(abc.ABC):
    """One whole-program rule family (RPR005, RPR006, RPR008).

    Project rules run after every file has a summary; they see the
    stitched :class:`~repro.analysis.graph.project.ProjectGraph` instead
    of a single module, and anchor findings with the line/col/source
    text embedded in the summaries (so cached passes need no re-read).
    """

    rule_id: ClassVar[str]
    summary: ClassVar[str]

    @abc.abstractmethod
    def check_project(
        self, graph: "ProjectGraph", config: AnalysisConfig
    ) -> Iterator[Finding]:
        """Yield every violation of this rule across the project."""

    def finding_at(
        self,
        graph: "ProjectGraph",
        module: str,
        line: int,
        col: int,
        source: str,
        message: str,
    ) -> Finding:
        """Build a finding anchored at a summary-recorded location."""
        return Finding(
            rule_id=self.rule_id,
            path=graph.path_for(module) or module,
            module=module,
            line=line,
            col=col,
            message=message,
            source=source,
        )


# ---------------------------------------------------------------------------
# Name and attribute-chain helpers
# ---------------------------------------------------------------------------


def attribute_chain(node: ast.expr) -> Optional[List[str]]:
    """``["np", "random", "rand"]`` for ``np.random.rand``; ``None`` when
    the chain bottoms out in anything but a bare name."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


def root_name(node: ast.expr) -> Optional[str]:
    """Leftmost bare name of an attribute/subscript chain, if any."""
    current: ast.expr = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


class ImportMap:
    """Local alias -> fully dotted path, from a module's import statements.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``; function-level
    imports count the same as top-level ones (the engine never executes
    anything, it only needs name provenance).
    """

    def __init__(self, module: ModuleSource) -> None:
        self.aliases: Dict[str, str] = {}
        package = module.module.rsplit(".", 1)[0] if "." in module.module else ""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    prefix_parts = package.split(".") if package else []
                    cut = node.level - 1
                    if cut:
                        prefix_parts = prefix_parts[:-cut] if cut <= len(prefix_parts) else []
                    prefix = ".".join(prefix_parts)
                    base = f"{prefix}.{base}".strip(".") if base else prefix
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{base}.{alias.name}".strip(".")

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Fully qualified dotted name of ``node``, or ``None``.

        ``np.random.rand`` resolves to ``numpy.random.rand`` when ``np``
        aliases ``numpy``; chains rooted in locals resolve to ``None``.
        """
        chain = attribute_chain(node)
        if not chain:
            return None
        target = self.aliases.get(chain[0])
        if target is None:
            return None
        return ".".join([target] + chain[1:])


# ---------------------------------------------------------------------------
# Process-pool call-site helpers (shared by RPR002 and RPR004)
# ---------------------------------------------------------------------------


def pool_entry_call(call: ast.Call, config: AnalysisConfig) -> bool:
    """Whether ``call`` hands work to the process-pool layer."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in config.pool_entry_points
    if isinstance(func, ast.Attribute):
        return func.attr in config.pool_entry_points
    return False


def pool_worker_arg(call: ast.Call) -> Optional[ast.expr]:
    """The callable argument of a pool entry call (``worker=`` or first)."""
    for keyword in call.keywords:
        if keyword.arg == "worker":
            return keyword.value
    if call.args:
        return call.args[0]
    return None


def names_in_args(call: ast.Call) -> Set[str]:
    """Bare variable names passed to ``call`` (positionally or by kwarg)."""
    named: Set[str] = set()
    for arg in call.args:
        if isinstance(arg, ast.Name):
            named.add(arg.id)
    for keyword in call.keywords:
        if isinstance(keyword.value, ast.Name):
            named.add(keyword.value.id)
    return named
