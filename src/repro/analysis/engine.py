"""The lint engine: collect files, parse or reuse summaries, run rules.

The engine never imports analyzed code — everything is derived from the
AST and the package structure on disk, so it can lint a broken tree and
runs identically on both CI interpreters (see :mod:`repro.analysis.compat`
for the version gating).

Since the whole-program layer landed, a run has two phases:

1. **Per file** — read, hash, and either reuse the cached summary +
   local findings (content sha and config fingerprint both match) or
   parse, run the local rules (RPR001–RPR004), and distill a summary.
2. **Project** — stitch all summaries into a
   :class:`~repro.analysis.graph.project.ProjectGraph` and run the
   interprocedural rules (RPR005, RPR006, RPR008) over it.  Project findings are
   recomputed every run (they depend on *other* files), which is the
   cheap part; parsing is what the cache avoids.

``diff`` narrows *reporting* to a set of changed files plus everything
that transitively imports them — the analysis itself still sees the
whole tree, so interprocedural findings stay exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.graph.cache import (
    CacheEntry,
    SummaryCache,
    config_fingerprint,
    content_sha,
)
from repro.analysis.graph.project import ProjectGraph
from repro.analysis.graph.summary import build_summary
from repro.analysis.rules import project_rules_for, rules_for
from repro.analysis.rules.base import ProjectRule, Rule
from repro.analysis.source import (
    ModuleSource,
    collect_py_files,
    display_path_for,
)
from repro.analysis.suppress import is_suppressed

logger = logging.getLogger(__name__)

#: Pseudo-rule id for files the engine could not parse.  Deliberately not
#: suppressible or baselineable: a syntax error means nothing else in the
#: file was checked.
PARSE_ERROR_RULE = "RPR000"


@dataclass
class AnalysisResult:
    """Outcome of one engine run."""

    #: Active findings (suppressions applied), sorted by location.
    findings: List[Finding] = field(default_factory=list)
    #: Findings waived by an inline ``# repro: allow[...]`` comment.
    suppressed: List[Finding] = field(default_factory=list)
    #: Unparseable files (``RPR000``), always active.
    parse_errors: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Display paths parsed this run (everything else came from cache).
    parsed: List[str] = field(default_factory=list)
    #: Files whose summary + local findings were served from cache.
    from_cache: int = 0
    #: Modules findings were narrowed to (``--diff``); None = full tree.
    scope: Optional[List[str]] = None

    @property
    def active(self) -> List[Finding]:
        """Everything that should gate: parse errors + live findings."""
        return sorted(
            self.parse_errors + self.findings, key=lambda f: f.sort_key
        )

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts


class AnalysisEngine:
    """Run the configured rules over a set of paths."""

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        rules: Optional[Sequence[Rule]] = None,
        project_rules: Optional[Sequence[ProjectRule]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG
        self.rules: List[Rule] = (
            list(rules) if rules is not None else rules_for(self.config)
        )
        self.project_rules: List[ProjectRule] = (
            list(project_rules)
            if project_rules is not None
            else project_rules_for(self.config)
        )
        self.cache = SummaryCache(
            Path(cache_dir) if cache_dir is not None else None
        )
        self._fingerprint = config_fingerprint(self.config)

    def analyze_paths(
        self,
        paths: Sequence[Union[str, Path]],
        display_root: Optional[Union[str, Path]] = None,
        diff: Optional[Sequence[Union[str, Path]]] = None,
    ) -> AnalysisResult:
        """Analyze every ``.py`` file under ``paths``.

        ``display_root`` relativizes reported paths (defaults to the
        current working directory when it contains the files).  ``diff``
        names changed files: reported findings are then restricted to
        those files' modules plus their transitive reverse importers.
        """
        root = Path(display_root) if display_root is not None else Path.cwd()
        result = AnalysisResult()
        summaries: Dict[str, Dict[str, Any]] = {}
        for file_path in collect_py_files([Path(p) for p in paths]):
            self._analyze_file(file_path, root, result, summaries)
        graph = ProjectGraph(summaries)
        self._run_project_rules(graph, result)
        if diff is not None:
            self._narrow_to_diff(graph, result, diff, root)
        result.findings.sort(key=lambda f: f.sort_key)
        result.suppressed.sort(key=lambda f: f.sort_key)
        return result

    # -- phase 1: per file ------------------------------------------------------

    def _analyze_file(
        self,
        path: Path,
        root: Path,
        result: AnalysisResult,
        summaries: Dict[str, Dict[str, Any]],
    ) -> None:
        display = display_path_for(path, root)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning("skipping unreadable file %s (%s)", path, exc)
            return
        result.files_scanned += 1
        sha = content_sha(text)
        cached = self.cache.load(display, sha, self._fingerprint)
        if cached is not None:
            summaries[cached.summary["module"]] = cached.summary
            result.findings.extend(cached.findings)
            result.suppressed.extend(cached.suppressed)
            result.from_cache += 1
            return
        try:
            module = ModuleSource.from_source(path, text, display_root=root)
        except SyntaxError as exc:
            result.parse_errors.append(
                Finding(
                    rule_id=PARSE_ERROR_RULE,
                    path=display,
                    module=display,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                    source=(exc.text or "").strip(),
                )
            )
            return
        result.parsed.append(display)
        entry = CacheEntry(summary=build_summary(module, self.config))
        self.analyze_module(module, result, entry)
        summaries[module.module] = entry.summary
        self.cache.store(display, sha, self._fingerprint, entry)

    def analyze_module(
        self,
        module: ModuleSource,
        result: AnalysisResult,
        entry: Optional[CacheEntry] = None,
    ) -> None:
        """Run every local rule over one parsed module."""
        for rule in self.rules:
            for finding in rule.check(module, self.config):
                if is_suppressed(
                    finding.rule_id, finding.line, module.suppressions
                ):
                    result.suppressed.append(finding)
                    if entry is not None:
                        entry.suppressed.append(finding)
                else:
                    result.findings.append(finding)
                    if entry is not None:
                        entry.findings.append(finding)

    # -- phase 2: whole program -------------------------------------------------

    def _run_project_rules(
        self, graph: ProjectGraph, result: AnalysisResult
    ) -> None:
        for rule in self.project_rules:
            for finding in rule.check_project(graph, self.config):
                suppressions = graph.suppressions_for(finding.module)
                if is_suppressed(finding.rule_id, finding.line, suppressions):
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)

    def _narrow_to_diff(
        self,
        graph: ProjectGraph,
        result: AnalysisResult,
        diff: Sequence[Union[str, Path]],
        root: Path,
    ) -> None:
        path_to_module = {
            summ["path"]: mod for mod, summ in graph.summaries.items()
        }
        changed: Set[str] = set()
        changed_paths: Set[str] = set()
        for raw in diff:
            display = display_path_for(Path(raw), root)
            changed_paths.add(display)
            module = path_to_module.get(display)
            if module is not None:
                changed.add(module)
        scope = graph.importers_of(changed)
        scope_paths = {
            summ["path"]
            for mod, summ in graph.summaries.items()
            if mod in scope
        } | changed_paths
        result.scope = sorted(scope)
        result.findings = [
            f for f in result.findings if f.module in scope
        ]
        result.suppressed = [
            f for f in result.suppressed if f.module in scope
        ]
        result.parse_errors = [
            f for f in result.parse_errors if f.path in scope_paths
        ]
