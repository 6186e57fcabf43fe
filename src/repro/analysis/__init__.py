"""Domain-invariant static analysis for the repro tree.

This package is a small AST-walking lint engine that encodes invariants
the paper's safety argument depends on but ordinary linters cannot see:

``RPR001``
    Guard bypass and TOCTOU: only the sanctioned pipeline modules may
    reach the DAC sink (``UsbBoard._latch`` and friends) or install guard
    hooks, and a command object must not be mutated between the guard
    check and actuation.
``RPR002``
    Determinism: no wall clocks, unseeded RNG, legacy numpy RNG, raw
    ``os.environ`` access, or lambdas crossing the process pool inside
    the golden-trace-critical packages.
``RPR003``
    Magic safety numbers: thresholds in the safety/detector/dynamics
    modules must be named in ``repro.constants`` or as dataclass
    defaults, never inlined.
``RPR004``
    Pool safety: workers submitted to the engine's ``iter_tasks`` /
    ``run_tasks`` (through which ``CampaignRunner`` fans out) must be
    picklable by construction (module-level callables).

On top of the per-file tier, the whole-program layer
(:mod:`repro.analysis.graph`) stitches every file's summary into a
project graph — symbol table, class hierarchy, call edges, per-function
CFG dominance — still without importing analyzed code, and runs the
interprocedural families:

``RPR005``
    Safety-path dominance: every statically resolvable call path from a
    telemetry/packet ingest entry point to a DAC sink passes the
    detector gate, and sinks inside gate functions sit below the gate
    in the CFG.
``RPR006``
    State-lifecycle completeness: classes exposing snapshot/restore/
    reset, or a batched estimator's lane copies (``copy_lane_into`` /
    ``load_lane_from``), cover every mutable ``__init__`` attribute
    (fleet resume bit-identity depends on it).
``RPR008``
    Quarantine discipline: lane-path exceptions re-raise or reach a
    quarantine boundary; integrity errors are never swallowed broadly.

No rule makes a ``Batched*`` class mirror its scalar class: the batched
classes carry only what their callers run, and property tests pin each
against its scalar class byte for byte.

Run it with ``python -m repro.analysis [--check] [paths...]``; waive a
single line with ``# repro: allow[RPR00x]``; grandfather accepted debt
with ``--baseline-update``.  Warm runs reuse per-file summaries cached
under ``.cache/analysis`` (keyed by content sha + config fingerprint);
``--diff`` narrows reporting to changed files and their reverse
importers.
"""

from __future__ import annotations

from repro.analysis.baseline import load_baseline, partition, save_baseline
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.engine import (
    PARSE_ERROR_RULE,
    AnalysisEngine,
    AnalysisResult,
)
from repro.analysis.findings import Finding
from repro.analysis.graph import (
    ControlFlowGraph,
    ProjectGraph,
    SummaryCache,
    build_summary,
)
from repro.analysis.rules import (
    ALL_PROJECT_RULES,
    ALL_RULES,
    RULES_BY_ID,
    project_rules_for,
    rules_for,
)

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "AnalysisConfig",
    "AnalysisEngine",
    "AnalysisResult",
    "ControlFlowGraph",
    "DEFAULT_CONFIG",
    "Finding",
    "PARSE_ERROR_RULE",
    "ProjectGraph",
    "RULES_BY_ID",
    "SummaryCache",
    "build_summary",
    "load_baseline",
    "partition",
    "project_rules_for",
    "rules_for",
    "save_baseline",
]
