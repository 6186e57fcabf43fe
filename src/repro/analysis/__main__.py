"""Command-line entry point: ``python -m repro.analysis``.

Exit codes: 0 when every finding is baselined or suppressed, 1 when new
findings (or parse errors) exist and ``--check`` is set, 2 on usage or
baseline-file errors.  Without ``--check`` the run always exits 0 so the
report can be browsed without failing a shell pipeline.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    partition,
    save_baseline,
)
from repro.analysis.engine import AnalysisEngine
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_PROJECT_RULES, ALL_RULES
from repro.analysis.sarif import render_sarif

DEFAULT_BASELINE = "analysis_baseline.json"
DEFAULT_CACHE_DIR = ".cache/analysis"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Domain-invariant static analysis for the repro tree: guard "
            "bypass/TOCTOU (RPR001), determinism (RPR002), magic safety "
            "numbers (RPR003), pool picklability (RPR004), and the "
            "whole-program families: safety-path dominance (RPR005), "
            "lifecycle completeness (RPR006), quarantine discipline "
            "(RPR008)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when non-baselined findings exist",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of text",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="additionally write the gating findings as SARIF 2.1.0",
    )
    parser.add_argument(
        "--diff",
        metavar="REV_OR_PATH",
        action="append",
        help=(
            "restrict reported findings to changed files and their "
            "reverse dependencies; each value is a changed file path or "
            "a git revision to diff the worktree against (repeatable)"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file to match against (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--baseline-update",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=(
            "per-file summary cache directory "
            f"(default: {DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="parse everything fresh; do not read or write the cache",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> str:
    return "\n".join(
        f"{rule.rule_id}  {rule.summary}"
        for rule in list(ALL_RULES) + list(ALL_PROJECT_RULES)
    )


def _git_changed_files(rev: str) -> Optional[List[str]]:
    """Paths changed against ``rev`` per git, or None when git fails."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", rev, "--", "*.py"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return [line for line in proc.stdout.splitlines() if line.strip()]


def _resolve_diff_spec(specs: List[str]) -> Optional[List[str]]:
    """Changed files named by ``--diff`` values (paths or git revisions)."""
    changed: List[str] = []
    for spec in specs:
        if Path(spec).exists():
            changed.append(spec)
            continue
        from_git = _git_changed_files(spec)
        if from_git is None:
            print(
                f"error: --diff {spec!r} is neither a file nor a "
                "resolvable git revision",
                file=sys.stderr,
            )
            return None
        changed.extend(from_git)
    return changed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(missing)}", file=sys.stderr
        )
        return 2

    diff: Optional[List[str]] = None
    if args.diff:
        diff = _resolve_diff_spec(args.diff)
        if diff is None:
            return 2

    cache_dir: Optional[Union[str, Path]] = (
        None if args.no_cache else args.cache_dir
    )
    engine = AnalysisEngine(cache_dir=cache_dir)
    result = engine.analyze_paths(args.paths, diff=diff)

    if args.baseline_update:
        save_baseline(args.baseline, result.findings)
        print(
            f"baseline {args.baseline} updated with "
            f"{len(result.findings)} finding(s)"
        )
        # Parse errors are never baselined; surface them even here.
        for finding in result.parse_errors:
            print(finding.format(), file=sys.stderr)
        return 1 if result.parse_errors else 0

    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    new, grandfathered = partition(result.findings, baseline)
    # Parse errors always gate: nothing in the file was checked.
    new = sorted(new + result.parse_errors, key=lambda f: f.sort_key)

    if args.sarif:
        Path(args.sarif).write_text(render_sarif(new), encoding="utf-8")

    if args.json:
        print(render_json(result, new, grandfathered))
    else:
        print(render_text(result, new, grandfathered))

    if args.check and new:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
