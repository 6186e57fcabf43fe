"""Every source file parses as Python 3.9, the oldest supported version.

``pyproject.toml`` declares ``requires-python = ">=3.9"`` and CI's tier-1
matrix runs 3.9, while development hosts often run a newer interpreter.
``ast.parse(..., feature_version=(3, 9))`` rejects most grammar added
later, such as ``match`` and ``except*`` (not parenthesized context
managers, which the newer parser accepts regardless).  Two 3.10 keyword
arguments parse on any version and only fail when called, so they are
looked for by name: ``zip(strict=...)`` and ``dataclass(slots=...)`` /
``dataclass(kw_only=...)``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for top in ("src", "tests", "benchmarks")
    for path in (ROOT / top).rglob("*.py")
)

#: Keyword arguments that a callee only accepts from Python 3.10 on.
NEWER_KEYWORDS = {"zip": {"strict"}, "dataclass": {"slots", "kw_only"}}


def _callee(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _problems(path: Path) -> list:
    try:
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 9))
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    return [
        f"line {node.lineno}: {_callee(node)}({keyword.arg}=...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg in NEWER_KEYWORDS.get(_callee(node), ())
    ]


def test_every_file_parses_as_python_39():
    assert len(FILES) > 100
    problems = {
        str(path.relative_to(ROOT)): found
        for path in FILES
        for found in [_problems(path)]
        if found
    }
    assert not problems, f"3.10+ syntax or keywords: {problems}"
