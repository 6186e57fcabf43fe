"""RPR004 — picklable-by-construction process-pool submissions.

``iter_tasks``/``run_tasks`` — and ``CampaignRunner``, which fans out
through them — execute their worker on a ``ProcessPoolExecutor``: the
worker must pickle.  A nested function, a locally bound lambda, or a
``functools.partial`` over either runs in the in-process loop
(``jobs=1``) and then explodes — or silently never runs in parallel — in
production.  This rule rejects such workers
at the submission site, wherever it appears.

Lambdas written *inline* at the call site are RPR002's finding inside the
golden-trace-critical packages; outside them this rule reports the same
shape so exactly one rule fires for any given site.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.compat import flatten_statements
from repro.analysis.config import AnalysisConfig, module_matches
from repro.analysis.findings import Finding
from repro.analysis.rules.base import (
    Rule,
    pool_entry_call,
    pool_worker_arg,
)
from repro.analysis.source import ModuleSource


class PoolSafetyRule(Rule):
    """Workers crossing the pool must be module-level callables."""

    rule_id = "RPR004"
    summary = (
        "closures, nested functions, or locally bound lambdas submitted "
        "to the process-pool layer"
    )

    def check(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        lambda_covered_by_rpr002 = module_matches(
            module.module, config.deterministic_packages
        )
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_callables = self._local_callables(func)
            for stmt in flatten_statements(func.body):
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    if not pool_entry_call(call, config):
                        continue
                    worker = pool_worker_arg(call)
                    if worker is None:
                        continue
                    for found in self._check_worker(
                        module,
                        call,
                        worker,
                        local_callables,
                        lambda_covered_by_rpr002,
                    ):
                        yield found

    def _local_callables(self, func: ast.AST) -> Set[str]:
        """Names bound to nested defs or lambdas in ``func``'s body."""
        names: Set[str] = set()
        for stmt in flatten_statements(
            func.body  # type: ignore[attr-defined]
        ):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Lambda
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _check_worker(
        self,
        module: ModuleSource,
        call: ast.Call,
        worker: ast.expr,
        local_callables: Set[str],
        lambda_covered_by_rpr002: bool,
    ) -> Iterator[Finding]:
        if isinstance(worker, ast.Lambda) and not lambda_covered_by_rpr002:
            yield self.finding(
                module,
                call,
                "lambda submitted to the process pool cannot be pickled; "
                "use a module-level function",
            )
        elif isinstance(worker, ast.Name) and worker.id in local_callables:
            yield self.finding(
                module,
                call,
                f"worker '{worker.id}' is a nested function or local "
                "lambda: it cannot be pickled across the process pool; "
                "hoist it to module level",
            )
        elif isinstance(worker, ast.Call):
            # functools.partial over a local callable or lambda.
            inner = worker.args[0] if worker.args else None
            if isinstance(inner, ast.Lambda) or (
                isinstance(inner, ast.Name) and inner.id in local_callables
            ):
                yield self.finding(
                    module,
                    call,
                    "worker wraps a nested function or lambda: the "
                    "wrapped callable cannot be pickled across the "
                    "process pool; hoist it to module level",
                )
