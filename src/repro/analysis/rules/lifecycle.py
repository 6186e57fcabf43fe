"""RPR006 — state-lifecycle completeness for snapshot/restore/reset.

The bug class behind PR 3's ``DetectorGuard.reset()`` leak, promoted to
an invariant: a class in the lifecycle scope that exposes a snapshot,
restore, or reset surface must account for every *mutable* attribute its
``__init__`` assigns.  Missing one silently breaks fleet resume
bit-identity — a checkpoint round-trip that loses a counter or a latch
is exactly the kind of divergence the paper's detector cannot see.

What counts as mutable state: attributes initialized from literals or
empty containers.  Attributes *derived* from constructor parameters or
other attributes are configuration and are exempt (the summary layer
marks them), as are wiring attributes matching the configured globs
(telemetry handles, board attachments).

"Accounted for" is a mention check, deliberately lenient: the attribute
name appearing as a ``self.X`` access or as an identifier-shaped string
(payload key) anywhere in the method family — snapshot∪restore checked
together, reset checked separately, each only when the class has it.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.analysis.config import AnalysisConfig, module_matches
from repro.analysis.findings import Finding
from repro.analysis.rules.base import ProjectRule

if TYPE_CHECKING:
    from repro.analysis.graph.project import ProjectGraph


class LifecycleRule(ProjectRule):
    rule_id = "RPR006"
    summary = "snapshot/restore/reset must cover every mutable __init__ attribute"

    def check_project(
        self, graph: "ProjectGraph", config: AnalysisConfig
    ) -> Iterator[Finding]:
        for qualified in sorted(graph.classes):
            module = graph.class_module[qualified]
            if not module_matches(module, config.lifecycle_scope):
                continue
            yield from self._check_class(graph, config, qualified, module)

    def _check_class(
        self,
        graph: "ProjectGraph",
        config: AnalysisConfig,
        qualified: str,
        module: str,
    ) -> Iterator[Finding]:
        snap_keys = self._family(
            graph,
            qualified,
            config.lifecycle_snapshot_methods
            + config.lifecycle_restore_methods,
        )
        reset_keys = self._family(
            graph, qualified, config.lifecycle_reset_methods
        )
        if not snap_keys and not reset_keys:
            return
        for attr in graph.classes[qualified]["attrs"]:
            name = attr["name"]
            if attr["derived"] or name.startswith("__"):
                continue
            if any(
                fnmatchcase(name, glob)
                for glob in config.lifecycle_wiring_attrs
            ):
                continue
            if snap_keys and not self._mentioned(graph, snap_keys, name):
                yield self.finding_at(
                    graph,
                    module,
                    attr["line"],
                    attr["col"],
                    attr["source"],
                    f"mutable attribute '{name}' of {qualified} is not "
                    f"covered by {self._describe(snap_keys)}",
                )
            if reset_keys and not self._mentioned(graph, reset_keys, name):
                yield self.finding_at(
                    graph,
                    module,
                    attr["line"],
                    attr["col"],
                    attr["source"],
                    f"mutable attribute '{name}' of {qualified} is not "
                    f"covered by {self._describe(reset_keys)}",
                )

    @staticmethod
    def _family(
        graph: "ProjectGraph", qualified: str, names: Tuple[str, ...]
    ) -> List[str]:
        keys = []
        for name in names:
            key = graph.method_key(qualified, name)
            if key is not None:
                keys.append(key)
        return keys

    @staticmethod
    def _mentioned(
        graph: "ProjectGraph", fn_keys: List[str], attr: str
    ) -> bool:
        stripped = attr.lstrip("_")
        for key in fn_keys:
            fn = graph.functions[key]
            if attr in fn["reads"]:
                return True
            if attr in fn["strings"] or stripped in fn["strings"]:
                return True
        return False

    @staticmethod
    def _describe(fn_keys: List[str]) -> str:
        names = sorted({key.rsplit(".", 1)[-1] for key in fn_keys})
        return "/".join(f"{n}()" for n in names)
