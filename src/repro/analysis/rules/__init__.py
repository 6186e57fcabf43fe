"""Rule registry for the domain-invariant lint engine.

Two tiers: *local* rules (RPR001–RPR004) see one parsed module at a
time; *project* rules (RPR005, RPR006, RPR008) run once over the stitched
:class:`~repro.analysis.graph.project.ProjectGraph` after every file has
a summary.
"""

from __future__ import annotations

from typing import Dict, List, Type, Union

from repro.analysis.config import AnalysisConfig
from repro.analysis.rules.base import ProjectRule, Rule
from repro.analysis.rules.constants_lint import MagicNumberRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.guard_bypass import GuardBypassRule
from repro.analysis.rules.lifecycle import LifecycleRule
from repro.analysis.rules.pool_safety import PoolSafetyRule
from repro.analysis.rules.quarantine import QuarantineRule
from repro.analysis.rules.safety_path import SafetyPathRule

#: Every per-file rule family, in id order.
ALL_RULES: List[Type[Rule]] = [
    GuardBypassRule,
    DeterminismRule,
    MagicNumberRule,
    PoolSafetyRule,
]

#: Every whole-program rule family, in id order.
ALL_PROJECT_RULES: List[Type[ProjectRule]] = [
    SafetyPathRule,
    LifecycleRule,
    QuarantineRule,
]

#: Id -> class lookup across both tiers.
RULES_BY_ID: Dict[str, Union[Type[Rule], Type[ProjectRule]]] = {
    rule.rule_id: rule for rule in ALL_RULES
}
RULES_BY_ID.update({rule.rule_id: rule for rule in ALL_PROJECT_RULES})


def rules_for(config: AnalysisConfig) -> List[Rule]:
    """Instances of the local rules enabled by ``config``, in id order."""
    return [
        rule_cls()
        for rule_cls in ALL_RULES
        if rule_cls.rule_id in config.enabled_rules
    ]


def project_rules_for(config: AnalysisConfig) -> List[ProjectRule]:
    """Instances of the project rules enabled by ``config``, in id order."""
    return [
        rule_cls()
        for rule_cls in ALL_PROJECT_RULES
        if rule_cls.rule_id in config.enabled_rules
    ]


__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "RULES_BY_ID",
    "ProjectRule",
    "Rule",
    "project_rules_for",
    "rules_for",
    "GuardBypassRule",
    "DeterminismRule",
    "MagicNumberRule",
    "PoolSafetyRule",
    "SafetyPathRule",
    "LifecycleRule",
    "QuarantineRule",
]
