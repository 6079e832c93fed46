"""repro.analysis — the project's own static-analysis pass (repro-lint).

An AST-based lint framework purpose-built for this codebase's
reproducibility invariants: seeded RNG only, no stray wall-clock
reads, atomic writes, registry-resolved engines, registered event
types, no process pools, no float equality in the math,
no mutable defaults in public APIs.  See ``docs/determinism.md`` for
the full catalogue and rationale.

Run it as ``python -m repro.analysis src/`` or via the ``repro-lint``
console script; ``--format json`` for machines, ``--baseline`` to keep
a gate green over grandfathered findings.
"""

from .baseline import Baseline
from .config import LintConfig
from .graph import FactsCache, FileFacts, ProjectGraph, extract_facts
from .pragmas import PragmaIndex
from .project_rules import ALL_PROJECT_RULES, ProjectRule
from .report import render_json, render_sarif, render_text
from .rules import ALL_RULES, Rule, RuleVisitor, rules_by_code
from .runner import (
    LintResult,
    all_rule_classes,
    lint_paths,
    lint_source,
    select_rules,
)
from .sources import ModuleSource, iter_python_files, normalize_path
from .violations import Violation

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "Baseline",
    "FactsCache",
    "FileFacts",
    "LintConfig",
    "LintResult",
    "ModuleSource",
    "PragmaIndex",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "RuleVisitor",
    "Violation",
    "all_rule_classes",
    "extract_facts",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "normalize_path",
    "render_json",
    "render_sarif",
    "render_text",
    "rules_by_code",
    "select_rules",
]
