"""repro.lint — determinism & benchmark-conformance static analysis.

Graphalytics' validity rests on invariants no unit test can observe
from the outside: the six kernels must be deterministic (paper §2.2),
vertex programs must respect the Pregel/GAS state contract, and
reported numbers must come from the metered §2.3 metric
implementations. This package enforces those invariants as an
AST-based lint pass over the repro sources:

    >>> from repro.lint import LintConfig, LintEngine, find_project_root
    >>> engine = LintEngine(LintConfig(root=find_project_root()))
    >>> findings = engine.run(["src/repro"])

Exposed on the command line as ``graphalytics lint`` (exit code 1 on
any finding; ``# lint: disable=`` comments are the one way to
grandfather one) and as the ``lint`` probe of ``graphalytics
selfcheck``. See ``docs/lint.md``.
"""

from repro.lint.config import LintConfig, find_project_root
from repro.lint.core import (
    Finding,
    LintEngine,
    Module,
    Rule,
    Severity,
    all_rules,
    register_rule,
)
from repro.lint.project import ProjectModel
from repro.lint.report import render_json, render_text

__all__ = [
    "Finding",
    "LintEngine",
    "LintConfig",
    "Module",
    "Rule",
    "Severity",
    "all_rules",
    "register_rule",
    "find_project_root",
    "ProjectModel",
    "render_text",
    "render_json",
]
