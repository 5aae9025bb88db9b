"""simlint: determinism & protocol-safety static analysis for the
reproduction.

The :mod:`~repro.analysis.simlint.core` engine and the per-file rules
SIM001–SIM010 (:mod:`~repro.analysis.simlint.rules`), run via ``python
-m repro lint``; each file is parsed and linted on its own.

See ``RULES.md`` in this package for the rule catalogue and
EXPERIMENTS.md for workflow documentation.
"""

from repro.analysis.simlint.core import (  # noqa: F401
    Finding,
    LintResult,
    ModuleUnderLint,
    Rule,
    all_rules,
    lint_module,
    lint_paths,
)
from repro.analysis.simlint.report import render_json, render_text  # noqa: F401

__all__ = [
    "Finding", "LintResult", "ModuleUnderLint", "Rule",
    "all_rules", "lint_module", "lint_paths",
    "render_json", "render_text",
]
