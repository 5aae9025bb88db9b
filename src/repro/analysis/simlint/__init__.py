"""simlint: determinism & protocol-safety analysis for the reproduction.

Two tools live here:

- the **static analyser** — the :mod:`~repro.analysis.simlint.core`
  engine, the per-file rules SIM001–SIM010
  (:mod:`~repro.analysis.simlint.rules`) and the whole-program rules
  SIM011–SIM014 (:mod:`~repro.analysis.simlint.interproc`, backed by
  the :mod:`~repro.analysis.simlint.project` call-graph index and the
  :mod:`~repro.analysis.simlint.cfg` path walker), run via
  ``python -m repro lint``;
- the **dynamic buffer-ownership race detector**
  (:mod:`~repro.analysis.simlint.racecheck`), run via
  ``python -m repro racecheck``.

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
from repro.analysis.simlint.project import (  # noqa: F401
    ProjectIndex,
    module_name_for,
)
from repro.analysis.simlint.report import render_json, render_text  # noqa: F401

__all__ = [
    "Finding", "LintResult", "ModuleUnderLint", "ProjectIndex", "Rule",
    "all_rules", "lint_module", "lint_paths", "module_name_for",
    "render_json", "render_text",
]
