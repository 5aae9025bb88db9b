"""simlint reporters.

Two output formats, both stable (findings pre-sorted by the engine):

- **text** — one ``path:line:col: CODE [severity] message`` line per
  finding plus a summary line, for humans;
- **json** — a versioned document with the finding list and per-rule
  counts, for CI artifacts and machine diffing.
"""

from __future__ import annotations

import json

from repro.analysis.simlint.core import LintResult

#: Bump when the JSON document shape changes incompatibly.
REPORT_VERSION = 1


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [f.render() for f in result.findings]
    for path, message in sorted(result.parse_errors):
        lines.append(f"{path}:1:0: PARSE [error] {message}")
    lines.append(
        f"simlint: {result.files} files, {result.errors} errors, "
        f"{result.warnings} warnings"
        + (f", {len(result.parse_errors)} unparsable" if result.parse_errors
           else ""))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable key order, trailing newline)."""
    by_rule: dict = {}
    for f in result.findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    doc = {
        "version": REPORT_VERSION,
        "files": result.files,
        "errors": result.errors,
        "warnings": result.warnings,
        "parse_errors": [{"path": p, "message": m}
                         for p, m in sorted(result.parse_errors)],
        "counts_by_rule": dict(sorted(by_rule.items())),
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
