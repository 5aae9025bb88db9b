"""The analyzer must hold itself to its own rules.

Lints ``src/repro/analysis/`` (the linter itself) under all ten rules
and requires zero unsuppressed findings — every wall-clock read or
order-sensitive iteration the tooling itself performs needs an explicit
justified pragma.
"""

from pathlib import Path

from repro.analysis.simlint import lint_paths

ANALYSIS_DIR = Path(__file__).resolve().parents[2] / "src/repro/analysis"


def test_analysis_package_is_clean_under_all_rules():
    result = lint_paths([ANALYSIS_DIR])
    assert result.files >= 5
    assert result.parse_errors == []
    assert result.findings == [], \
        [f.render() for f in result.findings]
