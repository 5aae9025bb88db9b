"""Engine-level tests: pragmas, reporters, registry, CLI."""

import json

from repro.analysis.simlint import (
    all_rules,
    lint_module,
    lint_paths,
    render_json,
    render_text,
)
from repro.analysis.simlint.core import ModuleUnderLint, Suppressions
from repro.cli import main

BAD = "import time\n\ndef f():\n    return time.time()\n"


def lint_source(source, path="lib/module.py"):
    return lint_module(ModuleUnderLint(path, source))


# ------------------------------------------------------------------- pragmas
def test_ignore_pragma_suppresses_named_rule():
    source = ("import time\n\ndef f():\n"
              "    return time.time()  # simlint: ignore[SIM001] -- test\n")
    assert lint_source(source) == []


def test_ignore_pragma_is_rule_specific():
    source = ("import time\n\ndef f():\n"
              "    return time.time()  # simlint: ignore[SIM999]\n")
    assert [f.rule for f in lint_source(source)] == ["SIM001"]


def test_ignore_pragma_accepts_multiple_rules_and_wildcard():
    multi = Suppressions("x = 1  # simlint: ignore[SIM001, SIM003]\n")
    assert multi.suppresses(1, "SIM001")
    assert multi.suppresses(1, "SIM003")
    assert not multi.suppresses(1, "SIM002")
    wild = Suppressions("x = 1  # simlint: ignore[*]\n")
    assert wild.suppresses(1, "SIM010")


def test_skip_file_pragma_silences_the_module():
    assert lint_source("# simlint: skip-file\n" + BAD) == []


def test_pragma_only_covers_its_line():
    source = ("import time\n"
              "a = time.time()  # simlint: ignore[SIM001]\n"
              "b = time.time()\n")
    assert [f.line for f in lint_source(source)] == [3]


def test_pragma_anywhere_in_a_multiline_statement_suppresses():
    # The finding is reported at the call's first line; the pragma sits
    # on the closing line.  The lineno..end_lineno range must cover it.
    source = ("import time\n\n"
              "def f():\n"
              "    return time.time(\n"
              "    )  # simlint: ignore[SIM001] -- spans the statement\n")
    assert lint_source(source) == []


def test_pragma_outside_the_statement_range_does_not_suppress():
    source = ("import time\n\n"
              "def f():\n"
              "    return time.time()\n"
              "    # simlint: ignore[SIM001] -- next line, not the stmt\n")
    assert [f.rule for f in lint_source(source)] == ["SIM001"]


# ----------------------------------------------------------------- reporters
def test_text_report_lists_findings_and_summary():
    result = lint_paths_for(BAD)
    text = render_text(result)
    assert "SIM001" in text and "[error]" in text
    assert text.endswith("1 files, 1 errors, 0 warnings")


def test_json_report_is_stable_and_versioned():
    result = lint_paths_for(BAD)
    doc = json.loads(render_json(result))
    assert doc["version"] == 1
    assert doc["errors"] == 1
    assert doc["counts_by_rule"] == {"SIM001": 1}
    assert doc["findings"][0]["rule"] == "SIM001"
    # byte-stable across repeated rendering
    assert render_json(result) == render_json(result)


def lint_paths_for(source, tmp_name="module.py"):
    import tempfile
    from pathlib import Path

    tmp = Path(tempfile.mkdtemp())
    (tmp / tmp_name).write_text(source)
    return lint_paths([tmp], root=tmp)


# ----------------------------------------------------------------- registry
def test_registry_has_the_fourteen_rules_in_order():
    codes = [r.code for r in all_rules()]
    assert codes == [f"SIM{n:03d}" for n in range(1, 15)]
    assert all(r.severity in ("error", "warning") for r in all_rules())
    assert all(r.description for r in all_rules())
    assert all(r.scope in ("module", "project") for r in all_rules())


# ------------------------------------------------------------- deduplication
def test_overlapping_paths_count_each_file_once(tmp_path):
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "bad.py").write_text(BAD)
    # The same file reached through the parent dir, the subdir and the
    # file path itself must produce exactly one finding.
    result = lint_paths([tmp_path, sub, sub / "bad.py"], root=tmp_path)
    assert result.files == 1
    assert len(result.findings) == 1


# ---------------------------------------------------------------------- CLI
def test_cli_lint_exits_nonzero_on_planted_wall_clock(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD)
    rc = main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "SIM001" in out


def test_cli_lint_clean_tree_exits_zero(capsys):
    rc = main(["lint"])  # defaults to the shipped repro package
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 errors" in out


def test_cli_lint_fail_on_warning_gates_warnings(tmp_path, capsys):
    warn = tmp_path / "warn.py"
    warn.write_text("s = {1, 2}\nfor x in s:\n    print(x)\n")
    assert main(["lint", str(warn)]) == 0
    capsys.readouterr()
    assert main(["lint", str(warn), "--fail-on", "warning"]) == 1


def test_cli_lint_json_format_and_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD)
    out_file = tmp_path / "report.json"
    rc = main(["lint", str(bad), "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 1
    doc = json.loads(out_file.read_text())
    assert doc["version"] == 1
    assert doc["errors"] == 1
    assert doc["counts_by_rule"] == {"SIM001": 1}
    assert doc["findings"][0]["path"] == "bad.py"


def test_cli_lint_gates_on_an_unparsable_file(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "broken.py").write_text("def broken(:\n")
    out_file = tmp_path / "report.json"
    rc = main(["lint", str(tmp_path), "--out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "broken.py:1:0: PARSE [error]" in out
    assert out.rstrip().endswith("1 files, 0 errors, 0 warnings, 1 unparsable")
    doc = json.loads(out_file.read_text())
    assert [e["path"] for e in doc["parse_errors"]] == ["broken.py"]
    assert doc["findings"] == []


def test_shipped_tree_lints_clean_within_budget():
    """Acceptance: src/repro in < 5 s with zero unsuppressed findings."""
    from pathlib import Path
    from time import perf_counter  # simlint: ignore[SIM001] -- measuring the linter itself

    import repro

    package = Path(repro.__file__).parent
    t0 = perf_counter()  # simlint: ignore[SIM001] -- measuring the linter itself
    result = lint_paths([package])
    elapsed = perf_counter() - t0  # simlint: ignore[SIM001] -- measuring the linter itself
    assert result.files > 90
    assert result.findings == []
    assert result.parse_errors == []
    assert elapsed < 5.0


# ------------------------------------------------------------ report paths
def test_same_named_files_outside_the_root_stay_apart(tmp_path, capsys):
    """``repro lint a b`` over ``a/x.py`` and ``b/x.py``: two report
    paths and two modules, not ``x.py`` twice."""
    from repro.analysis.simlint import ProjectIndex, module_name_for
    from repro.analysis.simlint.core import ModuleUnderLint

    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "x.py").write_text(BAD)
    result = lint_paths([tmp_path / "a", tmp_path / "b"])
    paths = [f.path for f in result.findings]
    assert paths == ["a/x.py", "b/x.py"]
    modules = [ModuleUnderLint(p, BAD) for p in paths]
    index = ProjectIndex(modules)
    assert [module_name_for(p) for p in paths] == ["a.x", "b.x"]
    assert sorted(index.by_module_name) == ["a.x", "b.x"]

    assert main(["lint", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "a/x.py:4:11: SIM001" in out and "b/x.py:4:11: SIM001" in out
