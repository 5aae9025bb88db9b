"""The simlint engine: rule registry, pragmas, and the lint driver.

simlint is an AST-based static analyser (stdlib :mod:`ast` only) for the
two global invariants every result in this reproduction rests on:

- **bit-exact determinism** — serial equals ``-j N``, telemetry on equals
  off, chaos campaigns replay from their seed.  A single ``time.time()``,
  an unseeded ``random`` draw, or an iteration over a ``set`` feeding
  event scheduling silently breaks all of it.
- **protocol safety** — simulated processes must yield well-formed
  delays, never block the host, and trace emission must be side-effect
  free (it disappears when telemetry is off).

Rules are small classes registered with :func:`register`; each inspects
one parsed module (:class:`ModuleUnderLint`) and yields
:class:`Finding` objects.  Findings are suppressed per line with

    some_call()  # simlint: ignore[SIM001] -- one-line justification

or per file with ``# simlint: skip-file`` anywhere in the module.  The
driver (:func:`lint_paths`) walks ``*.py`` files, runs every registered
rule, filters suppressed findings, and returns them in a stable order
(path, line, column, rule code) so text and JSON reports diff cleanly.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.errors import ConfigError

#: Severity levels, ordered: an ``error`` is a determinism/protocol
#: violation; a ``warning`` is an ordering or hygiene hazard.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``end_line`` is the last line of the flagged node (== ``line`` for
    single-line nodes): the suppression machinery honours a pragma
    anywhere in the ``line..end_line`` range, so a ``# simlint:
    ignore[...]`` on the closing paren of a multi-line call still
    discharges a finding reported at the call's first line.
    """

    path: str          # repo-relative posix path
    line: int
    col: int
    rule: str          # e.g. "SIM001"
    severity: str      # "error" | "warning"
    message: str
    end_line: int = 0  # 0 means "same as line"

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ConfigError(f"unknown severity {self.severity!r}")

    @property
    def last_line(self) -> int:
        return self.end_line if self.end_line > self.line else self.line

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "end_line": self.last_line,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")


_PRAGMA_RE = re.compile(r"#\s*simlint:\s*ignore\[([A-Za-z0-9_,\s*]+)\]")
_SKIP_FILE_RE = re.compile(r"#\s*simlint:\s*skip-file")


class Suppressions:
    """Per-line ``# simlint: ignore[...]`` pragmas for one file."""

    def __init__(self, source: str):
        self.skip_file = False
        self._by_line: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "simlint" not in line:
                continue
            if _SKIP_FILE_RE.search(line):
                self.skip_file = True
            match = _PRAGMA_RE.search(line)
            if match:
                rules = {r.strip().upper() for r in match.group(1).split(",")
                         if r.strip()}
                self._by_line.setdefault(lineno, set()).update(rules)

    def suppresses(self, line: int, rule: str,
                   end_line: Optional[int] = None) -> bool:
        """Is ``rule`` suppressed anywhere in ``line..end_line``?

        A pragma on any physical line of the flagged statement counts —
        a multi-line call reported at its first line is suppressed by a
        pragma on its closing line just as well as on its opening one.
        """
        rule = rule.upper()
        end = end_line if end_line is not None and end_line > line else line
        for pragma_line, rules in self._by_line.items():
            if line <= pragma_line <= end \
                    and ("*" in rules or rule in rules):
                return True
        return False

    @property
    def pragma_lines(self) -> list[int]:
        return sorted(self._by_line)


class ModuleUnderLint:
    """One parsed source file plus the derived views rules share.

    The expensive derivations (import alias map, the set of generator
    function bodies, self-attributes known to hold sets) are computed
    once here instead of once per rule.
    """

    def __init__(self, path: str, source: str, tree: Optional[ast.AST] = None):
        self.path = path            # repo-relative posix path
        self.source = source
        self.tree = tree if tree is not None else ast.parse(source, filename=path)
        self.suppressions = Suppressions(source)
        #: set by ProjectIndex when this module is linted as part of a
        #: whole-program run: the dotted module name and the shared index.
        #: Standalone (per-module) linting leaves both None and the
        #: interprocedural rules degrade to their local approximations.
        self.module_name: Optional[str] = None
        self.project = None         # ProjectIndex | None
        self._parents: Optional[dict] = None
        self._aliases: Optional[dict] = None
        self._generator_bodies: Optional[list] = None
        self._set_attrs: Optional[set] = None
        self._set_names: Optional[set] = None

    # -- shared derived views ------------------------------------------------
    @property
    def parents(self) -> dict:
        """child node -> parent node, for upward walks."""
        if self._parents is None:
            parents: dict = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    @property
    def aliases(self) -> dict:
        """local name -> canonical dotted module path.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        perf_counter as pc`` maps ``pc -> time.perf_counter``.  Rules
        resolve call targets through this map so aliasing cannot dodge a
        ban.
        """
        if self._aliases is None:
            aliases: dict = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for item in node.names:
                        local = item.asname or item.name.split(".")[0]
                        aliases[local] = item.name if item.asname else local
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for item in node.names:
                        local = item.asname or item.name
                        aliases[local] = f"{node.module}.{item.name}"
            self._aliases = aliases
        return self._aliases

    @property
    def generator_bodies(self) -> list:
        """FunctionDef nodes that are generators (contain a ``yield``).

        Simulated-process bodies are exactly these: every noded /
        firmware / workload process is a generator driven by the kernel.
        """
        if self._generator_bodies is None:
            out = []
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for sub in ast.walk(node):
                        if sub is node:
                            continue
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.Lambda)):
                            continue  # don't descend into nested scopes here
                        if isinstance(sub, (ast.Yield, ast.YieldFrom)) \
                                and self.enclosing_function(sub) is node:
                            out.append(node)
                            break
            self._generator_bodies = out
        return self._generator_bodies

    @property
    def set_typed_names(self) -> set:
        """Plain variable names assigned a set anywhere in this module.

        Deliberately scope-blind (a name set-typed in one function taints
        the whole module): an over-approximation the per-line pragma can
        discharge, versus silently missing a real ordering hazard.
        """
        if self._set_names is None:
            names: set = set()
            for node in ast.walk(self.tree):
                target = value = annotation = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if not isinstance(target, ast.Name):
                    continue
                if annotation is not None and _annotation_is_set(annotation):
                    names.add(target.id)
                elif value is not None and is_set_expr(value):
                    names.add(target.id)
            self._set_names = names
        return self._set_names

    @property
    def set_typed_attrs(self) -> set:
        """Names of ``self.X`` attributes assigned a set in this module.

        Collected from ``self.X = set(...)`` / ``self.X = {literal}`` /
        ``self.X: set[...] = ...`` so iteration-order rules can flag
        ``for n in self.X`` even though the attribute's type is not
        syntactically evident at the loop.
        """
        if self._set_attrs is None:
            attrs: set = set()
            for node in ast.walk(self.tree):
                target = value = annotation = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                if annotation is not None and _annotation_is_set(annotation):
                    attrs.add(target.attr)
                elif value is not None and is_set_expr(value, known_attrs=()):
                    attrs.add(target.attr)
            self._set_attrs = attrs
        return self._set_attrs

    # -- helpers -------------------------------------------------------------
    def enclosing_function(self, node: ast.AST):
        """Nearest enclosing FunctionDef/Lambda, or None at module level."""
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return cur
            cur = self.parents.get(cur)
        return None

    def enclosing_call(self, node: ast.AST) -> Optional[ast.Call]:
        """Nearest enclosing Call that ``node`` is an argument of."""
        cur, prev = self.parents.get(node), node
        while cur is not None:
            if isinstance(cur, ast.Call) and prev is not cur.func:
                return cur
            prev, cur = cur, self.parents.get(cur)
        return None

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None.

        ``np.random.default_rng`` resolves through the alias map to
        ``numpy.random.default_rng``.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self.aliases.get(cur.id, cur.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _annotation_is_set(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith(("set", "frozenset", "Set", "FrozenSet"))
    return False


def is_set_expr(node: ast.AST, known_attrs: Iterable[str] = (),
                known_names: Iterable[str] = ()) -> bool:
    """Is ``node`` syntactically a set?  (literal, comprehension, call,
    a ``self.X`` attribute previously assigned a set, or a plain name
    previously assigned one)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr in set(known_attrs)):
        return True
    if isinstance(node, ast.Name) and node.id in set(known_names):
        return True
    return False


# ---------------------------------------------------------------------- rules
class Rule:
    """Base class: subclasses set the metadata and implement check().

    ``scope`` declares what a rule's findings depend on: ``"module"``
    rules see one file at a time; ``"project"`` rules also read the
    shared :class:`~repro.analysis.simlint.project.ProjectIndex`, so
    their findings in one file can change when any other file in the
    run changes.  :func:`lint_paths` builds the index only when a
    project-scope rule is active.
    """

    code: str = "SIM000"
    name: str = "abstract"
    severity: str = "error"
    description: str = ""
    scope: str = "module"   # "module" | "project"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleUnderLint, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(path=module.path, line=line,
                       col=getattr(node, "col_offset", 0), rule=self.code,
                       severity=self.severity, message=message,
                       end_line=getattr(node, "end_lineno", None) or line)


_REGISTRY: dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate and add to the global registry."""
    rule = cls()
    if rule.code in _REGISTRY:
        raise ConfigError(f"duplicate simlint rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> list[Rule]:
    """Registered rules in code order (imports the rule modules once)."""
    from repro.analysis.simlint import interproc as _interproc  # noqa: F401
    from repro.analysis.simlint import rules as _rules  # noqa: F401

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


# --------------------------------------------------------------------- driver
@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list = field(default_factory=list)
    files: int = 0
    parse_errors: list = field(default_factory=list)  # (path, message)

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def errors(self) -> int:
        return self.count("error")

    @property
    def warnings(self) -> int:
        return self.count("warning")


def _iter_py_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``*.py`` under ``paths``, each file yielded exactly once.

    Overlapping inputs (``repro lint src src/repro/fm``) must not
    double-count findings against ``--fail-on``, so files are
    deduplicated by resolved path across all inputs.
    """
    seen: set = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = (path,)
        else:
            continue
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def relative_path(path: Path, root: Optional[Path] = None,
                  base: Optional[Path] = None) -> str:
    """Repo-relative posix form of ``path`` (stable across machines).

    A file outside ``root`` and outside any ``src`` tree is named
    relative to ``base``, the deepest directory holding every lint input
    (:func:`_inputs_base`): ``repro lint a b`` reports ``a/x.py`` and
    ``b/x.py``, not ``x.py`` twice, and indexes them as two modules.
    """
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    # Fall back to trimming at the last "src" component if there is one.
    parts = resolved.parts
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        return Path(*parts[idx:]).as_posix()
    if base is not None:
        try:
            return resolved.relative_to(base).as_posix()
        except ValueError:
            pass
    return resolved.name


def _inputs_base(paths: list) -> Optional[Path]:
    """The deepest directory holding every lint input (a file input
    counts as its directory), or None for no inputs."""
    dirs = [str(p if p.is_dir() else p.parent)
            for p in (path.resolve() for path in paths)]
    return Path(os.path.commonpath(dirs)) if dirs else None


def lint_module(module: ModuleUnderLint,
                rules: Optional[Iterable[Rule]] = None) -> list:
    """All unsuppressed findings for one parsed module."""
    if module.suppressions.skip_file:
        return []
    active = list(rules) if rules is not None else all_rules()
    findings = []
    for rule in active:
        for finding in rule.check(module):
            if not module.suppressions.suppresses(
                    finding.line, finding.rule, finding.last_line):
                findings.append(finding)
    findings.sort()
    return findings


def lint_paths(paths: Iterable, root: Optional[Path] = None,
               rules: Optional[Iterable[Rule]] = None) -> LintResult:
    """Lint every ``*.py`` under ``paths``; findings in stable order.

    This is the two-pass whole-program driver: pass one parses every
    file and builds the shared
    :class:`~repro.analysis.simlint.project.ProjectIndex` (symbol table
    + call graph), pass two runs the rules with that cross-module
    context attached to each module.  The index is built only when a
    project-scope rule is active.
    """
    from repro.analysis.simlint.project import ProjectIndex

    result = LintResult()
    active = list(rules) if rules is not None else all_rules()
    modules: list = []
    paths = [Path(p) for p in paths]
    base = _inputs_base(paths)
    for path in _iter_py_files(paths):
        rel = relative_path(path, root, base)
        try:
            modules.append(ModuleUnderLint(rel, path.read_bytes().decode()))
        except (OSError, SyntaxError, UnicodeDecodeError, ValueError) as exc:
            result.parse_errors.append((rel, str(exc)))
    result.files = len(modules)

    if any(r.scope == "project" for r in active):
        ProjectIndex(modules).attach()
    for module in modules:
        result.findings.extend(lint_module(module, rules=active))
    result.findings.sort()
    return result
