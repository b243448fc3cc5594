"""The lint walker core: findings, rules, suppressions, and the engine.

The benchmark's validity rests on invariants the test suite cannot see
— determinism of the six kernels, the Pregel/GAS state contract,
metered reporting. :mod:`repro.lint` enforces them statically: every
rule is an AST pass over the repro sources, producing :class:`Finding`
records; any finding fails the run.

Design:

* a rule subclasses :class:`Rule` and registers itself with
  :func:`register_rule`; it receives one parsed :class:`Module` at a
  time and yields findings;
* rules declare a *scope* — path segments (``algorithms``, ``engines``,
  ...) the rule applies to — so kernel-only invariants do not fire on
  the CLI;
* ``# lint: disable=DET001`` comments (same line, or a standalone
  comment on the line above) suppress findings at the source — the one
  grandfathering mechanism; a directive on the first line of a
  multi-line statement (or on a decorator) covers the statement's full
  span;
* the engine runs in **two phases**: phase 1 parses every file once
  and builds a whole-program :class:`~repro.lint.project.ProjectModel`
  (symbol tables, approximate call graph, module-level bindings);
  phase 2 hands each :class:`Module` to the per-file
  :meth:`Rule.check` pass and the assembled project to each rule's
  :meth:`Rule.check_project` pass, so rules can be purely syntactic,
  purely interprocedural, or both.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Collection, Dict, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ProjectModel

from repro.exceptions import ConfigurationError

__all__ = [
    "Severity",
    "Finding",
    "Module",
    "Rule",
    "register_rule",
    "all_rules",
    "LintEngine",
]


class Severity:
    """Finding severities."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    path: str          # project-relative posix path
    line: int
    col: int
    message: str
    symbol: str = ""   # enclosing function/class

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


#: ``# lint: disable=DET001`` or ``# lint: disable=DET001,DET003`` or
#: ``# lint: disable`` (every rule).
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?:=(?P<rules>[A-Z0-9, ]+))?", re.ASCII
)


def _parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Line -> suppressed rule ids (``None`` means all rules).

    A directive on a code line covers that line; a directive on a
    standalone comment line covers the following line as well.
    """
    suppressed: Dict[int, Optional[Set[str]]] = {}

    def merge(lineno: int, rules: Optional[Set[str]]) -> None:
        current = suppressed.get(lineno, set())
        if rules is None or current is None:
            suppressed[lineno] = None
        else:
            suppressed[lineno] = set(current) | rules

    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        spec = match.group("rules")
        rules = (
            None
            if spec is None
            else {r.strip() for r in spec.split(",") if r.strip()}
        )
        merge(lineno, rules)
        if text.lstrip().startswith("#"):  # standalone comment: covers next line
            merge(lineno + 1, rules)
    return suppressed


class Module:
    """One parsed source file, shared by every rule.

    Attributes rules rely on:

    * ``tree`` — the AST, with ``.parent`` links on every node, and
      ``nodes``, all of them in ``ast.walk`` order;
    * ``segments`` — path parts of the project-relative path (used for
      rule scoping, e.g. ``("src", "repro", "engines", "pregel.py")``);
    * ``stem`` — module basename without extension.
    """

    def __init__(self, path: Path, rel_path: str, source: str):
        self.path = path
        self.rel_path = rel_path
        self.segments: Tuple[str, ...] = tuple(Path(rel_path).parts)
        self.stem = Path(rel_path).stem
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        #: Every node of the tree in ``ast.walk`` order, walked once for
        #: all rules.
        self.nodes: List[ast.AST] = list(ast.walk(self.tree))
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                child.parent = node  # type: ignore[attr-defined]
        self.suppressions = _parse_suppressions(source)
        self._extend_suppressions_to_statement_spans()

    def _extend_suppressions_to_statement_spans(self) -> None:
        """A directive on a statement's first line (or on one of its
        decorators) covers the statement's full ``lineno..end_lineno``
        span — a multi-line call, a decorated ``def``, a ``with`` block.
        Without this, suppressing a finding that a rule reports two
        lines into the statement required knowing the rule's exact
        anchor line."""
        extensions: List[Tuple[int, int, Optional[Set[str]]]] = []
        for node in self.nodes:
            if not isinstance(node, ast.stmt):
                continue
            end = getattr(node, "end_lineno", None) or node.lineno
            if end <= node.lineno:
                continue
            heads = [node.lineno]
            heads += [
                d.lineno for d in getattr(node, "decorator_list", []) or []
            ]
            specs = [
                self.suppressions[line]
                for line in heads
                if line in self.suppressions
            ]
            if not specs:
                continue
            if any(spec is None for spec in specs):
                merged: Optional[Set[str]] = None
            else:
                merged = set().union(*specs)
            extensions.append((node.lineno, end, merged))
        for start, end, rules in extensions:
            for line in range(start, end + 1):
                current = self.suppressions.get(line, set())
                if rules is None or current is None:
                    self.suppressions[line] = None
                else:
                    self.suppressions[line] = set(current) | rules

    # -- helpers for rules -------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "parent", None)

    def ancestors(self, node: ast.AST, kinds) -> Iterator[ast.AST]:
        """The nodes enclosing ``node`` that are instances of ``kinds``,
        innermost first (``FUNCTION_DEFS``: its enclosing functions)."""
        current = self.parent(node)
        while current is not None:
            if isinstance(current, kinds):
                yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST) -> str:
        """Dotted name of the enclosing def/class chain (may be '')."""
        scopes = self.ancestors(node, (*FUNCTION_DEFS, ast.ClassDef))
        return ".".join(reversed([scope.name for scope in scopes]))

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=rule.rule_id,
            severity=rule.severity,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            symbol=self.enclosing_function(node),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.line not in self.suppressions:
            return False
        rules = self.suppressions[finding.line]
        return rules is None or finding.rule_id in rules


class Rule:
    """Base class: one statically checkable benchmark invariant.

    Subclasses set ``rule_id``, ``severity``, ``description``, and an
    optional ``scope`` (path segments the rule fires in; ``None`` means
    everywhere), then implement :meth:`check`, :meth:`check_project`,
    or both. ``check`` sees one file at a time (phase 2a, the original
    API); ``check_project`` sees the assembled
    :class:`~repro.lint.project.ProjectModel` once per run (phase 2b)
    and is where interprocedural rules live.
    """

    rule_id: str = ""
    severity: str = Severity.WARNING
    description: str = ""
    #: Path segments (directory or module names) this rule applies to.
    scope: Optional[Tuple[str, ...]] = None

    def applies_to(self, module: Module) -> bool:
        if not self.scope:
            return True
        names = set(module.segments) | {module.stem}
        return any(part in names for part in self.scope)

    def check(self, module: Module) -> Iterator[Finding]:
        """Per-file pass; the default checks nothing."""
        return iter(())

    def check_project(self, project: "ProjectModel") -> Iterator[Finding]:
        """Whole-program pass; the default checks nothing."""
        return iter(())


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls):
    """Class decorator: instantiate and index a rule by its id."""
    rule = cls()
    if not rule.rule_id:
        raise ConfigurationError(f"rule {cls.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def _load_builtin_rules() -> None:
    # Importing the package registers every built-in rule exactly once.
    from repro.lint import rules  # noqa: F401


def all_rules() -> Dict[str, Rule]:
    """Every registered rule, id -> instance (loads built-ins)."""
    _load_builtin_rules()
    return dict(_REGISTRY)


# -- shared AST helpers (used by the rule modules) ---------------------------

def call_name(node: ast.AST) -> str:
    """Dotted name of a call target: ``np.random.default_rng`` etc."""
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def names_in(node: ast.AST) -> Set[str]:
    """All identifier fragments (names and attributes) under a node."""
    found: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


#: The nodes that define a function.
FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Methods that mutate their receiver in place (list, dict, set, deque).
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
})


def scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function/module scope without descending into nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*FUNCTION_DEFS, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def local_names(func: ast.AST) -> Set[str]:
    """Names local to a function or lambda: its parameters and every
    name its own scope stores, less those declared global/nonlocal."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    names = {arg.arg for arg in params + [args.vararg, args.kwarg] if arg}
    declared: Set[str] = set()
    for node in scope_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names - declared


def stdlib_names(
    source: "Module", module: str, names: Collection[str],
    roots: Tuple[str, ...] = (),
) -> Tuple[Set[str], Dict[str, Tuple[str, str]]]:
    """How ``source`` can name the standard-library functions
    ``module.<f>`` (``f`` in ``names``).

    Returns the names bound to ``module`` itself (``module``, ``roots``
    and every ``import module as m``) and, for bare names, local name ->
    ``(how, "module.f")``: ``how`` is ``"import"`` for ``from module
    import f [as g]`` and ``"rebind"`` for a module-level ``h = m.f``
    or ``h = g``.
    """
    modules = {module, *roots}
    bare: Dict[str, Tuple[str, str]] = {}
    for node in source.nodes:
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname or module
                for alias in node.names if alias.name == module
            )
        elif (
            isinstance(node, ast.ImportFrom)
            and node.module == module and not node.level
        ):
            bare.update(
                (alias.asname or alias.name, ("import", f"{module}.{alias.name}"))
                for alias in node.names if alias.name in names
            )
    for stmt in source.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in modules
            and value.attr in names
        ):
            function = f"{module}.{value.attr}"
        elif isinstance(value, ast.Name) and bare.get(value.id, ("",))[0] == "import":
            function = bare[value.id][1]
        else:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                bare[target.id] = ("rebind", function)
    return modules, bare


def stdlib_calls(
    source: "Module", module: str, names: Collection[str],
    roots: Tuple[str, ...] = (),
) -> Iterator[Tuple[ast.Call, str, str]]:
    """Every call in ``source`` to a standard-library function
    ``module.<f>`` (``f`` in ``names``), however the file spells it.

    Yields ``(call, how, "module.f")``: ``how`` is ``"module"`` for
    ``module.f()`` (or a ``roots`` spelling such as ``_time.f()``),
    ``"alias"`` through ``import module as m``, and ``"import"`` /
    ``"rebind"`` for a bare name (see :func:`stdlib_names`). Attribute
    calls on any other receiver (``client.connect()``) never match.
    """
    modules, bare = stdlib_names(source, module, names, roots)
    for node in source.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
            and func.attr in names
        ):
            how = "module" if func.value.id in (module, *roots) else "alias"
            yield node, how, f"{module}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in bare:
            how, function = bare[func.id]
            yield node, how, function


#: The linter's own fixtures, deliberate violations: a run that walks a
#: directory above them skips them; one that names a path inside them
#: lints it.
FIXTURES = "tests/lint/fixtures/"


class LintEngine:
    """Parses files and runs every enabled, in-scope rule over them."""

    def __init__(self, config=None):
        from repro.lint.config import LintConfig

        self.config = config or LintConfig()
        rules = all_rules()
        selected = self.config.select or sorted(rules)
        unknown = [r for r in selected if r not in rules]
        if unknown:
            raise ConfigurationError(f"unknown lint rules: {sorted(set(unknown))}")
        self.rules: List[Rule] = [rules[rule_id] for rule_id in sorted(selected)]

    # -- file collection ---------------------------------------------------

    def collect_files(self, paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for path in map(Path, paths):
            if path.is_dir():
                named = (self._rel_path(path) + "/").startswith(FIXTURES)
                files.extend(
                    f for f in sorted(path.rglob("*.py"))
                    if named or not self._rel_path(f).startswith(FIXTURES)
                )
            elif path.suffix == ".py":
                files.append(path)
        return files

    def _rel_path(self, path: Path) -> str:
        path = Path(path).resolve()
        root = self.config.root
        if root is not None:
            try:
                return path.relative_to(Path(root).resolve()).as_posix()
            except ValueError:
                pass
        try:
            return path.relative_to(Path.cwd()).as_posix()
        except ValueError:
            return path.as_posix()

    # -- running -----------------------------------------------------------

    def _parse_module(self, path: Path):
        """(Module, None) on success, (None, SYNTAX finding) otherwise."""
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read {path}: {exc}") from exc
        rel = self._rel_path(path)
        try:
            return Module(path, rel, source), None
        except SyntaxError as exc:
            return None, Finding(
                rule_id="SYNTAX",
                severity=Severity.ERROR,
                path=rel,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )

    def _module_findings(self, module: Module) -> List[Finding]:
        """Phase-2a findings: every per-file rule over one module."""
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                if not module.is_suppressed(finding):
                    findings.append(finding)
        return findings

    def _project_findings(self, modules: List[Module]) -> List[Finding]:
        """Phase 1 + 2b: build the project model, run project rules."""
        from repro.lint.project import ProjectModel

        project = ProjectModel.build(modules)
        findings: List[Finding] = []
        for rule in self.rules:
            for finding in rule.check_project(project):
                module = project.module_for_path(finding.path)
                if module is None or not module.is_suppressed(finding):
                    findings.append(finding)
        return findings

    def run(self, paths: Sequence[Path]) -> List[Finding]:
        """Lint every python file under the given paths, sorted.

        Phase 1 parses every file and assembles the whole-program
        model; phase 2 runs per-file rules on each module and project
        rules on the model.
        """
        findings: List[Finding] = []
        modules: List[Module] = []
        for path in self.collect_files([Path(p) for p in paths]):
            module, syntax_finding = self._parse_module(path)
            if module is None:
                findings.append(syntax_finding)
                continue
            modules.append(module)
            findings.extend(self._module_findings(module))
        if modules:
            findings.extend(self._project_findings(modules))
        findings.sort(
            key=lambda f: (f.path, f.line, f.col, f.rule_id, f.message)
        )
        return findings
