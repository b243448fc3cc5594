"""Phase 1 of the whole-program analyzer: the :class:`ProjectModel`.

Per-file AST rules cannot see a module-level dict mutated three calls
away from a worker entrypoint, a truncating write hidden behind a
helper in another module, or a clock rebound in one module and called
from another. The project model gives phase-2 rules that visibility:

* a **symbol table per module** — top-level and nested functions with
  dotted qualnames, classes with their bases and the classes their
  methods construct into ``self.<attr>``, and every import binding
  (``from repro.x import f as g`` records ``g -> repro.x.f``, ``import
  repro.x as x`` a module alias);
* a **module-level binding inventory** — every name bound at import
  time, with the fork-unsafe ones classified (open file handles,
  locks/queues, pipes, ``Tracer`` instances) for RACE003, and the
  dict/list/set/tuple displays kept as function tables;
* an approximate **call graph** over every project function, keyed
  ``module.qualname`` (``repro.runtime.pool._worker_main``): the edges
  in both directions, every resolved call site, and one **entrypoint
  table** of two families — ``Process(target=...)`` /
  ``Child(target=...)`` targets, the fork boundary RACE003 reasons
  from, and async handlers registered through ``*add_route``,
  the event-loop roots SRV001 polices — with each family's closure.

Every lookup goes through one resolver, :meth:`ProjectModel.resolve`:
a name is looked up in its module, then through its import binding,
following at most :data:`IMPORT_HOPS` imports, so a re-export through
a package ``__init__`` resolves to the defining module. A call
resolves as:

* ``helper(...)`` — sibling nested function, then module-level
  function, then an imported one;
* ``mod.helper(...)`` — ``mod`` bound by ``import``;
* ``self.meth(...)`` / ``cls.meth(...)`` — a method of the enclosing
  class, base classes walked across modules;
* ``obj.meth(...)`` — when ``obj``'s class is statically visible: a
  construction, an annotated parameter or local, a local ``x =
  SomeClass(...)``, or a recorded ``self.attr``. A closure variable is
  typed where the enclosing function binds it, and a call's result
  (``x = make()``, ``self.driver(p).execute()``) takes the class its
  callee's return annotation names;

a nested ``def`` adds an edge from its definer (if the outer function
runs, the inner one may), and a function that loads a module-level
table (``ALGORITHMS[name]``) gets an edge to every project function
named in it. Resolution is deliberately *under-approximate*: it does
not track values through attributes of arbitrary objects, ``getattr``,
decorators that replace functions, or dynamic dispatch to an override.
Rules built on it miss exotic call paths rather than invent false
ones; ``docs/lint.md`` documents the limits.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Set, TypeVar,
)

from repro.lint.core import FUNCTION_DEFS, Module, call_name, local_names

__all__ = [
    "IMPORT_HOPS",
    "SPAWN_CALLS",
    "ImportBinding",
    "ClassInfo",
    "FunctionInfo",
    "ModuleGlobal",
    "CallSite",
    "ModuleInfo",
    "ProjectModel",
]

#: The most imports one lookup follows: ``from pkg import CACHE``,
#: where ``pkg/__init__`` re-exports ``CACHE`` from ``pkg.mid`` and
#: ``pkg.mid`` from ``pkg.state``, takes three.
IMPORT_HOPS = 4

#: Call names whose ``target=`` keyword crosses the fork boundary:
#: ``multiprocessing``'s ``Process`` and :class:`repro.proc.Child`.
SPAWN_CALLS = ("Process", "Child")

#: Call names that register an async request handler in a route table.
_ROUTE_CALLS = ("_add_route", "add_route")

#: The two entrypoint families, as :attr:`ProjectModel.entrypoints`
#: names them.
_WORKER = "Process target"
_HANDLER = "registered request handler"

#: Constructors whose product is unsafe to share across a fork, by
#: kind: the child inherits the parent's lock state / file offset /
#: buffered bytes, and the two sides then interleave on one kernel
#: object.
_FORK_UNSAFE = {
    "open": "file", "Tracer": "tracer", "Pipe": "pipe", **dict.fromkeys((
        "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
        "Event", "Barrier", "Queue", "SimpleQueue", "JoinableQueue",
    ), "lock"),
}

#: The displays a module-level function table is written as.
_TABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.Tuple)

_T = TypeVar("_T")
_FUNCTIONS = attrgetter("functions")
_CLASSES = attrgetter("classes")
_GLOBALS = attrgetter("globals")


@dataclass(frozen=True)
class ImportBinding:
    """One name bound by an import statement.

    ``import repro.runtime as rt``    -> ImportBinding("rt", "repro.runtime", None)
    ``from repro.trace import set_tracer`` -> ("set_tracer", "repro.trace", "set_tracer")
    ``from x import f as g``          -> ("g", "x", "f")
    """

    local: str
    module: str
    symbol: Optional[str] = None


@dataclass
class ClassInfo:
    """One class definition: its methods live in ``module.functions``
    under ``qualname.<method>``; ``bases`` hold the base-class names as
    written (resolved through imports on demand)."""

    module: "ModuleInfo"
    qualname: str
    node: ast.AST
    bases: List[str] = field(default_factory=list)
    #: ``self.<attr> = SomeClass(...)`` assignments seen in methods,
    #: attr name -> class name as written at the construction site.
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module.name}.{self.qualname}"


@dataclass
class FunctionInfo:
    """One function or method, addressable project-wide by ``key``."""

    module: "ModuleInfo"
    qualname: str                       # "WorkerPool._spawn", "outer.inner"
    node: ast.AST

    @property
    def key(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    @cached_property
    def local_types(self) -> Dict[str, str]:
        """Class name, as written, of each parameter or local whose class
        is visible: its annotation, else the first ``x = SomeClass(...)``
        or ``x: SomeClass`` in the body. Computed on first use."""
        args = self.node.args
        types = {
            arg.arg: _written(arg.annotation)
            for arg in args.posonlyargs + args.args + args.kwonlyargs
            if arg.annotation is not None
        }
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        types.setdefault(target.id, call_name(sub.value))
            elif isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                types.setdefault(sub.target.id, call_name(sub.annotation))
        return types

    @cached_property
    def own_names(self) -> Set[str]:
        """Parameters and names this function's own scope binds."""
        return local_names(self.node)


@dataclass
class ModuleGlobal:
    """A module-level name bound by assignment at import time."""

    module: "ModuleInfo"
    name: str
    node: ast.AST                       # the binding statement's value

    @property
    def kind(self) -> Optional[str]:
        """``file`` | ``lock`` | ``tracer`` | ``pipe`` for a fork-unsafe
        resource built at import, else ``None``."""
        if not isinstance(self.node, ast.Call):
            return None
        return _FORK_UNSAFE.get(call_name(self.node).rsplit(".", 1)[-1])


@dataclass
class CallSite:
    """One call expression resolved to a project function."""

    caller: FunctionInfo
    callee: FunctionInfo
    node: ast.Call


def _written(annotation: ast.AST) -> str:
    """An annotation's class name as written (``"X"`` strings too)."""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value
    return call_name(annotation)


class ModuleInfo:
    """Symbol table and inventories for one parsed module."""

    def __init__(self, name: str, module: Module):
        self.name = name
        self.module = module
        self.imports: Dict[str, ImportBinding] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.globals: Dict[str, ModuleGlobal] = {}
        self._fn_by_node: Dict[int, FunctionInfo] = {}
        self._collect_imports()
        self._collect_functions(module.tree.body, prefix="")
        self._collect_globals()
        self._collect_attr_types()

    # -- collection ----------------------------------------------------

    def _collect_imports(self) -> None:
        for node in self.module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    self.imports[local] = ImportBinding(local, alias.name)
            elif isinstance(node, ast.ImportFrom):
                target = self._absolute_import(node)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = ImportBinding(
                        local, target, alias.name
                    )

    def _absolute_import(self, node: ast.ImportFrom) -> Optional[str]:
        if not node.level:
            return node.module
        # Relative import: climb `level` packages from this module.
        parts = self.name.split(".")
        if node.level > len(parts):
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base += node.module.split(".")
        return ".".join(base) if base else None

    def _collect_functions(self, body: List[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, FUNCTION_DEFS):
                qual = f"{prefix}{node.name}"
                info = FunctionInfo(self, qual, node)
                self.functions[qual] = info
                self._fn_by_node[id(node)] = info
                self._collect_functions(node.body, f"{qual}.")
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}{node.name}"
                bases = [
                    base_name
                    for base in node.bases
                    if (base_name := call_name(base))
                ]
                self.classes[qual] = ClassInfo(self, qual, node, bases=bases)
                self._collect_functions(node.body, f"{qual}.")
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditional definitions (version guards) still count.
                for attr in ("body", "orelse", "finalbody"):
                    self._collect_functions(getattr(node, attr, []) or [], prefix)
                for handler in getattr(node, "handlers", []) or []:
                    self._collect_functions(handler.body, prefix)

    def _collect_globals(self) -> None:
        for stmt in self.module.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.globals[target.id] = ModuleGlobal(
                        self, target.id, stmt.value
                    )

    def _collect_attr_types(self) -> None:
        """``self.x = SomeClass(...)`` or ``self.x: SomeClass = ...`` in a
        method types attribute x."""
        for cls in self.classes.values():
            for node in ast.walk(cls.node):
                if isinstance(node, ast.AnnAssign):
                    constructed, targets = _written(node.annotation), [node.target]
                elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    constructed, targets = call_name(node.value), node.targets
                else:
                    continue
                if not constructed or not constructed.rsplit(".", 1)[-1][:1].isupper():
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(target.attr, constructed)

    # -- queries ---------------------------------------------------------

    def function_at(self, node: ast.AST) -> Optional[FunctionInfo]:
        """The innermost function enclosing ``node`` (for a function
        definition node: the function it is nested in)."""
        for scope in self.module.ancestors(node, FUNCTION_DEFS):
            info = self._fn_by_node.get(id(scope))
            if info is not None:
                return info
        return None


class ProjectModel:
    """The assembled whole-program view handed to phase-2 rules."""

    def __init__(self):
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_rel_path: Dict[str, ModuleInfo] = {}
        self._suffix_cache: Dict[str, Optional[ModuleInfo]] = {}
        #: Every project function by key, and the call edges between
        #: them in both directions (key -> keys).
        self.functions: Dict[str, FunctionInfo] = {}
        self.callees: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        self.call_sites: List[CallSite] = []
        #: Entrypoint key -> its family: "Process target" (a fork/worker
        #: entrypoint) or "registered request handler" (an async handler
        #: on the server's event loop).
        self.entrypoints: Dict[str, str] = {}
        #: Each family's closure, key -> the entrypoint it is first
        #: reached from: the RACE roots and the SRV001 roots.
        self.worker_reachable: Dict[str, str] = {}
        self.handler_reachable: Dict[str, str] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, modules: List[Module]) -> "ProjectModel":
        project = cls()
        for module in modules:
            info = ModuleInfo(cls.module_name(module.rel_path), module)
            project.modules[info.name] = info
            project._by_rel_path[module.rel_path] = info
        for info in project.modules.values():
            for fn in info.functions.values():
                project.functions[fn.key] = fn
                project.callees[fn.key] = set()
                project.callers[fn.key] = set()
        for info in project.modules.values():
            project._walk_calls(info)
        project.worker_reachable = project.closure(project._family(_WORKER))
        project.handler_reachable = project.closure(
            project._family(_HANDLER)
        )
        return project

    @staticmethod
    def module_name(rel_path: str) -> str:
        """Dotted module name from a project-relative path.

        ``src/repro/runtime/pool.py`` -> ``repro.runtime.pool``;
        package ``__init__`` files name the package itself. Leading
        ``src`` components are dropped so names match import syntax.
        """
        parts = [p for p in rel_path.split("/") if p]
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def _walk_calls(self, info: ModuleInfo) -> None:
        for node in info.module.nodes:
            if isinstance(node, FUNCTION_DEFS):
                outer = info.function_at(node)
                inner = info._fn_by_node.get(id(node))
                if outer is not None and inner is not None:
                    self._add_edge(outer, inner)
            elif isinstance(node, ast.Call):
                caller = info.function_at(node)
                callee = self._resolve_call(info, caller, node)
                if caller is not None and callee is not None:
                    self._add_edge(caller, callee, node)
                self._find_entrypoints(info, caller, node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                # Loading a function table may call any function in it.
                table = self.resolve_global(info, node.id)
                if table is None or not isinstance(table.node, _TABLE_DISPLAYS):
                    continue
                caller = info.function_at(node)
                if caller is None:
                    continue
                for ref in ast.walk(table.node):
                    fn = isinstance(ref, ast.Name) and self.resolve(
                        table.module, ref.id, _FUNCTIONS
                    )
                    if fn:
                        self._add_edge(caller, fn)

    def _add_edge(
        self, caller: FunctionInfo, callee: FunctionInfo,
        node: Optional[ast.Call] = None,
    ) -> None:
        self.callees[caller.key].add(callee.key)
        self.callers[callee.key].add(caller.key)
        if node is not None:
            self.call_sites.append(CallSite(caller, callee, node))

    def _find_entrypoints(
        self, info: ModuleInfo, caller: Optional[FunctionInfo], call: ast.Call
    ) -> None:
        last = call_name(call).rsplit(".", 1)[-1]
        if last in _ROUTE_CALLS:
            # The handler is the last positional argument (or handler=).
            family = _HANDLER
            refs = call.args[-1:] + [
                k.value for k in call.keywords if k.arg == "handler"
            ]
        elif last in SPAWN_CALLS:
            family = _WORKER
            refs = [k.value for k in call.keywords if k.arg == "target"]
        else:
            return
        for ref in refs:
            fn = self._resolve_ref(info, caller, ref)
            if fn is not None:
                self.entrypoints.setdefault(fn.key, family)

    def _family(self, family: str) -> Set[str]:
        return {key for key, how in self.entrypoints.items() if how == family}

    # -- resolution --------------------------------------------------------

    def module_for_path(self, rel_path: str) -> Optional[Module]:
        info = self._by_rel_path.get(rel_path)
        return info.module if info is not None else None

    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """The linted module a dotted import path refers to, if any.

        Exact name match first; otherwise a unique dotted-suffix match,
        which lets fixture trees (``raceproj.jobs``) resolve the same
        way ``repro.runtime.pool`` does under ``src/``.
        """
        if dotted in self._suffix_cache:
            return self._suffix_cache[dotted]
        result = self.modules.get(dotted)
        if result is None:
            suffix = "." + dotted
            candidates = [
                info for name, info in self.modules.items()
                if name.endswith(suffix)
            ]
            if len(candidates) == 1:
                result = candidates[0]
        self._suffix_cache[dotted] = result
        return result

    def resolve(
        self,
        info: Optional[ModuleInfo],
        dotted: str,
        table: Callable[[ModuleInfo], Mapping[str, _T]],
    ) -> Optional[_T]:
        """``dotted`` as named in ``info``, found in ``table`` of the
        module that defines it (its ``functions``, ``classes``,
        ``globals``, or a rule's own per-module map).

        A name missing from ``info``'s table continues through its
        import binding — ``from m import name [as alias]`` in ``m``,
        ``import m as alias`` with the rest of ``alias.Name`` in ``m``
        — for at most :data:`IMPORT_HOPS` imports: ``from repro.trace
        import set_tracer`` resolves through the package ``__init__``
        to ``repro.trace.tracer.set_tracer``.
        """
        for _ in range(IMPORT_HOPS + 1):
            if info is None or not dotted:
                return None
            found = table(info).get(dotted)
            if found is not None:
                return found
            head, _, rest = dotted.partition(".")
            binding = info.imports.get(head)
            if binding is None or (binding.symbol is None and not rest):
                return None
            dotted = ".".join(filter(None, (binding.symbol, rest)))
            info = self.resolve_module(binding.module)
        return None

    def resolve_global(
        self, info: ModuleInfo, name: str
    ) -> Optional[ModuleGlobal]:
        """A name in ``info``'s namespace as a module-level binding —
        local to the module or imported from another linted module."""
        return self.resolve(info, name, _GLOBALS)

    def find_method(
        self, cls: ClassInfo, method: str, _depth: int = 6
    ) -> Optional[FunctionInfo]:
        """``cls.method``, walking base classes across modules."""
        if _depth <= 0:
            return None
        fn = cls.module.functions.get(f"{cls.qualname}.{method}")
        if fn is not None:
            return fn
        for base in cls.bases:
            base_cls = self.resolve(cls.module, base, _CLASSES)
            if base_cls is not None:
                fn = self.find_method(base_cls, method, _depth - 1)
                if fn is not None:
                    return fn
        return None

    def class_of_expr(
        self, info: ModuleInfo, fn: Optional[FunctionInfo], expr: ast.AST
    ) -> Optional[ClassInfo]:
        """Best-effort static class of an expression: a construction
        ``SomeClass(...)``, a local of ``fn`` or of a function enclosing
        it whose class is visible (:attr:`FunctionInfo.local_types`),
        ``self.attr`` where the enclosing class recorded its type, or a
        call whose callee's return annotation names a class."""
        if isinstance(expr, ast.Call):
            written = call_name(expr)
        elif isinstance(expr, ast.Name):
            # A closure variable is typed where it is bound: walk out
            # through the enclosing functions.
            while fn is not None and expr.id not in fn.own_names:
                fn = info.functions.get(fn.qualname.rpartition(".")[0])
            written = fn.local_types.get(expr.id, "") if fn else ""
        elif (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and fn is not None
            and "." in fn.qualname
        ):
            cls = info.classes.get(fn.qualname.rsplit(".", 1)[0])
            written = cls.attr_types.get(expr.attr, "") if cls else ""
        else:
            return None
        cls = self.resolve(info, written, _CLASSES)
        if cls is None:
            # A function's result: the class its return annotation names.
            maker = (
                self._resolve_call(info, fn, expr)
                if isinstance(expr, ast.Call)
                else self.resolve(info, written, _FUNCTIONS)
            )
            if maker is not None and maker.node.returns is not None:
                returns = _written(maker.node.returns)
                return self.resolve(maker.module, returns, _CLASSES)
        return cls

    def _resolve_call(
        self, info: ModuleInfo, caller: Optional[FunctionInfo], call: ast.Call
    ) -> Optional[FunctionInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(info, caller, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        if isinstance(func.value, ast.Name):
            base = func.value.id
            if base in ("self", "cls"):
                return self._enclosing_method(info, caller, func.attr)
            binding = info.imports.get(base)
            if binding is not None and binding.symbol is None:
                fn = self.resolve(
                    self.resolve_module(binding.module), func.attr, _FUNCTIONS
                )
                if fn is not None:
                    return fn
        # Typed receiver: `runner.run_job(...)` where runner's class is
        # visible from an annotation, a construction, or `self.attr`.
        receiver = self.class_of_expr(info, caller, func.value)
        if receiver is not None:
            return self.find_method(receiver, func.attr)
        return None

    def _resolve_name(
        self, info: ModuleInfo, caller: Optional[FunctionInfo], name: str
    ) -> Optional[FunctionInfo]:
        """A bare name in ``caller``'s scope, as a project function."""
        if caller is not None:
            parts = caller.qualname.split(".")
            for cut in range(len(parts), 0, -1):
                fn = info.functions.get(".".join(parts[:cut] + [name]))
                if fn is not None:
                    return fn
        return self.resolve(info, name, _FUNCTIONS)

    def _resolve_ref(
        self, info: ModuleInfo, caller: Optional[FunctionInfo], expr: ast.AST
    ) -> Optional[FunctionInfo]:
        """A *reference* (not a call) to a project function: a bare
        name, or ``self.method``/``cls.method`` of the enclosing class."""
        if isinstance(expr, ast.Name):
            return self._resolve_name(info, caller, expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
        ):
            return self._enclosing_method(info, caller, expr.attr)
        return None

    def _enclosing_method(
        self, info: ModuleInfo, caller: Optional[FunctionInfo], name: str
    ) -> Optional[FunctionInfo]:
        """What ``self.name`` / ``cls.name`` means inside ``caller``: a
        method of the enclosing class, base classes walked."""
        if caller is None or "." not in caller.qualname:
            return None
        prefix = caller.qualname.rsplit(".", 1)[0]
        cls = info.classes.get(prefix)
        method = self.find_method(cls, name) if cls is not None else None
        return method or info.functions.get(f"{prefix}.{name}")

    # -- traversal ---------------------------------------------------------

    def closure(
        self, roots: Iterable[str], reverse: bool = False
    ) -> Dict[str, str]:
        """Every function reachable from ``roots`` along call edges — or,
        with ``reverse``, every function that reaches one — roots
        included, mapped to the root it is first reached from. The walk
        is breadth-first in sorted order, so the attribution is
        deterministic."""
        edges = self.callers if reverse else self.callees
        origin = {
            root: root for root in sorted(set(roots) & self.functions.keys())
        }
        queue = deque(origin)
        while queue:
            current = queue.popleft()
            for nxt in sorted(edges[current]):
                if nxt not in origin:
                    origin[nxt] = origin[current]
                    queue.append(nxt)
        return origin
