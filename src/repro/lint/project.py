"""Phase 1 of the whole-program analyzer: the :class:`ProjectModel`.

Per-file AST rules cannot see a module-level dict mutated three calls
away from a worker entrypoint, a truncating write hidden behind a
helper in another module, or a clock call renamed by an import alias.
The project model gives phase-2 rules that visibility:

* a **symbol table per module** — top-level and nested functions with
  dotted qualnames, every import binding (``from repro.x import f as
  g`` records ``g -> repro.x.f``), and module aliases;
* the **import graph** over the linted modules, resolved by dotted-name
  suffix so the model works for ``src/repro`` and for test fixture
  trees alike;
* an approximate **call graph** (see :mod:`repro.lint.callgraph`)
  resolved over those symbol tables, including fork/worker entrypoints
  (``Process(target=...)`` and callables shipped through ``.send``)
  and the async request handlers registered through ``*add_route``
  (the event-loop entrypoint family SRV001 polices);
* a **module-level mutable-state inventory** — names bound at import
  time to dicts/lists/sets/instances — plus a fork-unsafety
  classification (open file handles, locks/queues, ``Tracer``
  instances) for the RACE rule family.

Resolution is deliberately *approximate*: it follows names, aliased
imports, one-level re-exports, and ``self.``/``cls.`` methods of the
enclosing class. It does not track values through containers,
attributes of arbitrary objects, ``getattr``, decorators that replace
functions, or dynamic dispatch — ``docs/lint.md`` documents the limits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.core import Module, call_name

__all__ = [
    "ImportBinding",
    "ClassInfo",
    "FunctionInfo",
    "MutableGlobal",
    "ModuleInfo",
    "ProjectModel",
]

#: Constructors that produce a mutable container.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "bytearray", "defaultdict", "Counter",
    "deque", "OrderedDict", "ChainMap",
})

#: Constructors whose product is unsafe to share across a fork: the
#: child inherits the parent's lock state / file offset / buffered
#: bytes, and the two sides then interleave on one kernel object.
_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
    "Event", "Barrier", "Queue", "SimpleQueue", "JoinableQueue",
})


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
    nested: bool = False                # defined inside another function
    global_names: Set[str] = field(default_factory=set)

    @property
    def key(self) -> str:
        return f"{self.module.name}.{self.qualname}"


@dataclass
class MutableGlobal:
    """A module-level name bound at import time to mutable state."""

    module: "ModuleInfo"
    name: str
    node: ast.AST                       # the binding statement's value
    kind: str                           # container | instance | file | lock | tracer | pipe

    @property
    def fork_unsafe(self) -> bool:
        return self.kind in ("file", "lock", "tracer", "pipe")


def _dotted_name(node: ast.AST) -> str:
    """``a.b.C`` for a Name/Attribute chain, '' for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _classify_binding(value: ast.AST) -> Optional[str]:
    """Mutable-state classification of a module-level bound value."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.DictComp, ast.ListComp, ast.SetComp)):
        return "container"
    if isinstance(value, ast.Call):
        dotted = call_name(value)
        last = dotted.rsplit(".", 1)[-1]
        if last == "open":
            return "file"
        if last in _LOCK_FACTORIES:
            return "lock"
        if last == "Tracer":
            return "tracer"
        if last == "Pipe":
            return "pipe"
        if last in _MUTABLE_FACTORIES:
            return "container"
        if last[:1].isupper():
            # Approximation: a Capitalized call is an instantiation of
            # some class; treat the instance as mutable state.
            return "instance"
    return None


class ModuleInfo:
    """Symbol table and inventories for one parsed module."""

    def __init__(self, name: str, module: Module):
        self.name = name
        self.module = module
        self.imports: Dict[str, ImportBinding] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.mutable_globals: Dict[str, MutableGlobal] = {}
        #: Every module-level name bound by assignment (mutable or not);
        #: the ``global X`` rebinding check needs the full set.
        self.module_assigns: Set[str] = set()
        self._fn_by_node: Dict[int, FunctionInfo] = {}
        self._collect_imports()
        self._collect_functions(module.tree.body, prefix="", nested=False)
        self._collect_module_state()
        self._collect_global_decls()
        self._collect_attr_types()

    # -- collection ----------------------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.module.tree):
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

    def _collect_functions(
        self, body: List[ast.stmt], prefix: str, nested: bool
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                info = FunctionInfo(self, qual, node, nested=nested)
                self.functions[qual] = info
                self._fn_by_node[id(node)] = info
                self._collect_functions(node.body, f"{qual}.", nested=True)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}{node.name}"
                bases = [
                    base_name
                    for base in node.bases
                    if (base_name := _dotted_name(base))
                ]
                self.classes[qual] = ClassInfo(self, qual, node, bases=bases)
                self._collect_functions(
                    node.body, f"{qual}.", nested=nested
                )
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditional definitions (version guards) still count.
                for attr in ("body", "orelse", "finalbody"):
                    self._collect_functions(
                        getattr(node, attr, []) or [], prefix, nested
                    )
                for handler in getattr(node, "handlers", []) or []:
                    self._collect_functions(handler.body, prefix, nested)

    def _collect_module_state(self) -> None:
        for stmt in self.module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                self.module_assigns.add(name)
                if name.startswith("__"):
                    continue  # __all__ and friends are metadata
                kind = _classify_binding(value)
                if kind is not None:
                    self.mutable_globals[name] = MutableGlobal(
                        self, name, value, kind
                    )

    def _collect_global_decls(self) -> None:
        for node in ast.walk(self.module.tree):
            if not isinstance(node, ast.Global):
                continue
            fn = self.function_at(node)
            if fn is not None:
                fn.global_names.update(node.names)

    def _collect_attr_types(self) -> None:
        """``self.x = SomeClass(...)`` in a method types attribute x."""
        for cls in self.classes.values():
            for node in ast.walk(cls.node):
                if not isinstance(node, ast.Assign) or not isinstance(
                    node.value, ast.Call
                ):
                    continue
                constructed = _dotted_name(node.value.func)
                if not constructed or not constructed.rsplit(".", 1)[-1][:1].isupper():
                    continue
                for target in node.targets:
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
        current: Optional[ast.AST]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = self.module.parent(node)
        else:
            current = node
        while current is not None:
            info = self._fn_by_node.get(id(current))
            if info is not None:
                return info
            current = self.module.parent(current)
        return None

    @property
    def is_trace_module(self) -> bool:
        return "trace" in self.module.segments


class ProjectModel:
    """The assembled whole-program view handed to phase-2 rules."""

    def __init__(self):
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_rel_path: Dict[str, ModuleInfo] = {}
        self._suffix_cache: Dict[str, Optional[ModuleInfo]] = {}
        self.import_graph: Dict[str, Set[str]] = {}
        self.call_graph = None                      # set by build()
        self.worker_entrypoints: Dict[str, str] = {}
        self.worker_reachable: Dict[str, str] = {}  # key -> entrypoint key
        #: Registered async request handlers (the service route table)
        #: and their call-graph closure — the SRV001 root set.
        self.handler_entrypoints: Dict[str, str] = {}
        self.handler_reachable: Dict[str, str] = {}  # key -> handler key

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, modules: List[Module]) -> "ProjectModel":
        from repro.lint.callgraph import CallGraph

        project = cls()
        for module in modules:
            info = ModuleInfo(cls.module_name(module.rel_path), module)
            project.modules[info.name] = info
            project._by_rel_path[module.rel_path] = info
        project._build_import_graph()
        project.call_graph = CallGraph.build(project)
        project.worker_entrypoints = dict(project.call_graph.entrypoints)
        project.worker_reachable = project.call_graph.reachable(
            set(project.worker_entrypoints)
        )
        project.handler_entrypoints = dict(
            project.call_graph.handler_entrypoints
        )
        project.handler_reachable = project.call_graph.reachable(
            set(project.handler_entrypoints)
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

    def _build_import_graph(self) -> None:
        for info in self.modules.values():
            edges: Set[str] = set()
            for binding in info.imports.values():
                target = self.resolve_module(binding.module)
                if target is not None and target is not info:
                    edges.add(target.name)
            self.import_graph[info.name] = edges

    # -- resolution ----------------------------------------------------------

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

    def resolve_function(
        self, module_dotted: str, symbol: str, _depth: int = 4
    ) -> Optional[FunctionInfo]:
        """A function by (module, name), following re-exports.

        ``from repro.trace import set_tracer`` resolves through the
        package ``__init__`` to ``repro.trace.tracer.set_tracer``.
        """
        if _depth <= 0:
            return None
        info = self.resolve_module(module_dotted)
        if info is None:
            return None
        fn = info.functions.get(symbol)
        if fn is not None:
            return fn
        binding = info.imports.get(symbol)
        if binding is not None and binding.symbol is not None:
            return self.resolve_function(
                binding.module, binding.symbol, _depth - 1
            )
        return None

    def resolve_class(
        self, info: ModuleInfo, dotted: str, _depth: int = 4
    ) -> Optional[ClassInfo]:
        """A class named in ``info``'s namespace (``Runner``,
        ``jobs.JobSpec``), following imports and re-exports."""
        if _depth <= 0 or not dotted:
            return None
        head, _, rest = dotted.partition(".")
        cls = info.classes.get(dotted)
        if cls is not None:
            return cls
        binding = info.imports.get(head)
        if binding is None:
            return None
        if binding.symbol is None:
            # `import repro.runtime.jobs as jobs; jobs.JobSpec`
            target = self.resolve_module(binding.module)
            if target is not None and rest:
                return self.resolve_class(target, rest, _depth - 1)
            return None
        # `from repro.runtime.jobs import JobSpec [as J]`
        target = self.resolve_module(binding.module)
        if target is None:
            return None
        inner = binding.symbol + (("." + rest) if rest else "")
        return self.resolve_class(target, inner, _depth - 1)

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
            base_cls = self.resolve_class(cls.module, base)
            if base_cls is not None:
                fn = self.find_method(base_cls, method, _depth - 1)
                if fn is not None:
                    return fn
        return None

    def class_of_expr(
        self, info: ModuleInfo, fn: Optional["FunctionInfo"], expr: ast.AST
    ) -> Optional[ClassInfo]:
        """Best-effort static type of an expression.

        Understands ``SomeClass(...)`` construction, names bound by a
        local ``x = SomeClass(...)`` or an annotated parameter/variable
        inside ``fn``, and ``self.attr`` where the enclosing class
        recorded ``self.attr = SomeClass(...)``.
        """
        if isinstance(expr, ast.Call):
            return self.resolve_class(info, _dotted_name(expr.func))
        if isinstance(expr, ast.Name) and fn is not None:
            annotation = self._local_type(fn, expr.id)
            if annotation:
                return self.resolve_class(info, annotation)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and fn is not None
            and "." in fn.qualname
        ):
            cls = info.classes.get(fn.qualname.rsplit(".", 1)[0])
            if cls is not None:
                constructed = cls.attr_types.get(expr.attr)
                if constructed:
                    return self.resolve_class(info, constructed)
        return None

    @staticmethod
    def _local_type(fn: "FunctionInfo", name: str) -> str:
        """Annotation or construction class of a local name in ``fn``."""
        node = fn.node
        args = getattr(node, "args", None)
        if args is not None:
            every = (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            )
            for arg in every:
                if arg.arg == name and arg.annotation is not None:
                    annotation = arg.annotation
                    if isinstance(annotation, ast.Constant) and isinstance(
                        annotation.value, str
                    ):
                        return annotation.value
                    return _dotted_name(annotation)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                for target in sub.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return _dotted_name(sub.value.func)
            elif (
                isinstance(sub, ast.AnnAssign)
                and isinstance(sub.target, ast.Name)
                and sub.target.id == name
            ):
                return _dotted_name(sub.annotation)
        return ""

    def resolve_global(
        self, info: ModuleInfo, name: str
    ) -> Optional[MutableGlobal]:
        """A name in ``info``'s namespace as a module-level mutable —
        local to the module or imported from another linted module."""
        state = info.mutable_globals.get(name)
        if state is not None:
            return state
        binding = info.imports.get(name)
        if binding is not None and binding.symbol is not None:
            target = self.resolve_module(binding.module)
            if target is not None:
                state = target.mutable_globals.get(binding.symbol)
                if state is not None:
                    return state
                reexport = target.imports.get(binding.symbol)
                if reexport is not None and reexport.symbol is not None:
                    deeper = self.resolve_module(reexport.module)
                    if deeper is not None:
                        return deeper.mutable_globals.get(reexport.symbol)
        return None

    def functions(self) -> List[FunctionInfo]:
        out: List[FunctionInfo] = []
        for info in self.modules.values():
            out.extend(info.functions.values())
        return out
