"""The approximate call graph over a :class:`~repro.lint.project.ProjectModel`.

Nodes are project functions keyed by ``module.qualname``
(``repro.runtime.pool._worker_main``). Edges come from one walk over
every module's AST, resolving each call through the per-module symbol
tables:

* ``helper(...)``          — sibling nested function, then module-level
  function, then an imported symbol (re-exports followed);
* ``mod.helper(...)``      — ``mod`` bound by ``import``;
* ``self.meth(...)`` / ``cls.meth(...)`` — method of the enclosing class;
* a nested ``def`` adds an edge from the definer to the nested function
  (if the outer function runs, the inner one may).

The graph also records **worker entrypoints** — the fork boundary the
RACE rules reason about: any function passed as ``target=`` to a
``*.Process(...)`` call or to ``repro.proc``'s ``Child(...)`` (the one
spawn site under ``src/repro``), and any function shipped through a
``*.send(...)`` pipe payload (a callable dispatched to the other side).

It separately records **handler entrypoints** — async request handlers
registered through a ``*_add_route(...)``/``add_route(...)`` call (the
service's route table). Handlers are reachability roots of a different
kind than fork entrypoints: they run *inside* the server's event loop,
so the SRV001 rule polices them for blocking calls rather than for
fork-divergent state.

What the resolver deliberately does *not* see: calls through
containers or arbitrary object attributes, ``getattr``-style dynamic
dispatch, decorators that swap the function object, and methods called
on values whose class it cannot name. Rules built on the graph are
therefore under-approximate — they miss exotic call paths rather than
invent false ones.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.lint.core import call_name
from repro.lint.project import FunctionInfo, ModuleInfo, ProjectModel

__all__ = ["SPAWN_CALLS", "CallSite", "CallGraph"]

#: Call names whose ``target=`` keyword crosses the fork boundary:
#: ``multiprocessing``'s ``Process`` and :class:`repro.proc.Child`.
SPAWN_CALLS = ("Process", "Child")


@dataclass
class CallSite:
    """One resolved call expression inside a project function."""

    caller: str            # FunctionInfo.key
    callee: str            # FunctionInfo.key
    node: ast.Call


class CallGraph:
    """Adjacency over project functions plus the fork-entrypoint set."""

    def __init__(self) -> None:
        self.nodes: Dict[str, FunctionInfo] = {}
        self.edges: Dict[str, Set[str]] = {}
        self.reverse: Dict[str, Set[str]] = {}
        self.call_sites: List[CallSite] = []
        #: entrypoint key -> how it was detected ("Process target" /
        #: "pipe-dispatched callable").
        self.entrypoints: Dict[str, str] = {}
        #: async request handlers registered via *add_route: key -> how.
        self.handler_entrypoints: Dict[str, str] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, project: ProjectModel) -> "CallGraph":
        graph = cls()
        for info in project.modules.values():
            for fn in info.functions.values():
                graph.nodes[fn.key] = fn
                graph.edges.setdefault(fn.key, set())
                graph.reverse.setdefault(fn.key, set())
        for info in project.modules.values():
            graph._walk_module(project, info)
        return graph

    def _add_edge(self, caller: Optional[FunctionInfo], callee: FunctionInfo,
                  node: Optional[ast.Call] = None) -> None:
        if caller is None:
            return
        self.edges.setdefault(caller.key, set()).add(callee.key)
        self.reverse.setdefault(callee.key, set()).add(caller.key)
        if node is not None:
            self.call_sites.append(CallSite(caller.key, callee.key, node))

    def _walk_module(self, project: ProjectModel, info: ModuleInfo) -> None:
        for node in ast.walk(info.module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                outer = info.function_at(node)
                inner = info.functions.get(
                    self._qualname_of(info, node)
                ) if outer is not None else None
                if outer is not None and inner is not None:
                    self._add_edge(outer, inner)
                continue
            if not isinstance(node, ast.Call):
                continue
            caller = info.function_at(node)
            callee = self.resolve_call(project, info, caller, node)
            if callee is not None:
                self._add_edge(caller, callee, node)
            self._detect_entrypoints(project, info, caller, node)

    @staticmethod
    def _qualname_of(info: ModuleInfo, node: ast.AST) -> str:
        """Recover a def node's qualname via its registered FunctionInfo."""
        for qual, fn in info.functions.items():
            if fn.node is node:
                return qual
        return getattr(node, "name", "")

    # -- resolution ------------------------------------------------------

    def resolve_call(
        self,
        project: ProjectModel,
        info: ModuleInfo,
        caller: Optional[FunctionInfo],
        call: ast.Call,
    ) -> Optional[FunctionInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(project, info, caller, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if isinstance(func.value, ast.Name):
            base = func.value.id
            if base in ("self", "cls") and caller is not None:
                prefix = caller.qualname.rsplit(".", 1)[0]
                if prefix and prefix != caller.qualname:
                    cls = info.classes.get(prefix)
                    if cls is not None:
                        method = project.find_method(cls, attr)
                        if method is not None:
                            return method
                    return info.functions.get(f"{prefix}.{attr}")
                return None
            binding = info.imports.get(base)
            if binding is not None and binding.symbol is None:
                resolved = project.resolve_function(binding.module, attr)
                if resolved is not None:
                    return resolved
        # Typed receiver: `runner.run_job(...)` where the resolver knows
        # runner's class from an annotation, a local construction, or a
        # recorded `self.attr = Class(...)`.
        receiver = project.class_of_expr(info, caller, func.value)
        if receiver is not None:
            return project.find_method(receiver, attr)
        return None

    def resolve_name(
        self,
        project: ProjectModel,
        info: ModuleInfo,
        caller: Optional[FunctionInfo],
        name: str,
    ) -> Optional[FunctionInfo]:
        """A bare name in ``caller``'s scope, as a project function."""
        if caller is not None:
            parts = caller.qualname.split(".")
            for cut in range(len(parts), 0, -1):
                candidate = ".".join(parts[:cut] + [name])
                fn = info.functions.get(candidate)
                if fn is not None:
                    return fn
        fn = info.functions.get(name)
        if fn is not None:
            return fn
        binding = info.imports.get(name)
        if binding is not None and binding.symbol is not None:
            return project.resolve_function(binding.module, binding.symbol)
        return None

    # -- entrypoints -------------------------------------------------------

    def _detect_entrypoints(
        self,
        project: ProjectModel,
        info: ModuleInfo,
        caller: Optional[FunctionInfo],
        call: ast.Call,
    ) -> None:
        dotted = call_name(call)
        last = dotted.rsplit(".", 1)[-1]
        if last in ("_add_route", "add_route"):
            # Route registration: the handler is the last positional
            # argument (or an explicit handler= keyword). Registered
            # handlers are the async-entrypoint family SRV001 roots on.
            candidates: List[ast.AST] = []
            if call.args:
                candidates.append(call.args[-1])
            for keyword in call.keywords:
                if keyword.arg == "handler":
                    candidates.append(keyword.value)
            for candidate in candidates:
                fn = self._resolve_function_ref(
                    project, info, caller, candidate
                )
                if fn is not None:
                    self.handler_entrypoints.setdefault(
                        fn.key, "registered request handler"
                    )
            return
        if last in SPAWN_CALLS:
            for keyword in call.keywords:
                if keyword.arg != "target":
                    continue
                target = keyword.value
                if isinstance(target, ast.Name):
                    fn = self.resolve_name(project, info, caller, target.id)
                    if fn is not None:
                        self.entrypoints.setdefault(fn.key, "Process target")
            return
        if isinstance(call.func, ast.Attribute) and call.func.attr == "send":
            for arg in call.args:
                # A name that is itself *called* inside the payload is
                # not dispatched — only bare function references are.
                called = {
                    id(sub.func)
                    for sub in ast.walk(arg)
                    if isinstance(sub, ast.Call)
                }
                for sub in ast.walk(arg):
                    if not isinstance(sub, ast.Name) or id(sub) in called:
                        continue
                    fn = self.resolve_name(project, info, caller, sub.id)
                    if fn is not None:
                        self.entrypoints.setdefault(
                            fn.key, "pipe-dispatched callable"
                        )

    def _resolve_function_ref(
        self,
        project: ProjectModel,
        info: ModuleInfo,
        caller: Optional[FunctionInfo],
        expr: ast.AST,
    ) -> Optional[FunctionInfo]:
        """A *reference* (not a call) to a project function: a bare
        name, or ``self.method``/``cls.method`` of the enclosing class."""
        if isinstance(expr, ast.Name):
            return self.resolve_name(project, info, caller, expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and caller is not None
        ):
            prefix = caller.qualname.rsplit(".", 1)[0]
            if prefix and prefix != caller.qualname:
                cls = info.classes.get(prefix)
                if cls is not None:
                    method = project.find_method(cls, expr.attr)
                    if method is not None:
                        return method
                return info.functions.get(f"{prefix}.{expr.attr}")
        return None

    # -- traversal ---------------------------------------------------------

    def reachable(self, roots: Set[str]) -> Dict[str, str]:
        """Every function reachable from ``roots`` (roots included),
        mapped to the root it was first discovered from."""
        origin: Dict[str, str] = {}
        queue = deque()
        for root in sorted(roots):
            if root in self.nodes and root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            current = queue.popleft()
            for nxt in sorted(self.edges.get(current, ())):
                if nxt not in origin:
                    origin[nxt] = origin[current]
                    queue.append(nxt)
        return origin

    def reaches(self, targets: Set[str]) -> Set[str]:
        """Every function from which some target is reachable
        (targets included) — reverse-edge closure."""
        seen: Set[str] = set()
        queue = deque(t for t in sorted(targets) if t in self.nodes)
        seen.update(queue)
        while queue:
            current = queue.popleft()
            for prev in sorted(self.reverse.get(current, ())):
                if prev not in seen:
                    seen.add(prev)
                    queue.append(prev)
        return seen
