"""Concurrency / fork-safety rules: the RACE family.

The runtime executes jobs in fork-spawned worker processes
(:mod:`repro.runtime.pool`). Fork semantics make two bug shapes easy
to write and nearly impossible to test for:

* **RACE001** — a module-level mutable (dict, list, instance) mutated
  by code reachable from a worker entrypoint. Each worker mutates its
  *own fork-inherited copy*; the dispatcher's copy never changes, so
  inline (``--workers 0``) and pooled runs silently diverge — the
  benchmark's serial/parallel bit-identity guarantee breaks without a
  single test failing.
* **RACE003** — a fork-unsafe resource created at import time (open
  file handle, ``threading``/``multiprocessing`` lock or queue, a
  ``Tracer``) and referenced by worker-reachable code. The child
  inherits the parent's file offset, lock state, or span buffer; both
  sides then interleave on one kernel object or duplicate buffered
  records.

Both are whole-program rules (:meth:`Rule.check_project`): they need
the call graph's worker-reachable closure and the cross-module
mutable-state inventory.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.core import (
    MUTATING_METHODS,
    Finding,
    Rule,
    Severity,
    local_names,
    register_rule,
)

__all__ = [
    "WorkerGlobalMutationRule",
    "ForkUnsafeImportResourceRule",
]


def _assigned_names(node: ast.AST) -> Set[str]:
    """Plain-name binding targets of an assignment-like statement.

    Only direct ``Name`` targets count: ``X[k] = v`` mutates, it does
    not rebind, and is handled by the item-assignment check instead.
    """
    names: Set[str] = set()
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub in target.elts:
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


@register_rule
class WorkerGlobalMutationRule(Rule):
    """RACE001: module-level mutable state mutated on the worker side.

    After ``fork``, each worker owns a private copy-on-write snapshot
    of every module global. A mutation in worker-reachable code updates
    only that snapshot: the dispatcher (and every sibling worker) keeps
    the old value, so inline and pooled runs of the same matrix see
    different state. Move the state into the job payload/result, the
    content-addressed cache, or per-process objects built after fork.
    """

    rule_id = "RACE001"
    severity = Severity.ERROR
    description = (
        "module-level mutable state must not be mutated by code "
        "reachable from fork-pool worker entrypoints"
    )
    scope = None

    def check_project(self, project) -> Iterator[Finding]:
        for info in project.modules.values():
            module = info.module
            for node in module.nodes:
                fn = info.function_at(node)
                if fn is None or fn.key not in project.worker_reachable:
                    continue
                root = project.worker_reachable[fn.key]
                for name, how, anchor in self._mutations(project, info, fn, node):
                    state = project.resolve_global(info, name)
                    owner = state.module.name if state is not None else info.name
                    yield module.finding(
                        self, anchor,
                        f"{how} of module-level mutable `{name}` (defined "
                        f"in {owner}) runs on the worker side of the fork "
                        f"(reachable from `{root}`); fork-inherited "
                        f"globals silently diverge between inline and "
                        f"pooled runs — carry this state in the job "
                        f"payload/result or rebuild it per process",
                    )

    def _mutations(
        self, project, info, fn, node
    ) -> Iterator[Tuple[str, str, ast.AST]]:
        # `global X` rebinding (or augmented assignment through it).
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for name in _assigned_names(node) & fn.global_names:
                if name in info.module_assigns:
                    yield name, "rebinding (via `global`)", node
            # Subscript store: X[k] = v / X[k] += v.
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = self._subscript_root(target)
                if name is not None and self._is_module_state(
                    project, info, fn, name
                ):
                    yield name, "item assignment", node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = self._subscript_root(target)
                if name is not None and self._is_module_state(
                    project, info, fn, name
                ):
                    yield name, "item deletion", node
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr not in MUTATING_METHODS:
                return
            base = node.func.value
            if isinstance(base, ast.Name) and self._is_module_state(
                project, info, fn, base.id
            ):
                yield base.id, f"`.{node.func.attr}()` call", node

    @staticmethod
    def _subscript_root(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            return target.value.id
        return None

    @staticmethod
    def _is_module_state(project, info, fn, name: str) -> bool:
        # A parameter or local is process-private, not module state.
        return (
            project.resolve_global(info, name) is not None
            and name not in local_names(fn.node)
        )


@register_rule
class ForkUnsafeImportResourceRule(Rule):
    """RACE003: fork-unsafe resource created at import time and used in
    worker-reachable code.

    A file handle, lock/queue, or ``Tracer`` built when the module is
    imported exists *before* the fork, so parent and child share the
    kernel object behind it: writes interleave at one file offset, a
    lock held at fork time is held forever in the child, and a tracer's
    buffered spans are emitted twice. Construct such resources after
    the fork (inside the worker entrypoint) or guard them per-process.
    """

    rule_id = "RACE003"
    severity = Severity.WARNING
    description = (
        "fork-unsafe resources (files, locks, tracers) must not be "
        "created at import time and used on both sides of a fork"
    )
    scope = None

    def check_project(self, project) -> Iterator[Finding]:
        reported: Set[Tuple[str, str]] = set()
        for info in project.modules.values():
            for node in info.module.nodes:
                if not isinstance(node, ast.Name) or not isinstance(
                    node.ctx, ast.Load
                ):
                    continue
                fn = info.function_at(node)
                if fn is None or fn.key not in project.worker_reachable:
                    continue
                state = project.resolve_global(info, node.id)
                if state is None or not state.fork_unsafe:
                    continue
                key = (state.module.name, state.name)
                if key in reported:
                    continue
                reported.add(key)
                root = project.worker_reachable[fn.key]
                yield state.module.module.finding(
                    self, state.node,
                    f"import-time {state.kind} `{state.name}` is used by "
                    f"`{fn.key}`, which runs on the worker side of the "
                    f"fork (reachable from `{root}`); both sides share "
                    f"the underlying kernel object — construct it after "
                    f"the fork or per process",
                )
