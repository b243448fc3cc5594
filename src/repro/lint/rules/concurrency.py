"""Concurrency / fork-safety rules: the RACE family.

The runtime executes jobs in fork-spawned worker processes
(:mod:`repro.runtime.pool`). Fork semantics make three bug shapes easy
to write and nearly impossible to test for:

* **RACE001** — a module-level mutable (dict, list, instance) mutated
  by code reachable from a worker entrypoint. Each worker mutates its
  *own fork-inherited copy*; the dispatcher's copy never changes, so
  inline (``--workers 0``) and pooled runs silently diverge — the
  benchmark's serial/parallel bit-identity guarantee breaks without a
  single test failing.
* **RACE002** — an unpicklable or closure-capturing object placed into
  a job payload or ``Pipe`` send: lambdas, nested functions, generator
  expressions, open file handles. These either raise
  ``PicklingError`` at dispatch time or (worse) pickle a stale
  snapshot of captured state.
* **RACE003** — a fork-unsafe resource created at import time (open
  file handle, ``threading``/``multiprocessing`` lock or queue, a
  ``Tracer``) and referenced by worker-reachable code. The child
  inherits the parent's file offset, lock state, or span buffer; both
  sides then interleave on one kernel object or duplicate buffered
  records.

RACE001/003 are whole-program rules (:meth:`Rule.check_project`): they
need the call graph's worker-reachable closure and the cross-module
mutable-state inventory. RACE002 is a per-file rule: the payload
expression and the closure it captures are visible in one module.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.core import (
    FUNCTION_DEFS,
    MUTATING_METHODS,
    Finding,
    Module,
    Rule,
    Severity,
    call_name,
    local_names,
    register_rule,
)
from repro.lint.project import SPAWN_CALLS

__all__ = [
    "WorkerGlobalMutationRule",
    "UnpicklablePayloadRule",
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


#: Receiver-name fragments identifying pipe/queue channels: the
#: runtime's conventions (`result_conn`, `task_send`, `pipe`, ...).
_CHANNEL_TOKENS = ("conn", "pipe", "chan", "sock", "queue", "send")


@register_rule
class UnpicklablePayloadRule(Rule):
    """RACE002: unpicklable or closure-capturing object in a job payload.

    Everything crossing the dispatcher/worker boundary is pickled.
    Lambdas and nested functions do not pickle at all; generator
    expressions do not pickle; an ``open(...)`` handle pickles its
    *path* at best and loses its offset and buffer always. Even when a
    captured object sneaks through, the worker gets a snapshot — later
    mutations on either side are invisible to the other. Payloads must
    be plain data (dataclasses, dicts, tuples of primitives).
    """

    rule_id = "RACE002"
    severity = Severity.ERROR
    description = (
        "job payloads / Pipe sends must carry plain picklable data, "
        "not lambdas, nested functions, generators, or open handles"
    )
    # The subsystems that marshal payloads across process forks: the
    # runtime pool/service plane, the partitioned shard engine, and the
    # supervised-child primitive both are built on.
    scope = ("runtime", "partitioned", "proc")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            for payload, where in self._payload_exprs(node):
                yield from self._scan_payload(module, node, payload, where)

    def _payload_exprs(self, call: ast.Call):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "send":
            receiver = call_name(func.value) or ""
            if any(token in receiver.lower() for token in _CHANNEL_TOKENS):
                for arg in call.args:
                    yield arg, "Pipe send"
            return
        last = call_name(call).rsplit(".", 1)[-1]
        if last in SPAWN_CALLS:
            for keyword in call.keywords:
                if keyword.arg == "args":
                    yield keyword.value, "Process args"
        elif isinstance(func, ast.Attribute) and func.attr == "submit":
            for arg in call.args:
                yield arg, "pool submit"

    def _scan_payload(
        self, module: Module, call: ast.Call, payload: ast.AST, where: str
    ) -> Iterator[Finding]:
        nested_defs = self._enclosing_nested_defs(module, call)
        called = {
            id(sub.func) for sub in ast.walk(payload)
            if isinstance(sub, ast.Call)
        }
        for sub in ast.walk(payload):
            if isinstance(sub, ast.Lambda):
                yield module.finding(
                    self, sub,
                    f"lambda in a {where} payload: lambdas do not pickle "
                    f"and capture their defining scope by reference",
                )
            elif isinstance(sub, ast.GeneratorExp):
                yield module.finding(
                    self, sub,
                    f"generator expression in a {where} payload: "
                    f"generators are unpicklable — materialize a list",
                )
            elif isinstance(sub, ast.Call) and call_name(sub) == "open":
                yield module.finding(
                    self, sub,
                    f"open file handle in a {where} payload: handles do "
                    f"not survive pickling (offset and buffer are lost) "
                    f"— send the path and reopen on the worker side",
                )
            elif (
                isinstance(sub, ast.Name)
                and id(sub) not in called
                and sub.id in nested_defs
            ):
                yield module.finding(
                    self, sub,
                    f"nested function `{sub.id}` in a {where} payload: "
                    f"closures do not pickle — move it to module level "
                    f"and ship plain arguments",
                )

    @staticmethod
    def _enclosing_nested_defs(module: Module, node: ast.AST) -> Set[str]:
        """Names of functions defined inside any function enclosing node."""
        return {
            sub.name
            for scope in module.ancestors(node, FUNCTION_DEFS)
            for sub in ast.walk(scope)
            if isinstance(sub, FUNCTION_DEFS) and sub is not scope
        }


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
