"""Concurrency / fork-safety rules: the RACE family.

The runtime executes jobs in fork-spawned worker processes
(:mod:`repro.runtime.pool`). Fork semantics make one bug shape easy to
write and nearly impossible to test for:

* **RACE003** — a fork-unsafe resource created at import time (open
  file handle, ``threading``/``multiprocessing`` lock or queue, a
  ``Tracer``) and referenced by worker-reachable code. The child
  inherits the parent's file offset, lock state, or span buffer; both
  sides then interleave on one kernel object or duplicate buffered
  records.

It is a whole-program rule (:meth:`Rule.check_project`): it needs the
call graph's worker-reachable closure and the cross-module binding
inventory.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.lint.core import Finding, Rule, Severity, register_rule

__all__ = ["ForkUnsafeImportResourceRule"]


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
                if state is None or state.kind is None:
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
