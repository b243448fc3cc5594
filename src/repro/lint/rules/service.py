"""Service-layer rules: the SRV family.

The benchmark service runs every request handler on one asyncio event
loop. A single blocking call inside a handler stalls *every* tenant at
once — submissions, SSE streams, artifact downloads — which silently
breaks the fairness property the queue exists to provide. The failure
is invisible to the test suite at small scale (a 10 ms blocking read
passes every assertion) and catastrophic under load, which is exactly
the profile static enforcement is for.

**SRV001** walks the async request handlers registered through the
service's route table (``_add_route`` — a call-graph *handler
entrypoint*, see :mod:`repro.lint.project`) plus every ``async def``
reachable from them, and flags the blocking idioms the codebase
actually has to offer:

* ``time.sleep(...)`` — stalls the loop outright (``asyncio.sleep`` is
  the async form);
* builtin ``open(...)`` / un-awaited ``.read()`` / ``.readlines()`` —
  synchronous, unbounded file IO on the loop thread; push it through
  ``asyncio.to_thread`` instead;
* un-awaited no-argument ``.join()`` — a thread/process/pool join that
  parks the loop until some other process exits (``str.join`` always
  takes an argument, so the no-argument shape is unambiguous).

Calls inside ``await`` expressions are exempt (an awaited
``reader.read()`` is the *non*-blocking stream API), as are nested
``def``\\ s inside handlers — those are thunks handed to
``asyncio.to_thread``, which is the sanctioned escape hatch.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import (
    FUNCTION_DEFS,
    Finding,
    Module,
    Rule,
    Severity,
    call_name,
    register_rule,
)

__all__ = ["AsyncHandlerBlockingCallRule"]

#: Method names that read a whole stream synchronously.
_READ_METHODS = frozenset({"read", "readlines"})


def _is_awaited(module: Module, call: ast.Call) -> bool:
    parent = module.parent(call)
    return isinstance(parent, ast.Await)


@register_rule
class AsyncHandlerBlockingCallRule(Rule):
    """SRV001: no blocking calls inside async request handlers.

    One blocked event loop is a whole blocked service: every tenant's
    stream and submission stops while the call runs. Route blocking
    work through ``asyncio.to_thread`` (pass the function, call it off
    the loop) or use the async counterpart.
    """

    rule_id = "SRV001"
    severity = Severity.ERROR
    description = (
        "async request handlers (and async code they call) must not "
        "block the event loop: no time.sleep, synchronous open/read, "
        "or bare .join() — use asyncio.to_thread or async APIs"
    )
    scope = ("service",)

    def check_project(self, project) -> Iterator[Finding]:
        for key in sorted(project.handler_reachable):
            fn = project.functions[key]
            if not isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            module = fn.module.module
            if not self.applies_to(module):
                continue
            root = project.handler_reachable[key]
            yield from self._check_handler(module, fn, root)

    def _check_handler(self, module: Module, fn, root: str) -> Iterator[Finding]:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if next(module.ancestors(node, FUNCTION_DEFS)) is not fn.node:
                continue  # nested def (off-loop thunk) or foreign scope
            blocking = self._blocking_kind(module, node)
            if blocking is None:
                continue
            root_name = root.rsplit(".", 1)[-1]
            if fn.qualname.rsplit(".", 1)[-1] == root_name:
                where = f"inside registered async handler `{fn.qualname}`"
            else:
                where = (
                    f"inside `{fn.qualname}`, reachable from registered "
                    f"async handler `{root_name}`"
                )
            yield module.finding(
                self, node,
                f"{blocking} {where} blocks the event loop for every "
                f"tenant at once; run it through asyncio.to_thread or use "
                f"the async counterpart",
            )

    def _blocking_kind(self, module: Module, call: ast.Call) -> Optional[str]:
        dotted = call_name(call)
        if dotted == "time.sleep" or dotted.endswith(".time.sleep"):
            return "`time.sleep()`"
        if dotted == "open":
            return "synchronous `open()`"
        if not isinstance(call.func, ast.Attribute):
            return None
        attr = call.func.attr
        if _is_awaited(module, call):
            return None  # awaited stream APIs are the async form
        if attr in _READ_METHODS:
            return f"un-awaited synchronous `.{attr}()`"
        if attr == "join" and not call.args:
            # str.join always takes the iterable positionally, so a
            # no-argument .join() is a thread/process/pool join.
            return "blocking `.join()`"
        return None
