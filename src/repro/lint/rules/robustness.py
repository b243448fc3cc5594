"""Harness robustness rules: EXC001, RUN001, ROB001, ROB003.

The harness records modeled failures (OOM, crash, SLA breach) as data;
what it must never do is *swallow* them. An over-broad ``except`` in a
retry or orchestration path can turn a failed job into a silently
missing row, corrupting the benchmark's failure statistics (paper §4.6
stress test counts failures explicitly). The concurrent runtime
sharpens the contract (RUN001): its worker and job entrypoints may
catch broadly — that is how a crashing job becomes a ``harness-*`` row
— but only if the handler demonstrably converts the exception into a
structured failure record or re-raises.

Crash-safety extends the same discipline to persistence (ROB001): a
run artifact written with ``open(..., "w")`` or ``write_text`` is
truncated before the new bytes land, so a crash mid-write destroys the
previous good copy. Every run artifact must go through
:func:`repro.ioutil.atomic_write` (write-to-temp, fsync, rename);
append-mode writes — the journal's own medium — are exempt.

The results store closes the set (ROB003): SQLite connections carry
their own durability contract — WAL, ``synchronous=FULL``, ``BEGIN
IMMEDIATE`` writer serialization, the ``resultsdb.commit`` fault point
— and that contract lives in exactly one place,
:class:`repro.resultsdb.store.ResultsStore`. A ``sqlite3.connect``
anywhere else is a second, incompatible opinion about the same
database file.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.core import (
    FUNCTION_DEFS,
    Finding,
    Module,
    Rule,
    Severity,
    call_name,
    names_in,
    register_rule,
    stdlib_calls,
)

__all__ = [
    "SwallowedExceptionRule",
    "RuntimeFailureRecordRule",
    "AtomicArtifactWriteRule",
    "SanctionedSqliteConnectRule",
]

#: Exception names considered over-broad for a silent handler: the
#: builtins plus the library's own base class (catching a *specific*
#: GraphalyticsError subclass is legitimate harness behavior).
_BROAD_NAMES = {"Exception", "BaseException", "GraphalyticsError"}


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return []
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = []
    for t in types:
        if isinstance(t, ast.Name):
            names.append(t.id)
        elif isinstance(t, ast.Attribute):
            names.append(t.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


@register_rule
class SwallowedExceptionRule(Rule):
    """EXC001: broad except swallowing benchmark failures.

    A bare ``except:``, ``except Exception``, or ``except
    GraphalyticsError`` that neither re-raises nor narrows the type can
    absorb SLA violations, validation failures, and driver errors in
    harness retry paths. Catch the specific subclass you can handle, or
    re-raise after recording.
    """

    rule_id = "EXC001"
    severity = Severity.WARNING
    description = "broad except swallows GraphalyticsError in harness paths"
    scope = ("harness", "platforms", "granula")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _reraises(node):
                continue
            if node.type is None:
                yield module.finding(
                    self, node,
                    "bare `except:` swallows every failure, including "
                    "benchmark errors; catch a specific exception",
                )
                continue
            broad = [n for n in _handler_names(node) if n in _BROAD_NAMES]
            if broad:
                yield module.finding(
                    self, node,
                    f"`except {'/'.join(broad)}` without re-raise can "
                    f"swallow benchmark failures; catch the specific "
                    f"subclass or re-raise after recording",
                )


#: Function-name tokens identifying runtime worker/job entrypoints: the
#: paths where an exception IS a job outcome and must become data.
_ENTRYPOINT_TOKENS = (
    "worker", "job", "dispatch", "task", "attempt", "envelope", "run_",
    "serve",
)

#: Identifier fragments that show the handler produces a structured
#: failure record (JobFailure, AttemptRecord, failure envelopes, the
#: scheduler's record_attempt / attempt_failed transitions).
_RECORD_TOKENS = ("fail", "attempt")


def _records_failure(handler: ast.ExceptHandler) -> bool:
    found = names_in(handler)
    return any(
        token in name.lower() for name in found for token in _RECORD_TOKENS
    )


@register_rule
class RuntimeFailureRecordRule(Rule):
    """RUN001: runtime entrypoint drops an exception without a record.

    In ``repro.runtime``, a worker loop or job-execution function that
    catches broadly must turn the exception into a structured failure
    record (an :class:`~repro.runtime.jobs.AttemptRecord` /
    :class:`~repro.runtime.jobs.JobFailure` / failure envelope) or
    re-raise. Anything else silently loses a job — the exact failure
    mode the runtime exists to make impossible.
    """

    rule_id = "RUN001"
    severity = Severity.ERROR
    description = (
        "runtime worker/job entrypoint must re-raise or convert "
        "exceptions into structured failure records"
    )
    # ``proc``: the one child command loop (``repro.proc.serve``) that
    # the pool's workers and the engine's shards both run.
    scope = ("runtime", "proc")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            function = next(
                (f.name for f in module.ancestors(node, FUNCTION_DEFS)), None
            )
            if function is None or not any(
                token in function.lower() for token in _ENTRYPOINT_TOKENS
            ):
                continue
            handled = _handler_names(node)
            if node.type is not None and not any(
                name in _BROAD_NAMES for name in handled
            ):
                continue  # narrow handler: not a job-outcome path
            if _reraises(node) or _records_failure(node):
                continue
            caught = "/".join(handled) if handled else "bare except"
            yield module.finding(
                self, node,
                f"`{caught}` in runtime entrypoint `{function}` neither "
                f"re-raises nor produces a structured failure record "
                f"(AttemptRecord/JobFailure/failure envelope); the job "
                f"would be silently lost",
            )


#: Path-like methods that replace a file's contents in place.
_WRITE_METHODS = ("write_text", "write_bytes")


def _open_mode(call: ast.Call, *, is_method: bool) -> Optional[ast.expr]:
    """The mode expression of an ``open``-shaped call, if present.

    Builtin ``open(path, mode)`` takes the mode second; the
    ``Path.open(mode)`` method takes it first.
    """
    index = 0 if is_method else 1
    if len(call.args) > index:
        return call.args[index]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _truncating_writes(module: Module) -> Iterator[Tuple[ast.Call, str]]:
    """Every call in ``module`` that replaces a file's contents in
    place, with a short description: ``write_text``/``write_bytes``,
    and ``open`` with a constant ``w`` or ``x`` mode. Appends never
    destroy prior records; dynamic modes are undecidable; neither is
    flagged.
    """
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            yield node, f".{func.attr}()"
            continue
        is_open = (
            isinstance(func, ast.Name) and func.id == "open"
        ) or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open:
            continue
        mode = _open_mode(node, is_method=isinstance(func, ast.Attribute))
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(flag in mode.value for flag in "wx")
        ):
            yield node, f"open(..., {mode.value!r})"


class _ConfinementRule(Rule):
    """Shared shape of ROB001/ROB003 and OBS001: a *confined
    call* (a file write, a SQLite connect, a clock read) may appear
    only inside its sanctuary.

    A subclass names the confined calls (:meth:`matches`, as ``(node,
    desc)`` pairs), the modules that are the sanctioned medium
    (:meth:`sanctuary` — never flagged, never tainting their callers)
    and two message templates: ``direct_message`` (``{desc}``) for a
    confined call written in scope, ``taint_message`` (``{callee}``,
    ``{desc}``, ``{root}``) for one reached through an out-of-scope
    helper.
    """

    direct_message = ""
    taint_message = ""

    def matches(self, module: Module) -> Iterator[Tuple[ast.AST, str]]:
        raise NotImplementedError

    def sanctuary(self, module: Module) -> bool:
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        if self.sanctuary(module):
            return
        for node, desc in self.matches(module):
            yield module.finding(
                self, node, self.direct_message.format(desc=desc)
            )

    def check_project(self, project) -> Iterator[Finding]:
        """Interprocedural pass: an in-scope module that reaches the
        confined call through a helper in an *out-of-scope* module
        (``from repro.util import dump_json``) breaks the rule just the
        same — the per-file pass never sees the helper's call. Taint
        every out-of-scope, out-of-sanctuary function containing a
        confined call, close over reverse call edges, and flag the
        in-scope call sites that cross into the tainted region.
        """
        tainted: Dict[str, str] = {}
        for info in project.modules.values():
            if self.sanctuary(info.module) or self.applies_to(info.module):
                continue  # in-scope calls are the per-file pass's job
            for node, desc in self.matches(info.module):
                fn = info.function_at(node)
                if fn is not None:
                    tainted.setdefault(fn.key, desc)
        if not tainted:
            return
        # Every function from which a tainted one is reachable, mapped
        # to the tainted function it first reaches.
        origin = project.closure(tainted, reverse=True)
        for site in project.call_sites:
            root = origin.get(site.callee.key)
            if root is None or self.applies_to(site.callee.module.module):
                continue  # untainted, or the callee's own call is flagged directly
            caller_module = site.caller.module.module
            if not self.applies_to(caller_module) or self.sanctuary(
                caller_module
            ):
                continue  # only flag where the taint enters scoped code
            yield caller_module.finding(
                self, site.node,
                self.taint_message.format(
                    callee=site.callee.key, desc=tainted[root], root=root
                ),
            )


@register_rule
class AtomicArtifactWriteRule(_ConfinementRule):
    """ROB001: run artifact written without ``atomic_write``.

    ``open(path, "w")`` truncates the destination before the new bytes
    are written, and ``Path.write_text`` is the same operation spelled
    differently: a crash (SIGKILL, OOM) between truncate and close
    leaves a torn or empty file where the last good artifact used to
    be. Resumable runs depend on every results database, report, and
    journal checkpoint surviving a crash, so run artifacts must be
    produced via :func:`repro.ioutil.atomic_write` (temp file + fsync +
    atomic rename). Append-mode opens are exempt:
    appends never destroy prior records, and the write-ahead journal
    itself is an append-only file.
    """

    rule_id = "ROB001"
    severity = Severity.ERROR
    description = (
        "run artifacts must be written via repro.ioutil.atomic_write, "
        "not in-place open('w')/write_text"
    )
    scope = ("harness", "runtime", "granula", "lint")
    direct_message = (
        "`{desc}` truncates in place; a crash mid-write leaves a torn run "
        "artifact — use repro.ioutil.atomic_write (append modes are exempt)"
    )
    taint_message = (
        "call to `{callee}` ends in a non-atomic `{desc}` (inside "
        "`{root}`); the artifact is torn on crash exactly as if written "
        "here — route the write through repro.ioutil.atomic_write"
    )

    def matches(self, module: Module) -> Iterator[Tuple[ast.Call, str]]:
        return _truncating_writes(module)


@register_rule
class SanctionedSqliteConnectRule(_ConfinementRule):
    """ROB003: SQLite connection opened outside ``repro.resultsdb``.

    The results store is *one* database with one durability contract:
    WAL mode, ``synchronous=FULL``, writers serialized by ``BEGIN
    IMMEDIATE``, and every COMMIT threaded through the registered
    ``resultsdb.commit`` fault point. A ``sqlite3.connect`` anywhere
    else produces a connection with none of those properties — default
    journal mode, autocommit surprises, and writes no chaos plan can
    reach — silently forking the store's semantics. Like ROB001, the
    rule is interprocedural: handing the path to an out-of-scope helper
    that opens the connection for you is the same hole. Helpers inside
    ``repro.resultsdb`` are the sanctioned surface and never taint
    their callers.
    """

    rule_id = "ROB003"
    severity = Severity.ERROR
    description = (
        "sqlite3 connections may only be opened inside repro.resultsdb; "
        "everywhere else must go through ResultsStore"
    )
    scope = (
        "harness", "service", "granula", "runtime", "cli", "faults",
        "engines", "benchmarks",
    )
    direct_message = (
        "`{desc}` opens a raw SQLite connection outside repro.resultsdb: "
        "it skips the store's WAL/synchronous pragmas, its BEGIN IMMEDIATE "
        "writer discipline, and the resultsdb.commit fault point — go "
        "through repro.resultsdb.ResultsStore"
    )
    taint_message = (
        "call to `{callee}` ends in a raw `{desc}` (inside `{root}`) "
        "outside repro.resultsdb — the connection skips the store's "
        "pragmas, transactions, and the resultsdb.commit fault point; go "
        "through repro.resultsdb.ResultsStore"
    )

    def matches(self, module: Module) -> Iterator[Tuple[ast.Call, str]]:
        for call, _, _ in stdlib_calls(module, "sqlite3", ("connect",)):
            yield call, f"{call_name(call)}(...)"

    def sanctuary(self, module: Module) -> bool:
        # The one package allowed to open connections: it owns the
        # pragmas, the transaction discipline and the fault point.
        return "resultsdb" in module.segments
