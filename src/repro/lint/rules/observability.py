"""Observability rule: OBS001.

Every timing measurement in the codebase flows through the span-based
tracing core (``repro.trace``): engines, drivers, the runtime, and the
harness read time only via the tracer's injectable
:class:`~repro.trace.clock.Clock`. A module that calls the standard
library's clock functions directly re-introduces exactly the problems
the tracer removes — timestamps that cannot be faked in tests, that
drift across processes without the rebase step, and that never appear
in the exported span tree. The only legitimate call site is the
``MonotonicClock`` wrapper inside ``repro/trace`` itself.

OBS001 is a row of the confinement rule
(:class:`~repro.lint.rules.robustness._ConfinementRule`): the confined
call is a clock read, found by the alias-aware standard-library call
matcher ROB003 uses for ``sqlite3.connect`` — whether the file spells
it ``time.monotonic()``, through ``import time as _clk``, or through a
module-level rebind ``_now = time.perf_counter`` — and the sanctuary is
``repro/trace``. The project pass adds the one disguise a single file
cannot show: a rebind imported from another module.

``time.sleep`` is deliberately *not* flagged: waiting is not
measuring, and the tracer clock forwards it anyway.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from repro.lint.core import (
    Finding,
    Module,
    Severity,
    call_name,
    register_rule,
    stdlib_calls,
    stdlib_names,
)
from repro.lint.rules.robustness import _ConfinementRule

__all__ = ["BareClockCallRule"]

#: Clock-reading functions of the standard ``time`` module. The names
#: are assembled from fragments so that a plain-text search for bare
#: clock calls over the source tree does not hit this rule definition.
_CLOCK_NAMES = frozenset(
    base + suffix
    for base in ("time", "monotonic", "perf" + "_counter", "process" + "_time")
    for suffix in ("", "_ns")
)

#: A spelling of the ``time`` module that needs no import alias.
_TIME_ROOTS = ("_time",)


def _rebind_message(name: str, function: str) -> str:
    return (
        f"`{name}()` is `{function}` rebound at module level — a standard "
        f"clock in disguise; open a span or read current_tracer().clock "
        f"instead"
    )


@register_rule
class BareClockCallRule(_ConfinementRule):
    """OBS001: bare standard-library clock call outside ``repro.trace``.

    Reading wall-clock or monotonic time directly bypasses the
    injectable tracer clock: the measurement cannot be made
    deterministic under a ``FakeClock``, is invisible to the exported
    span tree, and — across worker processes — is not rebased onto the
    dispatcher's timeline. Measure by opening a span (or reading
    ``current_tracer().clock``) instead.
    """

    rule_id = "OBS001"
    severity = Severity.ERROR
    description = (
        "timing must go through repro.trace's injectable clock, not "
        "bare standard-library clock calls"
    )
    scope = None  # everywhere; the tracing core is the sanctuary
    # The clock's disguise shapes the message, so ``matches`` phrases
    # each finding whole.
    direct_message = "{desc}"

    def sanctuary(self, module: Module) -> bool:
        return "trace" in module.segments

    def matches(self, module: Module) -> Iterator[Tuple[ast.AST, str]]:
        for node in module.nodes:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time" and not node.level
            ):
                clocks = sorted(
                    alias.name for alias in node.names
                    if alias.name in _CLOCK_NAMES
                )
                if clocks:
                    yield node, (
                        f"importing {', '.join(clocks)} from the time "
                        f"module bypasses the tracer clock; use "
                        f"repro.trace (current_tracer().clock or a span)"
                    )
        calls = stdlib_calls(module, "time", _CLOCK_NAMES, _TIME_ROOTS)
        for call, how, function in calls:
            spelled = call_name(call)
            if how == "module":
                yield call, (
                    f"bare `{spelled}()` call bypasses the tracer clock — "
                    f"its reading is untestable, untraced, and unrebased; "
                    f"open a span or read current_tracer().clock instead"
                )
            elif how == "alias":
                yield call, (
                    f"`{spelled}()` reads the standard clock through "
                    f"import alias `{call.func.value.id}`, bypassing the "
                    f"tracer clock; open a span or read "
                    f"current_tracer().clock"
                )
            elif how == "rebind":
                yield call, _rebind_message(spelled, function)
            # how == "import": the `from time import` line is the finding

    def check_project(self, project) -> Iterator[Finding]:
        """A module-level rebind called from another module (``from
        clockmod import _now``): the disguise no single file shows."""
        rebinds: Dict[str, Dict[str, str]] = {}
        for info in project.modules.values():
            if self.sanctuary(info.module):
                continue
            _, bare = stdlib_names(
                info.module, "time", _CLOCK_NAMES, _TIME_ROOTS
            )
            rebinds[info.name] = {
                name: function
                for name, (how, function) in bare.items() if how == "rebind"
            }

        def table(info):
            return rebinds.get(info.name, {})

        for info in project.modules.values():
            local = rebinds.get(info.name)
            if local is None:
                continue  # the sanctuary
            # A local rebind is the per-file pass's; an imported one is
            # whatever the import resolves to.
            imported = {
                name: function
                for name in info.imports if name not in local
                if (function := project.resolve(info, name, table))
            }
            if not imported:
                continue
            for node in info.module.nodes:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in imported
                ):
                    yield info.module.finding(
                        self, node,
                        _rebind_message(node.func.id, imported[node.func.id]),
                    )
