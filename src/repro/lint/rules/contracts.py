"""Programming-model contract rules: CON001, CON002.

The engines in :mod:`repro.engines` are only faithful miniatures of
Pregel/GAS if vertex programs respect the model's state contract — all
cross-vertex communication flows through messages, gather sums, and
engine-managed aggregators. Likewise the platform drivers are only a
benchmark harness if every algorithm execution goes through the
:class:`~repro.platforms.base.PlatformDriver` lifecycle, where modeled
failures, memory checks, and the spans Granula archives are produced.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

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
    scope_nodes,
)

__all__ = ["VertexProgramStateRule", "DriverBypassRule"]

#: Function names that form the vertex-program contract surface.
_CONTRACT_FUNCTIONS = {"compute", "gather", "apply", "scatter"}


def _base_name(node: ast.AST) -> Optional[str]:
    """Root Name of a Subscript/Attribute chain (``a`` in ``a[k].b``)."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _contract_functions(module: Module) -> Iterator[ast.AST]:
    """Defs/lambdas named (or bound to) compute/gather/apply/scatter."""
    for node in module.nodes:
        if isinstance(node, FUNCTION_DEFS):
            if node.name in _CONTRACT_FUNCTIONS:
                yield node
        elif isinstance(node, ast.Lambda):
            parent = module.parent(node)
            if isinstance(parent, ast.keyword) and (
                parent.arg in _CONTRACT_FUNCTIONS
            ):
                yield node
            elif isinstance(parent, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in _CONTRACT_FUNCTIONS
                for t in parent.targets
            ):
                yield node


@register_rule
class VertexProgramStateRule(Rule):
    """CON001: vertex programs mutating state outside the contract.

    In Pregel/GAS, ``compute``/``gather``/``apply``/``scatter`` may only
    touch their own vertex state and the message/aggregator API. Writing
    to closures or module globals smuggles cross-vertex communication
    past the superstep barrier: the result then depends on vertex visit
    order, which a real distributed runtime does not guarantee. Use the
    engine's aggregator API (``ctx.aggregate``/``ctx.aggregated``)
    instead.
    """

    rule_id = "CON001"
    severity = Severity.ERROR
    description = "vertex program writes closure/global state outside the model contract"
    scope = ("engines",)

    def check(self, module: Module) -> Iterator[Finding]:
        for func in _contract_functions(module):
            local = local_names(func)
            symbol = (
                func.name if isinstance(func, FUNCTION_DEFS) else "<lambda>"
            )
            for node in scope_nodes(func):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    yield module.finding(
                        self, node,
                        f"{symbol} declares {'/'.join(node.names)} "
                        f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}; "
                        f"vertex programs must not rebind outer state",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if not isinstance(target, (ast.Subscript, ast.Attribute)):
                            continue
                        base = _base_name(target)
                        if base is not None and base not in local:
                            yield module.finding(
                                self, node,
                                f"{symbol} writes to closure/global "
                                f"`{base}` outside the message/apply "
                                f"contract; use the engine aggregator API",
                            )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr in MUTATING_METHODS and isinstance(
                        node.func.value, ast.Name
                    ):
                        base = node.func.value.id
                        if base not in local:
                            yield module.finding(
                                self, node,
                                f"{symbol} mutates closure/global `{base}` "
                                f"via .{node.func.attr}(); use the engine "
                                f"aggregator API",
                            )


# -- CON002 ------------------------------------------------------------------

#: Reference kernel entry points that drivers must not call directly.
_KERNEL_NAMES = {
    "breadth_first_search", "pagerank", "weakly_connected_components",
    "community_detection_lp", "local_clustering_coefficient",
    "single_source_shortest_paths", "run_reference",
}

#: The driver hook in which direct execution is the implementation itself.
_LIFECYCLE_HOOKS = {"_run_algorithm"}

#: Modules that *are* the lifecycle (base driver, registry wiring).
_EXEMPT_STEMS = {"base", "registry"}


def _get_algorithm_bindings(module: Module) -> Set[str]:
    """Names assigned from ``get_algorithm(...)`` anywhere in the file."""
    bound: Set[str] = set()
    for node in module.nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if call_name(node.value).split(".")[-1] == "get_algorithm":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
    return bound


@register_rule
class DriverBypassRule(Rule):
    """CON002: platform code bypassing the driver lifecycle.

    A driver that calls a reference kernel (or ``Algorithm.run``)
    directly skips the upload/execute contract of
    :class:`~repro.platforms.base.PlatformDriver` — capability checks,
    modeled memory/crash failures, and the spans Granula archives — so its
    results are unmetered and incomparable. Execute through
    ``self._run_algorithm``.
    """

    rule_id = "CON002"
    severity = Severity.ERROR
    description = "platform driver executes kernels outside the driver lifecycle"
    scope = ("platforms",)

    def check(self, module: Module) -> Iterator[Finding]:
        if module.stem in _EXEMPT_STEMS:
            return
        spec_names = _get_algorithm_bindings(module)
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            if any(
                scope.name in _LIFECYCLE_HOOKS
                for scope in module.ancestors(node, FUNCTION_DEFS)
            ):
                continue
            name = call_name(node)
            parts = name.split(".")
            direct_kernel = parts[-1] in _KERNEL_NAMES and len(parts) <= 2
            run_on_spec = (
                parts[-1] == "run"
                and len(parts) == 2
                and parts[0] in spec_names
            )
            run_on_get = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"
                and isinstance(node.func.value, ast.Call)
                and call_name(node.func.value).split(".")[-1] == "get_algorithm"
            )
            if direct_kernel or run_on_spec or run_on_get:
                yield module.finding(
                    self, node,
                    f"direct kernel execution `{name or 'get_algorithm(...).run'}`"
                    f" bypasses the driver lifecycle; route through "
                    f"PlatformDriver._run_algorithm",
                )
