"""Programming-model contract rule: CON001.

The engines in :mod:`repro.engines` are only faithful miniatures of
Pregel/GAS if vertex programs respect the model's state contract — all
cross-vertex communication flows through messages, gather sums, and
engine-managed aggregators.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import (
    FUNCTION_DEFS,
    MUTATING_METHODS,
    Finding,
    Module,
    Rule,
    Severity,
    local_names,
    register_rule,
    scope_nodes,
)

__all__ = ["VertexProgramStateRule"]

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
