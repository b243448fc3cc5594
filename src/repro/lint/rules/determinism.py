"""Determinism rules: DET001, DET003.

Graphalytics defines correctness as output equivalence against a
deterministic reference (paper §2.2.3); the spec makes determinism a
hard requirement. These rules catch two classic ways Python code
silently loses it: iterating unordered containers where order feeds
output or tie-breaking, and accumulating floats in an unordered
fashion.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.core import (
    Finding, Module, Rule, Severity, call_name, register_rule, scope_nodes,
)

__all__ = ["UnorderedIterationRule", "UnorderedAccumulationRule"]

#: Consumers for which element order cannot affect the result.
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "min", "max", "sum", "set", "frozenset",
    "any", "all", "len", "Counter", "collections.Counter", "dict",
}

_DICT_VIEWS = {"keys", "values", "items"}

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_constructor(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and call_name(node) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return (
            _is_set_constructor(node.left, set_names)
            or _is_set_constructor(node.right, set_names)
        )
    return False


def _set_typed_names(scope: ast.AST) -> Set[str]:
    """Local names bound (at least once) to a set in this scope.

    Two passes so ``a = set(); b = a | other`` marks ``b`` as well.
    """
    names: Set[str] = set()
    for _ in range(2):
        for node in scope_nodes(scope):
            if isinstance(node, ast.Assign):
                if _is_set_constructor(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name) and (
                    isinstance(node.op, _SET_BINOPS)
                    and _is_set_constructor(node.value, names)
                ):
                    names.add(node.target.id)
    return names


def _is_unordered(node: ast.AST, set_names: Set[str]) -> bool:
    """Is iterating this expression order-unstable (set / dict view)?"""
    if _is_set_constructor(node, set_names):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _DICT_VIEWS and not node.args:
            return True
    return False


def _function_scopes(module: Module) -> Iterator[ast.AST]:
    yield module.tree
    for node in module.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


def _consumed_order_insensitively(module: Module, comp: ast.AST) -> bool:
    """True when a comprehension's result cannot depend on element order."""
    if isinstance(comp, ast.SetComp):
        return True
    parent = module.parent(comp)
    if isinstance(parent, ast.Call) and comp in parent.args:
        name = call_name(parent)
        if name in _ORDER_INSENSITIVE_CONSUMERS or (
            name.split(".")[-1] in _ORDER_INSENSITIVE_CONSUMERS
        ):
            return True
    return False


def _describe(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expression>"
    return text if len(text) <= 40 else text[:37] + "..."


@register_rule
class UnorderedIterationRule(Rule):
    """DET001: unordered iteration in kernel/engine code.

    Iterating a ``set`` or a dict view in an algorithm kernel or engine
    makes visit order an accident of hashing/insertion; when that order
    feeds output values, message order, or tie-breaking, two platforms
    can produce validation-equivalent-but-different results — exactly
    the divergence the benchmark's determinism requirement forbids.
    Wrap the iterable in ``sorted(...)`` or use an explicit min-id
    tie-break.
    """

    rule_id = "DET001"
    severity = Severity.ERROR
    description = "unordered set/dict iteration feeding kernel output or ordering"
    scope = ("algorithms", "engines")

    def check(self, module: Module) -> Iterator[Finding]:
        for scope in _function_scopes(module):
            set_names = _set_typed_names(scope)
            for node in scope_nodes(scope):
                if isinstance(node, ast.For):
                    if _is_unordered(node.iter, set_names):
                        yield module.finding(
                            self, node,
                            f"iteration over unordered "
                            f"`{_describe(node.iter)}`; wrap in sorted() "
                            f"to keep kernel order deterministic",
                        )
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                    for gen in node.generators:
                        if _is_unordered(gen.iter, set_names) and (
                            not _consumed_order_insensitively(module, node)
                        ):
                            yield module.finding(
                                self, node,
                                f"comprehension over unordered "
                                f"`{_describe(gen.iter)}`; wrap in sorted() "
                                f"to keep kernel order deterministic",
                            )


# -- DET003 ------------------------------------------------------------------

@register_rule
class UnorderedAccumulationRule(Rule):
    """DET003: float accumulation over an unordered iterable.

    Floating-point addition is not associative: summing PageRank mass,
    LCC counts, or SSSP distances in set/dict-view order makes the last
    few ulps (and therefore epsilon-validation near the tolerance edge)
    depend on hash order. Sort the operands or use a vectorized
    reduction with a fixed order.
    """

    rule_id = "DET003"
    severity = Severity.WARNING
    description = "sum()/fsum() over an unordered iterable in a float kernel"
    scope = ("algorithms", "engines")

    def check(self, module: Module) -> Iterator[Finding]:
        for scope in _function_scopes(module):
            set_names = _set_typed_names(scope)
            for node in scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name not in ("sum", "fsum", "math.fsum"):
                    continue
                if not node.args:
                    continue
                arg = node.args[0]
                unordered: Optional[ast.AST] = None
                if _is_unordered(arg, set_names):
                    unordered = arg
                elif isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    for gen in arg.generators:
                        if _is_unordered(gen.iter, set_names):
                            unordered = gen.iter
                            break
                if unordered is not None:
                    yield module.finding(
                        self, node,
                        f"float accumulation over unordered "
                        f"`{_describe(unordered)}`; fix the order before "
                        f"summing (float addition is not associative)",
                    )
