"""Metered reporting: REP001.

Paper §2.3 defines the benchmark metrics (Tproc, EPS, EVPS, speedup,
CV) once, and :mod:`repro.harness.metrics` is their single
implementation — with input validation and the exact paper definitions.
A reporter or figure renderer that recomputes a rate inline (dividing
edge counts by seconds itself) emits *unmetered* numbers that can drift
from the published definitions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, Module, Rule, Severity, names_in, register_rule

__all__ = ["UnmeteredRateRule"]

#: Modules whose job is presenting results.
_REPORTER_STEMS = {"report", "figures", "visualizer"}

#: Identifier fragments that mean "element counts" (rate numerators).
_ELEMENT_TOKENS = {"num_edges", "num_vertices", "edges", "vertices", "elements"}

#: Identifier fragments that mean "measured/modeled time" (denominators).
_TIME_TOKENS = {
    "tproc", "processing_time", "processing_seconds", "makespan",
    "seconds", "upload_time",
}


@register_rule
class UnmeteredRateRule(Rule):
    """REP001: reporters computing rates outside harness.metrics.

    Dividing element counts by measured time inside a reporter bypasses
    :func:`repro.harness.metrics.edges_per_second` /
    :func:`~repro.harness.metrics.edges_and_vertices_per_second` — the
    metered, validated implementations of the paper's §2.3 metrics.
    Compute the rate in the harness and pass it to the reporter.
    """

    rule_id = "REP001"
    severity = Severity.WARNING
    description = "reporter computes a rate inline instead of via harness.metrics"
    scope = ("harness", "granula")

    def check(self, module: Module) -> Iterator[Finding]:
        if module.stem not in _REPORTER_STEMS:
            return
        for node in module.nodes:
            if not isinstance(node, ast.BinOp) or not isinstance(
                node.op, (ast.Div, ast.FloorDiv)
            ):
                continue
            numerator = {n.lower() for n in names_in(node.left)}
            denominator = {n.lower() for n in names_in(node.right)}
            if (numerator & _ELEMENT_TOKENS) and (denominator & _TIME_TOKENS):
                yield module.finding(
                    self, node,
                    "inline rate (elements / time) in a reporter; use "
                    "repro.harness.metrics (edges_per_second / "
                    "edges_and_vertices_per_second) so reported numbers "
                    "stay metered",
                )
