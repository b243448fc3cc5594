"""PageRank (Page et al., 1999) per the Graphalytics specification.

A fixed number of synchronous iterations of

    PR(v) = (1-d)/|V| + d * ( sum_{u -> v} PR(u)/outdeg(u)  +  D/|V| )

where ``d`` is the damping factor (0.85 by default, as in the official
benchmark) and ``D`` is the summed rank of *dangling* vertices (outdegree
zero), redistributed uniformly. Undirected graphs treat each edge as two
directed edges, so no vertex with an edge is dangling.

The iteration count is a workload parameter fixed per dataset in the
benchmark description (paper Figure 1, component 1), which makes the
algorithm deterministic across platforms.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.graph import Graph

__all__ = ["pagerank"]


def pagerank(
    graph: Graph,
    *,
    iterations: int = 30,
    damping: float = 0.85,
) -> np.ndarray:
    """Run a fixed number of PageRank iterations; returns float64 ranks.

    Ranks sum to 1 (up to floating-point error) because dangling mass is
    redistributed every iteration.
    """
    if iterations < 0:
        raise GenerationError(f"iterations must be >= 0, got {iterations}")
    if not 0.0 <= damping <= 1.0:
        raise GenerationError(f"damping must be in [0,1], got {damping}")
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)

    out_degree = graph.out_degrees()
    dangling = np.flatnonzero(out_degree == 0)
    # A dangling vertex divides by 1: it has no slot, so its quotient is
    # never read, and every other vertex gets the same IEEE quotient.
    divisor = out_degree.astype(np.float64)
    divisor[dangling] = 1.0
    # CSR slots give us the full directed edge expansion (both directions
    # for undirected graphs). Repeating each quotient over its row lays
    # out the slots' contributions in slot order, so ``bincount`` adds
    # every target's terms in the order the SpMV engines do.
    targets = graph.out_indices

    rank = np.full(n, 1.0 / n, dtype=np.float64)
    base = (1.0 - damping) / n
    contrib = np.empty(n, dtype=np.float64)
    for _ in range(iterations):
        np.divide(rank, divisor, out=contrib)
        incoming = np.bincount(
            targets, weights=np.repeat(contrib, out_degree), minlength=n
        )
        dangling_share = rank[dangling].sum() / n
        rank = base + damping * (incoming + dangling_share)
    return rank
