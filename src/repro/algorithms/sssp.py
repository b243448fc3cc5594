"""Single-source shortest paths (SSSP) on double-precision edge weights.

Graphalytics definition: the length of the shortest path from a given
source vertex to every other vertex, for graphs with double-precision
floating-point non-negative edge weights. Directed graphs follow
out-edges. Unreachable vertices get :data:`SSSP_UNREACHABLE` (infinity,
matching the official reference output).

The reference kernel is a frontier-driven label-correcting relaxation:
each round gathers only the out-slots of the vertices whose distance
dropped last round, lowers the targets with one ``np.minimum.at``, and
the improved targets form the next frontier — O(frontier slots) a round.

Its output equals heap Dijkstra's (``variants.sssp_dijkstra``, the test
oracle) bit for bit. Every distance either one writes is the float sum,
left to right, of the weights along some path from the source; rounded
addition is monotone in its left operand and, with ``w >= 0``, never
decreases it, which is all Dijkstra's proof needs, so Dijkstra returns
the minimum of those path sums. The relaxation stops only when no slot
can lower a distance: the same minimum, through the same additions.

Trade-off: one numpy round per weighted hop level. Graphalytics datasets
are low-diameter (paper Tables 3-4): weighted catalog miniatures take
<= 9 rounds, the scale-14 Graph500 graph 15 — 5-8x faster than the heap.
A pure path takes a round per vertex, ~18x *slower* than Dijkstra (2 000
vertices: 3 ms -> 50 ms).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.common import gather_slots, run_starts
from repro.graph.graph import Graph

__all__ = ["single_source_shortest_paths", "check_sssp_input", "SSSP_UNREACHABLE"]

#: Distance assigned to vertices not reachable from the source.
SSSP_UNREACHABLE: float = float("inf")


def check_sssp_input(graph: Graph, source: int) -> None:
    """The one input check every SSSP implementation shares: weighted,
    source present, weights non-negative (the comparison rejects NaN)."""
    if not graph.is_weighted:
        raise GraphFormatError("SSSP requires a weighted graph")
    if not graph.has_vertex(source):
        raise GraphFormatError(f"SSSP source vertex {source} not in graph")
    if not (graph.out_weights >= 0).all():
        raise GraphFormatError("SSSP requires non-negative edge weights")


def single_source_shortest_paths(graph: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` (external id); returns float64."""
    check_sssp_input(graph, source)
    dist = np.full(graph.num_vertices, SSSP_UNREACHABLE, dtype=np.float64)
    root = graph.index_of(source)
    dist[root] = 0.0
    indptr, indices, weights = graph.out_indptr, graph.out_indices, graph.out_weights
    frontier = np.array([root], dtype=np.int64)
    while len(frontier) > 0:
        slots, counts = gather_slots(indptr, frontier)
        candidates = np.repeat(dist[frontier], counts) + weights[slots]
        targets = indices[slots]
        lower = candidates < dist[targets]
        targets = targets[lower]
        np.minimum.at(dist, targets, candidates[lower])
        # Every such target improved; the next frontier is their set.
        targets.sort()
        frontier = targets[run_starts(targets)]
    return dist
