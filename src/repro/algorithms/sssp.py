"""Single-source shortest paths (SSSP) on double-precision edge weights.

Graphalytics definition: the length of the shortest path from a given
source vertex to every other vertex, for graphs with double-precision
floating-point non-negative edge weights. Directed graphs follow
out-edges. Unreachable vertices get :data:`SSSP_UNREACHABLE` (infinity,
matching the official reference output).

The reference kernel is a Δ-bucketed label-correcting relaxation. The
*pending* vertices are those whose distance dropped since their
out-slots were last relaxed. Each round takes the pending vertices
within Δ of the smallest pending distance, gathers only their
out-slots (targets and candidate distances, into the call's workspace),
lowers the targets with ``np.minimum.at`` a batch of rows at a time,
and adds the improved targets to what stays pending — O(pending +
frontier slots) a round, deduplicated without a sort. Δ comes from the
input: 4 · mean weight / mean out-degree, Meyer & Sanders' Θ(1/d). A
narrow band relaxes few vertices before their distance is final, so far
fewer slots are walked twice.

Its output equals heap Dijkstra's (``sssp_dijkstra`` in
``tests/algorithms/variants.py``, the test oracle) bit for bit. Every
distance either one writes is the float sum, left to right, of the
weights along some path from the source; rounded addition is monotone
in its left operand and, with ``w >= 0``, never decreases it, which is
all Dijkstra's proof needs, so Dijkstra returns
the minimum of those path sums. The relaxation stops only when nothing
is pending, i.e. no slot can lower a distance: the same minimum, through
the same additions, in whichever order the rounds took them.

Trade-off: numpy rounds, not heap operations. Graphalytics datasets are
low-diameter (paper Tables 3-4): weighted catalog miniatures take 10-13
rounds walking ~1.0x their slots, the scale-14 Graph500 graph 40-42
rounds walking 2.1-2.4x (relaxing every pending vertex each round
walked ~4x in 15-16 rounds) — 10-16x faster than the heap. A pure path takes a round per
vertex, ~14x *slower* than Dijkstra (2 000 vertices: 2 ms -> 31 ms).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.common import Scratch, distinct, gather_ranges, row_batches
from repro.graph.graph import Graph
from repro.trace import current_tracer

__all__ = ["single_source_shortest_paths", "check_sssp_input", "SSSP_UNREACHABLE"]

#: Distance assigned to vertices not reachable from the source.
SSSP_UNREACHABLE: float = float("inf")


def check_sssp_input(graph: Graph, source: int) -> None:
    """The one input check every SSSP implementation shares: weighted and
    source present. The weights need no check: ``Graph`` admits only
    finite, non-negative ones."""
    if not graph.is_weighted:
        raise GraphFormatError("SSSP requires a weighted graph")
    if not graph.has_vertex(source):
        raise GraphFormatError(f"SSSP source vertex {source} not in graph")


def _bucket_width(weights: np.ndarray, n: int) -> float:
    """Δ = 4 · mean weight / mean out-degree; 0 without edges. ``Graph``
    admits only finite weights, so no filter is needed, but their mean
    can overflow: Δ is clamped to the largest float, so a round never
    compares against NaN."""
    if len(weights) == 0:
        return 0.0
    width = 4.0 * float(weights.mean()) * n / len(weights)
    return min(width, float(np.finfo(np.float64).max))


def single_source_shortest_paths(graph: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` (external id); returns float64."""
    check_sssp_input(graph, source)
    n = graph.num_vertices
    dist = np.full(n, SSSP_UNREACHABLE, dtype=np.float64)
    root = graph.index_of(source)
    dist[root] = 0.0
    indptr, indices, weights = graph.out_indptr, graph.out_indices, graph.out_weights
    delta = _bucket_width(weights, n)
    # The call's workspace: a round's targets and candidate distances
    # (at most every slot), and a slot per vertex for deduplicating.
    targets_of, candidates_of, scratch = Scratch().arrays(
        (len(indices), np.int64), (len(indices), np.float64), (n, np.int64)
    )
    tracer = current_tracer()
    # Vertices whose distance dropped since their out-slots were last
    # relaxed; their distances are finite, so the nearest is always
    # within Δ >= 0 of itself and every round makes progress.
    pending = np.array([root], dtype=np.int64)
    while len(pending) > 0:
        reach = dist[pending]
        near = reach <= reach.min() + delta
        frontier, reach, pending = pending[near], reach[near], pending[~near]
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        tracer.counter("sssp.slots", int(counts.sum()))
        # A batch of rows at a time, its targets and candidates laid out
        # in the workspace, so that nothing else here outgrows a batch or
        # the vertex array. A batch compares against the distances the
        # batches before it lowered: a candidate that no longer lowers
        # its target lost to one in this round, whose target is pending
        # already. The same minima, the same pending set.
        for rows, batch in row_batches(counts):
            slots = gather_ranges(starts[rows], counts[rows])
            target = np.take(indices, slots, out=targets_of[batch], mode="wrap")
            candidate = np.take(weights, slots, out=candidates_of[batch], mode="wrap")
            candidate += np.repeat(reach[rows], counts[rows])
            lower = candidate < dist[target]
            target = target[lower]
            np.minimum.at(dist, target, candidate[lower])
            # Every such target improved, and is pending again.
            pending = distinct(np.concatenate([pending, target]), scratch)
    return dist
