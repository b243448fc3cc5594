"""Breadth-first search.

Graphalytics definition: for every vertex, the minimum number of hops
required to reach it from a given source vertex. Directed graphs follow
out-edges only. Unreachable vertices are assigned
:data:`BFS_UNREACHABLE` (the official Graphalytics reference output uses
the maximum signed 64-bit integer for unreachable vertices).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.common import BATCH, distinct, gather_neighbors
from repro.graph.graph import Graph

__all__ = ["breadth_first_search", "BFS_UNREACHABLE"]

#: Depth assigned to vertices not reachable from the source.
BFS_UNREACHABLE: int = np.iinfo(np.int64).max


def breadth_first_search(graph: Graph, source: int) -> np.ndarray:
    """Level-synchronous BFS from ``source`` (an external vertex id).

    Returns an int64 array of hop counts indexed by dense vertex index;
    unreachable vertices hold :data:`BFS_UNREACHABLE`.
    """
    if not graph.has_vertex(source):
        raise GraphFormatError(f"BFS source vertex {source} not in graph")
    n = graph.num_vertices
    depth = np.full(n, BFS_UNREACHABLE, dtype=np.int64)
    root = graph.index_of(source)
    depth[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    indptr, indices = graph.out_indptr, graph.out_indices
    # The call's workspace: a level's neighbors, when a level can span
    # more than a batch of slots, and a slot per vertex for deduplicating.
    neighbors = np.empty(len(indices), dtype=np.int64) if len(indices) > BATCH else None
    scratch = np.empty(n, dtype=np.int64)
    while len(frontier) > 0:
        level += 1
        candidates = gather_neighbors(indptr, indices, frontier, neighbors)
        if len(candidates) == 0:
            break
        # A level is a set: its order reaches no output. One that walks
        # more slots than there are vertices marks them over the
        # vertices; a smaller one filters its candidates, in arrays no
        # larger than a vertex array either way.
        if len(candidates) > n:
            reached = np.zeros(n, dtype=bool)
            reached[candidates] = True
            reached &= depth == BFS_UNREACHABLE
            frontier = np.flatnonzero(reached)
        else:
            fresh = candidates[depth[candidates] == BFS_UNREACHABLE]
            frontier = distinct(fresh, scratch)
        depth[frontier] = level
    return depth
