"""Extension algorithms: the global metrics the paper's introduction names.

§1 motivates graph analysis with "complex and holistic graph
computations ... such as global metrics (e.g., diameter, triangle
count) or clustering". These are not part of the six-core workload, but
they are the natural candidates of a future renewal round (§2.4). No
command or experiment runs them, so these reference implementations
live beside their tests:

* :func:`triangle_count` — global triangle count;
* :func:`diameter` — exact graph diameter (all-sources BFS);
* :func:`estimate_diameter` — the double-sweep lower bound, usable at
  scales where the exact computation is infeasible;
* :func:`average_clustering_coefficient` — the graph-level mean LCC
  (Datagen's tunable target, §2.5.1);
* :func:`degree_distribution` — histogram of degrees;
* :func:`assortativity` — degree assortativity (Pearson over edges).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.bfs import BFS_UNREACHABLE, breadth_first_search
from repro.algorithms.lcc import local_clustering_coefficient
from repro.graph.graph import Graph

__all__ = [
    "triangle_count",
    "diameter",
    "estimate_diameter",
    "average_clustering_coefficient",
    "degree_distribution",
    "assortativity",
]


def triangle_count(graph: Graph) -> int:
    """Number of triangles (unordered vertex triples forming a 3-cycle).

    Directed graphs are treated as undirected (a triangle exists when
    the three underlying edges exist in any orientation), matching the
    common "global triangle count" metric.
    """
    undirected = graph.to_undirected() if graph.directed else graph
    indptr, indices = undirected.out_indptr, undirected.out_indices
    total = 0
    # Count each triangle once: for edge (u, v) with u < v, count common
    # neighbors w > v.
    for u in range(undirected.num_vertices):
        nbrs_u = indices[indptr[u]:indptr[u + 1]]
        higher = nbrs_u[nbrs_u > u]
        for v in higher:
            nbrs_v = indices[indptr[v]:indptr[v + 1]]
            above = nbrs_v[nbrs_v > v]
            if len(above) == 0:
                continue
            pos = np.searchsorted(higher, above)
            pos[pos == len(higher)] = len(higher) - 1
            total += int(np.count_nonzero(higher[pos] == above))
    return total


def _eccentricity(graph: Graph, source: int) -> int:
    depths = breadth_first_search(graph, source)
    finite = depths[depths != BFS_UNREACHABLE]
    return int(finite.max())


def diameter(graph: Graph) -> int:
    """Exact diameter of the largest weakly connected component.

    O(V (V+E)): all-sources BFS. Use :func:`estimate_diameter` for
    anything beyond miniature scale. Directed graphs are measured on
    the underlying undirected structure (hop diameter).
    """
    if graph.num_vertices == 0:
        raise GraphFormatError("diameter of an empty graph is undefined")
    undirected = graph.to_undirected() if graph.directed else graph
    best = 0
    for v in range(undirected.num_vertices):
        best = max(best, _eccentricity(undirected, undirected.id_of(v)))
    return best


def estimate_diameter(graph: Graph, *, sweeps: int = 4, seed: int = 0) -> int:
    """Double-sweep lower bound on the diameter.

    Repeatedly: BFS from a vertex, then BFS from the farthest vertex
    found; the second eccentricity is a lower bound that is exact on
    trees and empirically tight on real-world graphs.
    """
    if graph.num_vertices == 0:
        raise GraphFormatError("diameter of an empty graph is undefined")
    undirected = graph.to_undirected() if graph.directed else graph
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(max(1, sweeps)):
        start = int(undirected.vertex_ids[rng.integers(undirected.num_vertices)])
        depths = breadth_first_search(undirected, start)
        reachable = np.nonzero(depths != BFS_UNREACHABLE)[0]
        far = reachable[np.argmax(depths[reachable])]
        best = max(best, _eccentricity(undirected, undirected.id_of(int(far))))
    return best


def average_clustering_coefficient(graph: Graph) -> float:
    """Mean LCC over all vertices (Datagen's tunable target)."""
    values = local_clustering_coefficient(graph)
    return float(values.mean()) if len(values) else 0.0


def degree_distribution(graph: Graph) -> Dict[int, int]:
    """{degree: vertex count}, using total degree for directed graphs."""
    degrees = graph.degrees()
    unique, counts = np.unique(degrees, return_counts=True)
    return {int(d): int(c) for d, c in zip(unique, counts)}


def assortativity(graph: Graph) -> float:
    """Degree assortativity: Pearson correlation of endpoint degrees.

    Positive values mean hubs link to hubs (social networks); negative
    values mean hubs link to leaves (internet-like graphs). Returns 0
    for degenerate cases (no edges or constant degrees).
    """
    if graph.num_edges == 0:
        return 0.0
    degrees = graph.degrees().astype(np.float64)
    # For undirected graphs, each edge contributes both orientations.
    x = np.concatenate([degrees[graph.edge_src], degrees[graph.edge_dst]])
    y = np.concatenate([degrees[graph.edge_dst], degrees[graph.edge_src]])
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])
