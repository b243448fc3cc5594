"""Alternative kernel implementations used by real platforms.

The paper's platforms implement the same abstract algorithms very
differently — §4.1 attributes OpenG's R2 win to its *queue-based* BFS
versus the iterative full-sweep BFS of matrix platforms, and
delta-stepping is the standard distributed SSSP. These variants exist
to make that design space concrete; each is output-equivalent to the
reference implementation (enforced by the validation rules in the test
suite).

* :func:`bfs_queue` — sequential frontier-queue BFS (OpenG style): work
  proportional to the *reached* part of the graph;
* :func:`bfs_bottom_up` — level-synchronous BFS with the bottom-up step
  (direction-optimizing BFS, Beamer et al.): unvisited vertices scan
  their in-neighbors;
* :func:`sssp_dijkstra` — binary-heap Dijkstra, O((V + E) log V)
  whatever the diameter: the reference kernel until the frontier
  relaxation replaced it, now its bit-for-bit oracle (see
  :mod:`repro.algorithms.sssp`) and the faster one on long paths;
* :func:`sssp_delta_stepping` — bucketed label-correcting SSSP;
* :func:`sssp_bellman_ford` — iterative relaxation of *all* edges each
  round (the shape a Pregel SSSP takes).
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.bfs import BFS_UNREACHABLE
from repro.algorithms.common import expand_sources
from repro.algorithms.sssp import SSSP_UNREACHABLE, check_sssp_input
from repro.graph.graph import Graph

__all__ = [
    "bfs_queue",
    "bfs_bottom_up",
    "sssp_dijkstra",
    "sssp_delta_stepping",
    "sssp_bellman_ford",
]


def bfs_queue(graph: Graph, source: int) -> np.ndarray:
    """FIFO-queue BFS: touches only reached vertices (OpenG style)."""
    if not graph.has_vertex(source):
        raise GraphFormatError(f"BFS source vertex {source} not in graph")
    depth = np.full(graph.num_vertices, BFS_UNREACHABLE, dtype=np.int64)
    root = graph.index_of(source)
    depth[root] = 0
    queue = deque([root])
    indptr, indices = graph.out_indptr, graph.out_indices
    while queue:
        v = queue.popleft()
        next_depth = depth[v] + 1
        for u in indices[indptr[v]:indptr[v + 1]]:
            if depth[u] == BFS_UNREACHABLE:
                depth[u] = next_depth
                queue.append(int(u))
    return depth


def bfs_bottom_up(graph: Graph, source: int, *, switch_fraction: float = 0.05) -> np.ndarray:
    """Direction-optimizing BFS: top-down until the frontier is large,
    then bottom-up (every unvisited vertex probes its in-neighbors)."""
    if not graph.has_vertex(source):
        raise GraphFormatError(f"BFS source vertex {source} not in graph")
    n = graph.num_vertices
    depth = np.full(n, BFS_UNREACHABLE, dtype=np.int64)
    root = graph.index_of(source)
    depth[root] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[root] = True
    level = 0
    out_indptr, out_indices = graph.out_indptr, graph.out_indices
    in_indptr, in_indices = graph.in_indptr, graph.in_indices
    while frontier.any():
        level += 1
        next_frontier = np.zeros(n, dtype=bool)
        if frontier.sum() < switch_fraction * n:
            # Top-down: expand the frontier's out-edges.
            for v in np.nonzero(frontier)[0]:
                for u in out_indices[out_indptr[v]:out_indptr[v + 1]]:
                    if depth[u] == BFS_UNREACHABLE:
                        depth[u] = level
                        next_frontier[u] = True
        else:
            # Bottom-up: every unvisited vertex checks its in-neighbors.
            for u in np.nonzero(depth == BFS_UNREACHABLE)[0]:
                parents = in_indices[in_indptr[u]:in_indptr[u + 1]]
                if len(parents) and frontier[parents].any():
                    depth[u] = level
                    next_frontier[u] = True
        frontier = next_frontier
    return depth


def sssp_dijkstra(graph: Graph, source: int) -> np.ndarray:
    """Dijkstra from ``source`` (external id); returns float64 distances."""
    check_sssp_input(graph, source)
    weights = graph.out_weights
    n = graph.num_vertices
    dist = np.full(n, SSSP_UNREACHABLE, dtype=np.float64)
    root = graph.index_of(source)
    dist[root] = 0.0
    indptr, indices = graph.out_indptr, graph.out_indices
    heap = [(0.0, root)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        lo, hi = indptr[v], indptr[v + 1]
        for slot in range(lo, hi):
            u = indices[slot]
            if settled[u]:
                continue
            candidate = d + weights[slot]
            if candidate < dist[u]:
                dist[u] = candidate
                heapq.heappush(heap, (candidate, int(u)))
    return dist


def sssp_delta_stepping(graph: Graph, source: int, *, delta: float = None) -> np.ndarray:
    """Bucketed label-correcting SSSP (Meyer & Sanders)."""
    check_sssp_input(graph, source)
    weights = graph.out_weights
    if delta is None:
        positive = weights[weights > 0]
        delta = float(positive.mean()) if len(positive) else 1.0
    if delta <= 0:
        raise GraphFormatError(f"delta must be positive, got {delta}")

    n = graph.num_vertices
    dist = np.full(n, SSSP_UNREACHABLE, dtype=np.float64)
    root = graph.index_of(source)
    dist[root] = 0.0
    buckets = {0: {root}}
    indptr, indices = graph.out_indptr, graph.out_indices

    def relax(u: int, candidate: float) -> None:
        if candidate < dist[u]:
            old = dist[u]
            if np.isfinite(old):
                buckets.get(int(old / delta), set()).discard(u)
            dist[u] = candidate
            buckets.setdefault(int(candidate / delta), set()).add(u)

    while buckets:
        i = min(buckets)
        current = buckets.pop(i)
        settled = set()
        # Light-edge phase: repeat while relaxations refill bucket i.
        while current:
            settled |= current
            requests = []
            # Sorted iteration keeps relaxation order (and thus float
            # tie-breaking) independent of set hashing — the benchmark's
            # determinism requirement applies to variants too.
            for v in sorted(current):
                for slot in range(indptr[v], indptr[v + 1]):
                    if weights[slot] <= delta:
                        requests.append((int(indices[slot]), dist[v] + weights[slot]))
            current = set()
            for u, candidate in requests:
                before = dist[u]
                relax(u, candidate)
                if dist[u] < before and int(dist[u] / delta) == i:
                    current.add(u)  # settled vertices may legally re-enter
            if i in buckets:
                current |= buckets.pop(i)
        # Heavy-edge phase.
        for v in sorted(settled):
            for slot in range(indptr[v], indptr[v + 1]):
                if weights[slot] > delta:
                    relax(int(indices[slot]), dist[v] + weights[slot])
    return dist


def sssp_bellman_ford(graph: Graph, source: int) -> np.ndarray:
    """Synchronous iterative relaxation (the Pregel-style SSSP)."""
    check_sssp_input(graph, source)
    n = graph.num_vertices
    dist = np.full(n, SSSP_UNREACHABLE, dtype=np.float64)
    dist[graph.index_of(source)] = 0.0
    sources = expand_sources(graph.out_indptr)
    targets = graph.out_indices
    weights = graph.out_weights
    for _ in range(n):
        candidates = dist[sources] + weights
        updated = dist.copy()
        np.minimum.at(updated, targets, candidates)
        if np.array_equal(updated, dist):
            break
        dist = updated
    return dist
