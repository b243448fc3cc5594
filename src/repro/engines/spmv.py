"""A miniature SpMV engine: GraphMat's sparse-matrix model.

GraphMat "maps Pregel-like vertex programs to high-performance sparse
matrix operations" (paper §3.1). Here the mapping is explicit: graph
algorithms are iterated generalized sparse-matrix–vector products
``y = A^T (x) `` over an algebraic :class:`Semiring` — (min, +) for
shortest paths, (|, &) for reachability, (+, x) for PageRank — with an
element-wise accumulate against the previous state.

The products are fully vectorized over the CSR arrays (numpy scatter
reductions), which is exactly the performance argument for the model:
no per-vertex control flow, only bulk array operations.

The engine's products are also the seam between single-process and
sharded execution: every ``run_*`` loop below takes the engine that
supplies its products, and :mod:`repro.engines.partitioned` passes one
whose products are computed by row blocks of this same class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.cdlp import _most_frequent_min_label
from repro.algorithms.common import Scratch, expand_sources
from repro.algorithms.lcc import lcc_counts
from repro.algorithms.sssp import check_sssp_input
from repro.graph.graph import Graph
from repro.trace import current_tracer

__all__ = [
    "Semiring",
    "SpMVEngine",
    "MIN_PLUS",
    "MIN_FIRST",
    "OR_AND",
    "PLUS_TIMES",
    "run_bfs",
    "run_sssp",
    "run_wcc",
    "run_pagerank",
    "run_cdlp",
]


@dataclass(frozen=True)
class Semiring:
    """(add, multiply, additive identity) over numpy arrays.

    ``add_reduce(target_indices, terms, n)`` performs the scattered
    semiring addition: combine ``terms[k]`` into slot
    ``target_indices[k]`` of a fresh vector of additive identities.
    ``multiply(terms, weights, out=terms)`` combines in place, the way a
    ufunc does.
    """

    name: str
    zero: float
    add_reduce: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _min_reduce(targets: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    out = np.full(n, np.inf)
    np.minimum.at(out, targets, terms)
    return out


def _sum_reduce(targets: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    # (bincount of nothing is int64, even with weights.)
    return np.bincount(targets, weights=terms, minlength=n).astype(
        np.float64, copy=False
    )


def _or_reduce(targets: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    np.maximum.at(out, targets, terms)
    return out


def _first(x: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    return x


# Built from module-level callables only, so a semiring pickles by
# reference and can cross a pipe to a shard.
MIN_PLUS = Semiring("min-plus", np.inf, _min_reduce, np.add)
MIN_FIRST = Semiring("min-first", np.inf, _min_reduce, _first)
OR_AND = Semiring("or-and", 0.0, _or_reduce, np.multiply)
PLUS_TIMES = Semiring("plus-times", 0.0, _sum_reduce, np.multiply)


def _slots(indptr, indices, weights, owned):
    """(source, target, weight) of every CSR slot, or — given the
    ``owned`` row mask — of the slots whose target is owned, in order."""
    sources = expand_sources(indptr)
    if owned is None:
        return sources, indices, weights
    keep = owned[indices]
    return (
        sources[keep], indices[keep],
        None if weights is None else weights[keep],
    )


class SpMVEngine:
    """Generalized y = A^T x over a semiring, on a graph's CSR arrays.

    ``rows`` (dense indices) restricts the engine to a row block of
    A^T: it keeps exactly the CSR slots whose target is in ``rows``, in
    their original order, so each of those rows reduces the same terms
    in the same order as the full engine — float sums included — and
    the union of blocks over a vertex partition is the full product,
    bit for bit. Rows outside the block read as the additive identity.

    An engine builds the source of each slot once; a product's
    slot-sized arrays — ``x[sources]`` gathered and multiplied in place,
    or the label mode's sorted keys — come from one
    :class:`~repro.algorithms.common.Scratch` block, so repeated
    products allocate nothing slot-sized.
    """

    def __init__(self, graph: Graph, rows: Optional[np.ndarray] = None):
        self.graph = graph
        self.rows = rows
        owned = None
        if rows is not None:
            owned = np.zeros(graph.num_vertices, dtype=bool)
            owned[rows] = True
        # Message flow src -> dst: expand the out-CSR once.
        self._sources, self._targets, self._weights = _slots(
            graph.out_indptr, graph.out_indices, graph.out_weights, owned
        )
        # The transpose (dst -> src) for direction-ignoring algorithms;
        # undirected graphs already store both directions in one CSR.
        if graph.directed:
            self._rev_sources, self._rev_targets, _ = _slots(
                graph.in_indptr, graph.in_indices, None, owned
            )
        else:
            self._rev_sources, self._rev_targets = self._sources, self._targets
        self._scratch = Scratch()
        self._hearing = None

    def spmv(self, x: np.ndarray, semiring: Semiring, *,
             reverse: bool = False, unit_weights: bool = False) -> np.ndarray:
        """One product: combine x[src] (x) w over edges into each dst."""
        if reverse:
            # in-CSR slot k: edge in_indices[k] -> rev_sources[k]; the
            # reverse product pushes each vertex's value to its
            # in-neighbors (against edge direction).
            sources, targets = self._rev_sources, self._rev_targets
        else:
            sources, targets = self._sources, self._targets
        (terms,) = self._scratch.arrays((len(targets), x.dtype))
        # Reverse edges reuse the forward weight layout only for
        # unit-weight algorithms; weighted reverse products are not
        # needed by any kernel here.
        weighted = self._weights is not None and not (unit_weights or reverse)
        # CSR indices are in range by construction; under the default
        # mode="raise" numpy would gather into a copy of ``out``.
        np.take(x, sources, out=terms, mode="wrap")
        if weighted:
            semiring.multiply(terms, self._weights, out=terms)
        elif semiring.multiply is not np.multiply:  # x * 1.0 is x
            semiring.multiply(terms, 1.0, out=terms)
        return semiring.add_reduce(targets, terms, self.graph.num_vertices)

    def label_mode(self, labels: np.ndarray) -> np.ndarray:
        """The generalized product CDLP needs: per row, the most
        frequent incoming label (ties -> smallest), -1 where nothing is
        heard. The per-target combine is a label histogram rather than a
        scalar — the "generalized SpMV" GraphMat exposes for vertex
        programs whose reduction is not a classical semiring addition.
        Directed graphs hear both directions (a bidirectional pair
        counts twice, per the spec)."""
        n = self.graph.num_vertices
        receivers = (self._targets,)
        if self.graph.directed:
            receivers += (self._rev_targets,)
        if self._hearing is None:
            self._hearing = sum(np.bincount(part, minlength=n) for part in receivers)
        if self.rows is None and not self.graph.directed:
            # Hearing is symmetric: grouped by receiver, the fabric is
            # the CSR's rows, heard from their slots.
            return _most_frequent_min_label(
                n, None, labels, self._targets, self._hearing, self._scratch.arrays
            )
        senders = (self._sources, self._rev_sources)[:len(receivers)]
        return _most_frequent_min_label(
            n, receivers, labels, senders, self._hearing, self._scratch.arrays
        )

    def lcc(self) -> np.ndarray:
        """The product no semiring expresses: LCC's integer counts
        (:func:`repro.algorithms.lcc.lcc_counts`) over the triangles
        whose tail is in this block's rows. Unlike the other products
        it is full-length: a triangle credits all three of its corners,
        owned here or not, so blocks' counts are summed, not scattered."""
        return lcc_counts(self.graph, tails=self.rows)


_UNREACHED = np.iinfo(np.int64).max


def run_bfs(graph: Graph, source: int, engine=None) -> np.ndarray:
    """Level-synchronous BFS: frontier = (A^T f) & ~visited (OR-AND)."""
    if not graph.has_vertex(source):
        raise GraphFormatError(f"BFS source vertex {source} not in graph")
    engine = engine or SpMVEngine(graph)
    n = graph.num_vertices
    depth = np.full(n, _UNREACHED, dtype=np.int64)
    frontier = np.zeros(n)
    root = graph.index_of(source)
    frontier[root] = 1.0
    depth[root] = 0
    level = 0
    tracer = current_tracer()
    while frontier.any():
        level += 1
        with tracer.span("iteration", engine="spmv", algorithm="bfs",
                         index=level - 1):
            reached = engine.spmv(frontier, OR_AND, unit_weights=True)
            frontier = np.where(depth == _UNREACHED, reached, 0.0)
            depth[frontier > 0] = level
    return depth


def run_sssp(graph: Graph, source: int, engine=None) -> np.ndarray:
    """Bellman-Ford as iterated min-plus products with accumulate."""
    check_sssp_input(graph, source)
    engine = engine or SpMVEngine(graph)
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    dist[graph.index_of(source)] = 0.0
    tracer = current_tracer()
    for iteration in range(n):
        with tracer.span("iteration", engine="spmv", algorithm="sssp",
                         index=iteration):
            relaxed = np.minimum(dist, engine.spmv(dist, MIN_PLUS))
            converged = np.array_equal(relaxed, dist)
        if converged:
            break
        dist = relaxed
    return dist


def run_wcc(graph: Graph, engine=None) -> np.ndarray:
    """Min-label propagation: min-plus with zero weights, both ways."""
    engine = engine or SpMVEngine(graph)
    # Propagate dense indices (exact in float64, and monotone with the
    # external ids because the builder sorts ids ascending); ids
    # themselves may exceed 2**53 and would collide as floats.
    labels = np.arange(graph.num_vertices, dtype=np.float64)
    tracer = current_tracer()
    iteration = 0
    while True:
        with tracer.span("iteration", engine="spmv", algorithm="wcc",
                         index=iteration):
            candidate = np.minimum(labels, engine.spmv(labels, MIN_FIRST))
            if graph.directed:
                # An undirected graph's in-CSR is its out-CSR: there the
                # reverse product would repeat the forward one exactly.
                candidate = np.minimum(
                    candidate, engine.spmv(labels, MIN_FIRST, reverse=True)
                )
            converged = np.array_equal(candidate, labels)
        iteration += 1
        if converged:
            break
        labels = candidate
    return graph.vertex_ids[labels.astype(np.int64)]


def run_pagerank(
    graph: Graph, iterations: int = 30, damping: float = 0.85, engine=None
) -> np.ndarray:
    """Standard (+, x) PageRank with dangling redistribution."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    engine = engine or SpMVEngine(graph)
    out_degree = graph.out_degrees().astype(np.float64)
    dangling = out_degree == 0
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    tracer = current_tracer()
    for iteration in range(iterations):
        with tracer.span("iteration", engine="spmv", algorithm="pr",
                         index=iteration):
            contrib = np.zeros(n)
            np.divide(rank, out_degree, out=contrib, where=~dangling)
            incoming = engine.spmv(contrib, PLUS_TIMES, unit_weights=True)
            rank = base + damping * (incoming + rank[dangling].sum() / n)
    return rank


def run_cdlp(graph: Graph, iterations: int = 10, engine=None) -> np.ndarray:
    """Synchronous label propagation over the label-mode product."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    engine = engine or SpMVEngine(graph)
    labels = graph.vertex_ids.astype(np.int64).copy()
    tracer = current_tracer()
    for iteration in range(iterations):
        with tracer.span("iteration", engine="spmv", algorithm="cdlp",
                         index=iteration):
            heard = engine.label_mode(labels)
            updated = labels.copy()
            updated[heard >= 0] = heard[heard >= 0]
            converged = np.array_equal(updated, labels)
        if converged:
            break
        labels = updated
    return labels
