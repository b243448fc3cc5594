"""Local clustering coefficient (LCC).

Graphalytics definition: for each vertex, the ratio between the number of
edges that exist between its neighbors and the maximum number of such
edges. Formally, with ``N(v)`` the neighborhood of ``v`` (union of in-
and out-neighbors, excluding ``v`` itself):

    lcc(v) = |{(u, w) in E : u, w in N(v)}| / (|N(v)| * (|N(v)| - 1))

Ordered pairs are counted, so in an undirected graph each triangle edge
contributes twice (both (u,w) and (w,u) are "in E") and the familiar
``2T / (d (d-1))`` formula is recovered. Vertices with fewer than two
neighbors have LCC 0.

This is the most demanding of the six algorithms, which is why the paper
observes SLA failures for LCC on dense graphs (§4.2): intersecting every
neighborhood walks O(sum_v d(v)^2) wedges. The kernel instead finds each
triangle once, directed or not. The *support* graph has an edge {u, w}
wherever an arc joins u and w, with multiplicity 1 (one-way arc) or 2
(undirected edge, reciprocal pair); ``|N(v)|`` is v's support degree.
Orienting support edges towards the higher (degree, index) endpoint
keeps out-lists below sqrt(2|E|) and makes a triangle exactly one pair
{w, x} of some out(u) joined by a support edge. The numerator of
``lcc(v)`` counts, per triangle at v, the arcs between the other two
corners — the multiplicity of the edge *opposite* v — and ``links /
(d * (d - 1))`` is the definition's own integer division: exact.

Every triangle has exactly one tail — the corner whose out-list holds
the other two — so the counts split over any partition of the tails
into integer partial sums that add up to the whole graph's, in any
order: :func:`lcc_counts` is that split (the sharded engine's LCC
product), :func:`lcc_from_counts` the one division.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import expand_sources, gather_ranges
from repro.graph.graph import Graph
from repro.trace import current_tracer

__all__ = ["lcc_counts", "lcc_from_counts", "local_clustering_coefficient"]

#: Pairs tested per vectorized step; bounds the transient memory.
_WEDGE_CHUNK = 1 << 16


def local_clustering_coefficient(graph: Graph) -> np.ndarray:
    """LCC of every vertex; returns a float64 array of values in [0, 1]."""
    return lcc_from_counts(lcc_counts(graph))


def lcc_from_counts(counts: np.ndarray) -> np.ndarray:
    """The definition's division, ``links / (d * (d - 1))``, over the
    two rows of :func:`lcc_counts` (summed, when they come in parts)."""
    links, pairs = counts
    result = np.zeros(len(links), dtype=np.float64)
    np.divide(links, pairs, out=result, where=pairs > 0)
    return result


def lcc_counts(graph: Graph, tails=None) -> np.ndarray:
    """LCC's numerator and denominator per vertex, as int64 rows.

    Row 0 holds the links that the triangles whose tail is in ``tails``
    (dense indices; every vertex by default) credit to each corner;
    row 1 holds ``d * (d - 1)`` of the vertices in ``tails``, zero
    elsewhere. Both rows are full-length, and over a partition of the
    vertices the parts sum to the whole graph's counts. Only the pairs
    of the tails' out-lists are enumerated, so a part costs its share of
    the pairs (tracer counter ``lcc.pairs``, bumped once per step).
    """
    n = graph.num_vertices
    counts = np.zeros((2, n), dtype=np.int64)
    if n == 0:
        return counts
    counted = np.ones(n, dtype=bool)
    if tails is not None:
        counted[:] = False
        counted[np.asarray(tails, dtype=np.int64)] = True

    # Support edges lo < hi, sorted by key lo * n + hi, and their arcs.
    sources, targets = expand_sources(graph.out_indptr), graph.out_indices
    keys = np.minimum(sources, targets) * n + np.maximum(sources, targets)
    keys, mult = np.unique(keys[sources != targets], return_counts=True)
    lo, hi = np.divmod(keys, n)
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)

    # Orient (lo < hi already breaks degree ties) and sort by (tail,
    # head): row u of that CSR is out(u), heads ascending.
    flip = degree[lo] > degree[hi]
    oriented = np.where(flip, hi, lo) * n + np.where(flip, lo, hi)
    order = np.argsort(oriented)
    tail, head = np.divmod(oriented[order], n)
    out_mult = mult[order]

    # Slot i = (u -> w) pairs with every later slot j = (u -> x) of its
    # row; w < x, so the closing support edge, if any, has key w * n + x.
    # Only the slots of counted tails are walked.
    slots = np.arange(len(keys))
    partners = np.searchsorted(tail, tail, side="right") - 1 - slots
    walked = counted[tail]
    slots, partners = slots[walked], partners[walked]
    steps = np.arange(0, partners.sum() + _WEDGE_CHUNK, _WEDGE_CHUNK)
    bounds = np.searchsorted(np.cumsum(partners), steps, side="right")
    links = counts[0]
    tracer = current_tracer()
    for begin, end in zip(bounds[:-1], bounds[1:]):
        first = np.repeat(slots[begin:end], partners[begin:end])
        second = gather_ranges(slots[begin:end] + 1, partners[begin:end])
        tracer.counter("lcc.pairs", len(first))
        closing_key = head[first] * n + head[second]
        closing = np.searchsorted(keys, closing_key)
        closing[closing == len(keys)] = 0
        found = keys[closing] == closing_key
        first, second, closing = first[found], second[found], closing[found]
        # Triangle {u, w, x}: each corner gets the opposite edge's arcs.
        np.add.at(links, tail[first], mult[closing])
        np.add.at(links, head[first], out_mult[second])
        np.add.at(links, head[second], out_mult[first])

    counts[1] = np.where(counted, degree * (degree - 1), 0)
    return counts
