"""Community detection using label propagation (CDLP).

Graphalytics selects the label-propagation algorithm of Raghavan et
al. [34], "modified slightly to be both parallel and deterministic" [24]:

* every vertex starts with its own (external) id as label;
* each iteration is synchronous: every vertex simultaneously adopts the
  label that is most frequent among its neighbors' previous labels,
  breaking frequency ties by choosing the *smallest* label;
* for directed graphs both in- and out-neighbors are considered, and a
  vertex connected in both directions is counted twice;
* the number of iterations is a fixed workload parameter, making the
  output deterministic.

Vertices without neighbors keep their own label.

A receiver's histogram is reduced with one sort of the packed integer
key (receiver, label): equal pairs become adjacent runs, run lengths are
the frequencies, and ``np.maximum.reduceat`` over (count, -label) picks
the winner. The key is uint32 when the receiver and label bits fit in
32, int64 otherwise — a property of the input, never an option. The
kernel propagates *ranks* of the ids (order-preserving, below ``n``, so
ids past 2**53 survive, and the key is uint32 up to n = 65 536) and
keeps an **active set**: ``label[t+1](v)`` is a function of ``label[t]``
on ``N(v)`` alone, so a vertex none of whose neighbors changed in step t
keeps its label in step t+1. Only rows that hear a changed vertex are
recomputed — exact. A round in which every row is active reads the
message fabric as it stands, with no gather.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GenerationError
from repro.algorithms.common import expand_sources, gather_slots, run_starts
from repro.graph.graph import Graph

__all__ = ["community_detection_lp"]


def _most_frequent_min_label(
    n: int, receivers: np.ndarray, labels_in: np.ndarray
) -> np.ndarray:
    """Per receiver, the most frequent label (ties -> smallest label).

    ``receivers[k]`` hears label ``labels_in[k]`` (any int64: the SpMV
    engines pass external ids). Returns an int64 array of length n with
    -1 for vertices that hear nothing.
    """
    result = np.full(n, -1, dtype=np.int64)
    if len(receivers) == 0:
        return result
    # Labels as codes below 2**bits: offsets from the smallest label or,
    # when those are too spread out for the packed key, ranks.
    low, values = int(labels_in.min()), None
    bits = (int(labels_in.max()) - low).bit_length()
    if (max(n, len(receivers)) + 1) << bits < 1 << 63:
        codes = labels_in - low
    else:
        values, codes = np.unique(labels_in, return_inverse=True)
        bits = len(values).bit_length()
    # Receivers are below n, so the key takes (n - 1).bit_length() + bits
    # bits: uint32 when that fits (it sorts almost twice as fast), int64
    # otherwise. The (count, code) pairs below stay int64 either way.
    width = np.uint32 if (n - 1).bit_length() + bits <= 32 else np.int64
    key = receivers.astype(width)
    key <<= bits
    key |= codes.astype(width, copy=False)
    key.sort()
    starts = run_starts(key)  # one run per distinct (receiver, code)
    counts = np.diff(starts, append=len(key))
    key = key[starts]
    # Runs are receiver-major: one reduceat per receiver over
    # (count, -code) packed into a single integer.
    mask = (1 << bits) - 1
    receiver = key >> bits
    first = run_starts(receiver)
    best = np.maximum.reduceat((counts << bits) | (mask - (key & mask)), first)
    winners = mask - (best & mask)
    result[receiver[first]] = winners + low if values is None else values[winners]
    return result


def community_detection_lp(graph: Graph, *, iterations: int = 10) -> np.ndarray:
    """Deterministic synchronous label propagation; returns int64 labels.

    The returned array is indexed by dense vertex index and holds external
    vertex ids (community labels).
    """
    if iterations < 0:
        raise GenerationError(f"iterations must be >= 0, got {iterations}")
    n = graph.num_vertices

    # Message fabric, receiver-major: row v lists every vertex v hears.
    # An undirected CSR already holds both directions; a directed vertex
    # hears its out- and its in-neighbors, so the two CSRs are merged row
    # by row (a bidirectional pair appears twice and counts twice, per
    # the spec). Hearing is symmetric: v hears u iff u hears v.
    indptr, heard_from = graph.out_indptr, graph.out_indices
    if graph.directed:
        rows = np.concatenate(
            [expand_sources(graph.out_indptr), expand_sources(graph.in_indptr)]
        )
        heard_from = np.concatenate([graph.out_indices, graph.in_indices])[
            np.argsort(rows, kind="stable")
        ]
        indptr = graph.out_indptr + graph.in_indptr

    by_id = np.argsort(graph.vertex_ids, kind="stable")
    labels = np.empty(n, dtype=np.int64)
    labels[by_id] = np.arange(n, dtype=np.int64)  # rank of each vertex's id
    receivers = expand_sources(indptr)
    active = np.arange(n, dtype=np.int64)
    for _ in range(iterations):
        if len(active) == n:  # every row: the fabric as it is
            heard = _most_frequent_min_label(n, receivers, labels[heard_from])
        else:
            slots, counts = gather_slots(indptr, active)
            heard = _most_frequent_min_label(
                n, np.repeat(active, counts), labels[heard_from[slots]]
            )
        changed = np.flatnonzero((heard >= 0) & (heard != labels))
        if len(changed) == 0:
            break
        labels[changed] = heard[changed]
        # Only rows that hear a changed vertex can differ next round:
        # by symmetry, the entries of the changed vertices' own rows.
        hears_change = np.zeros(n, dtype=bool)
        hears_change[heard_from[gather_slots(indptr, changed)[0]]] = True
        active = np.flatnonzero(hears_change)
    return graph.vertex_ids[by_id][labels]
