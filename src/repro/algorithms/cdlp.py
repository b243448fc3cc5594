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
key (receiver, label): equal pairs become adjacent runs, and
``np.maximum.reduceat`` over (run length, -label) picks the winner. The
key, and the (length, label) pair, are uint32 when their bits fit in
32, int64 otherwise — a property of the input, never an option. All of
it happens in three slot-sized arrays of one
:class:`~repro.algorithms.common.Scratch` block, reused every
iteration, where each slot carries its offset in its run.

The kernel propagates *ranks* of the ids (order-preserving, below
``n``, so ids past 2**53 survive, and the key is uint32 up to
n = 65 536) and keeps an **active set**:
``label[t+1](v)`` is a function of ``label[t]`` on ``N(v)`` alone, so a
vertex none of whose neighbors changed in step t keeps its label in
step t+1. Only rows that hear a changed vertex are recomputed — exact,
and so is recomputing more rows than that: a round whose active rows
hold more than half the slots reads the whole message fabric as it
stands, with no gather.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.exceptions import GenerationError
from repro.algorithms.common import (
    BATCH, Scratch, gather_neighbors, gather_ranges, repeat_into,
)
from repro.graph.graph import Graph

__all__ = ["community_detection_lp"]


def _key_width(n: int, slots: int, longest: int, bits: int):
    """The dtype that holds a (receiver, code) key, a slot position and
    an (offset in run, code) pair, or ``None`` when int64 cannot."""
    need = max(
        (n - 1).bit_length() + bits,
        (longest - 1).bit_length() + bits,
        (slots - 1).bit_length(),
    )
    if need <= 32:
        return np.uint32
    return np.int64 if need <= 63 else None


def _parts(arrays) -> tuple:
    return arrays if isinstance(arrays, tuple) else (arrays,)


def _most_frequent_min_label(
    n: int,
    receivers,
    labels_in: np.ndarray,
    senders=None,
    hearing: Optional[np.ndarray] = None,
    workspace: Optional[Callable[..., List[np.ndarray]]] = None,
) -> np.ndarray:
    """Per receiver, the most frequent label (ties -> smallest label).

    Slot k of the fabric: ``receivers[k]`` hears ``labels_in[senders[k]]``
    or, without ``senders``, ``labels_in[k]`` (any int64: the SpMV
    engines pass external ids). ``receivers`` and ``senders`` are arrays
    or equal-length tuples of parts (a directed fabric is its two
    halves, never concatenated); ``receivers=None`` says the slots come
    grouped by receiver, vertex by vertex, ``hearing[v]`` of them for
    vertex v. ``hearing`` is each vertex's slot count (counted from
    ``receivers`` when not given), and ``workspace`` hands out the
    slot-sized arrays (:meth:`Scratch.arrays` of a new block when not
    given). Returns an int64 array of length n with -1 for vertices that
    hear nothing.
    """
    result = np.full(n, -1, dtype=np.int64)
    if receivers is None:
        slots = int(hearing.sum())
    else:
        receivers = _parts(receivers)
        slots = sum(len(part) for part in receivers)
        if hearing is None:
            hearing = sum(np.bincount(part, minlength=n) for part in receivers)
    if slots == 0:
        return result
    workspace = workspace or Scratch().arrays
    # Labels as codes below 2**bits: offsets from the smallest label or,
    # when those are too spread out for the packed key, ranks.
    low, values = int(labels_in.min()), None
    bits = (int(labels_in.max()) - low).bit_length()
    longest = int(hearing.max())
    width = _key_width(n, slots, longest, bits)
    if width is None:
        values, labels_in = np.unique(labels_in, return_inverse=True)
        low, bits = 0, (len(values) - 1).bit_length()
        width = _key_width(n, slots, longest, bits)
    key, code, run = workspace((slots, width), (slots, width), (slots, width))

    # key = receiver << bits | code, built in place part by part. The
    # codes are differences of int64 labels, exact modulo the width.
    if senders is None:
        np.subtract(labels_in, low, out=code, casting="unsafe")
    else:
        codes = np.subtract(labels_in, low).astype(width)
        offset = 0
        for part in _parts(senders):
            np.take(codes, part, out=code[offset:offset + len(part)], mode="wrap")
            offset += len(part)
    if receivers is None:
        repeat_into(key, np.arange(n), hearing)
    else:
        offset = 0
        for part in receivers:
            np.copyto(key[offset:offset + len(part)], part, casting="unsafe")
            offset += len(part)
    key <<= bits
    key |= code
    key.sort()

    # Receivers own consecutive blocks of the sorted key, in order, and
    # within one, equal keys are a run. Per block, the maximum of
    # (length of a run - 1, -code) packed into one integer names the
    # longest run and, among those, the smallest code.
    run[0] = 1
    np.not_equal(key[1:], key[:-1], out=run[1:])  # 1 where a run starts
    heard = np.flatnonzero(hearing)
    first = (np.cumsum(hearing) - hearing)[heard]
    mask = (1 << bits) - 1
    # Every slot carries its offset in its run: its position less the
    # run's first (a running maximum of the run starts), largest at the
    # run's last slot.
    position = code
    for start in range(0, slots, BATCH):  # 0, 1, 2, ..., a batch at a time
        stop = min(start + BATCH, slots)
        position[start:stop] = np.arange(start, stop, dtype=width)
    run *= position
    np.maximum.accumulate(run, out=run)
    offset_in_run = np.subtract(position, run, out=position)
    key &= mask
    np.subtract(mask, key, out=key)
    offset_in_run <<= bits
    offset_in_run |= key
    best = np.maximum.reduceat(offset_in_run, first)
    winners = (mask - (best & mask)).astype(np.int64)
    result[heard] = winners + low if values is None else values[winners]
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
        indptr = graph.out_indptr + graph.in_indptr
        heard_from = np.empty(indptr[-1], dtype=np.int64)
        out_degree = np.diff(graph.out_indptr)
        heard_from[gather_ranges(indptr[:-1], out_degree)] = graph.out_indices
        heard_from[
            gather_ranges(indptr[:-1] + out_degree, np.diff(graph.in_indptr))
        ] = graph.in_indices
    slots = len(heard_from)
    degree = np.diff(indptr)

    by_id = np.argsort(graph.vertex_ids, kind="stable")
    labels = np.empty(n, dtype=np.int64)
    labels[by_id] = np.arange(n, dtype=np.int64)  # rank of each vertex's id
    # The call's one block: the senders of a gathered round (at most
    # half the slots, or the round reads the whole fabric), then the
    # label mode's keys, as wide as ranks below n need.
    pinned = (slots // 2, np.int64)
    width = _key_width(n, slots, int(degree.max(initial=0)), (n - 1).bit_length())
    scratch = Scratch()
    some_senders = scratch.arrays(pinned, *[(slots, width)] * 3)[0]

    def workspace(*layout):
        return scratch.arrays(pinned, *layout)[1:]

    vertices = np.arange(n, dtype=np.int64)
    active = vertices
    for _ in range(iterations):
        # The fabric is receiver-major: a round reads it as it is, or
        # the rows of its active vertices, in order.
        if len(active) == n:
            senders, hearing = heard_from, degree
        else:
            senders = gather_neighbors(indptr, heard_from, active, some_senders)
            hearing = np.zeros(n, dtype=np.int64)
            hearing[active] = degree[active]
        heard = _most_frequent_min_label(n, None, labels, senders, hearing, workspace)
        changed = np.flatnonzero((heard >= 0) & (heard != labels))
        if len(changed) == 0:
            break
        labels[changed] = heard[changed]
        # Only rows that hear a changed vertex can differ next round:
        # by symmetry, the entries of the changed vertices' own rows.
        active = vertices
        if degree[changed].sum() <= slots // 2:
            hears_change = np.zeros(n, dtype=bool)
            hears_change[gather_neighbors(indptr, heard_from, changed, some_senders)] = True
            active = np.flatnonzero(hears_change)
            if degree[active].sum() > slots // 2:
                active = vertices
    return graph.vertex_ids[by_id][labels]
