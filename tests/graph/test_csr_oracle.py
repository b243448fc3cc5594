"""CSR construction oracle.

The naive per-vertex CSR builder (quadratic-ish: a Python loop sorting
each adjacency list) used to live in production code as ``_build_csr``;
it now exists only here, as the obviously-correct oracle that the
vectorized ``_build_csr_fast`` must match bit for bit on random graphs.
The stable ``np.lexsort((dst, src))`` build that preceded the packed-key
sort is kept here too, as the oracle on tie-free slot lists. Equal slots
(parallel edges, an undirected self-loop or reciprocal pair) are outside
the data model, and the builder refuses them.
"""

from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph, _build_csr_fast


def _build_csr_oracle(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The retired slow builder: bucket by source, then sort each list."""
    degree = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    indices = dst[order].astype(np.int64, copy=False)
    w = weights[order].copy() if weights is not None else None
    for v in range(n):
        lo, hi = indptr[v], indptr[v + 1]
        if hi - lo > 1:
            sub = np.argsort(indices[lo:hi], kind="stable")
            indices[lo:hi] = indices[lo:hi][sub]
            if w is not None:
                w[lo:hi] = w[lo:hi][sub]
    return indptr, indices, w


def _build_csr_lexsort(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The previous vectorised builder: a stable sort by (src, dst)."""
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int64, copy=False)
    w = weights[order] if weights is not None else None
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[order], minlength=n), out=indptr[1:])
    return indptr, indices, w


def _assert_same_csr(got, expected):
    for name, a, b in zip(("indptr", "indices", "weights"), got, expected):
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def _slot_lists(draw):
    """Slot lists with every kind of tie: parallel edges, self-loops,
    reciprocal pairs, and weights drawn from a tiny set so equal
    weights sit on distinct slots."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    if pairs:
        # Repeat some pairs as they are, reversed, or as a loop.
        for s, d in draw(st.lists(st.sampled_from(pairs), max_size=20)):
            pairs.append(draw(st.sampled_from([(s, d), (d, s), (s, s)])))
    pairs = draw(st.permutations(pairs))
    src = np.asarray([p[0] for p in pairs], dtype=np.int64)
    dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                          min_size=len(pairs), max_size=len(pairs))),
            dtype=np.float64,
        )
    return n, src, dst, weights


def _distinct(n, src, dst, weights):
    """The first occurrence of every slot, in input order."""
    first = np.sort(np.unique(src * n + dst, return_index=True)[1])
    return src[first], dst[first], weights[first] if weights is not None else None


@settings(max_examples=300, deadline=None)
@given(_slot_lists())
def test_packed_key_sort_matches_stable_lexsort(slots):
    n, src, dst, weights = slots
    if len(np.unique(src * n + dst)) < len(src):
        with pytest.raises(GraphFormatError, match="two slots are equal"):
            _build_csr_fast(n, src, dst, weights)
    src, dst, weights = _distinct(n, src, dst, weights)
    _assert_same_csr(
        _build_csr_fast(n, src, dst, weights),
        _build_csr_lexsort(n, src, dst, weights),
    )


@settings(max_examples=100, deadline=None)
@given(_slot_lists())
def test_undirected_slots_match_stable_lexsort(slots):
    # Graph's undirected CSR sorts both orientations of every edge, so a
    # self-loop, a repeat or a reciprocal pair makes two equal slots.
    n, src, dst, weights = slots
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    if np.any(src == dst) or len(np.unique(lo * n + hi)) < len(src):
        with pytest.raises(GraphFormatError, match="is a self-loop|is a duplicate of edge"):
            Graph(vertex_ids=np.arange(n), src=src, dst=dst, directed=False, weights=weights)
    first = np.sort(np.unique(lo * n + hi, return_index=True)[1])
    first = first[src[first] != dst[first]]
    src, dst = src[first], dst[first]
    weights = weights[first] if weights is not None else None
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    both_w = np.concatenate([weights, weights]) if weights is not None else None
    _assert_same_csr(
        _build_csr_fast(n, both_src, both_dst, both_w),
        _build_csr_lexsort(n, both_src, both_dst, both_w),
    )


def test_ties_keep_input_order():
    # Equal slots have no order to keep: they are refused. Parallel
    # slots 0 -> 1 at input positions 0, 1 and 4.
    src = np.asarray([0, 0, 1, 0, 0], dtype=np.int64)
    dst = np.asarray([1, 1, 0, 0, 1], dtype=np.int64)
    with pytest.raises(GraphFormatError, match="two slots are equal"):
        _build_csr_fast(2, src, dst, None)
    with pytest.raises(GraphFormatError, match=r"^edge 1 \(0,1\) is a duplicate of edge 0 \(0,1\)$"):
        Graph(vertex_ids=np.arange(2), src=src, dst=dst, directed=True)
    # Thousands of slots over a handful of keys, and thousands of
    # distinct slots shuffled: large enough for numpy's unstable sort
    # to reorder, and without a tie the order is the lexsort's.
    rng = np.random.default_rng(5)
    src = rng.integers(0, 3, 20_000)
    dst = rng.integers(0, 3, 20_000)
    with pytest.raises(GraphFormatError, match="two slots are equal"):
        _build_csr_fast(3, src, dst, None)
    keys = rng.permutation(200 * 200)[:20_000]
    src, dst = np.divmod(keys, 200)
    weights = np.arange(20_000, dtype=np.float64)
    _assert_same_csr(
        _build_csr_fast(200, src, dst, weights),
        _build_csr_lexsort(200, src, dst, weights),
    )


def _random_edges(rng, n, m, *, weighted):
    """m unique non-self-loop edges over n vertices (directed pairs)."""
    seen = set()
    src, dst = [], []
    while len(src) < m:
        s = int(rng.integers(0, n))
        d = int(rng.integers(0, n))
        if s == d or (s, d) in seen:
            continue
        seen.add((s, d))
        src.append(s)
        dst.append(d)
    weights = rng.random(m) if weighted else None
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        weights,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("weighted", [False, True])
def test_fast_builder_matches_oracle_on_random_graphs(seed, weighted):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    max_edges = n * (n - 1)
    m = int(rng.integers(1, min(400, max_edges)))
    src, dst, weights = _random_edges(rng, n, m, weighted=weighted)

    fast = _build_csr_fast(n, src, dst, weights)
    slow = _build_csr_oracle(n, src, dst, weights)

    np.testing.assert_array_equal(fast[0], slow[0])
    np.testing.assert_array_equal(fast[1], slow[1])
    if weighted:
        np.testing.assert_array_equal(fast[2], slow[2])
    else:
        assert fast[2] is None and slow[2] is None


def test_fast_builder_handles_empty_and_isolated_vertices():
    n = 7
    src = np.asarray([], dtype=np.int64)
    dst = np.asarray([], dtype=np.int64)
    fast = _build_csr_fast(n, src, dst, None)
    slow = _build_csr_oracle(n, src, dst, None)
    np.testing.assert_array_equal(fast[0], slow[0])
    np.testing.assert_array_equal(fast[1], slow[1])
    assert fast[0][-1] == 0


def test_graph_adjacency_is_sorted_per_vertex():
    # The public consequence of the CSR contract both builders share.
    rng = np.random.default_rng(7)
    src, dst, weights = _random_edges(rng, 25, 120, weighted=True)
    graph = Graph(
        vertex_ids=np.arange(25),
        src=src,
        dst=dst,
        directed=True,
        weights=weights,
    )
    for v in range(25):
        neighbors = graph.out_neighbors(v)
        assert np.all(np.diff(neighbors) > 0)
