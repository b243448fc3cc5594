"""Graph500 and ``to_undirected`` against the pipelines they replaced.

Both used to deduplicate with a stable ``np.unique(return_index=True)``,
find the vertex set with ``np.unique`` and build the CSR with a stable
``np.lexsort``. Those pipelines are kept here as the oracle: the
generator's random stream is unchanged, so every array must be equal,
dtype and bytes, at every scale.
"""

import numpy as np
import pytest

from repro.datagen.graph500 import Graph500Config, _rmat_edges, graph500
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from tests.graph.test_csr_oracle import _build_csr_lexsort as _csr

ARRAYS = (
    "vertex_ids", "edge_src", "edge_dst", "edge_weights",
    "out_indptr", "out_indices", "out_weights",
    "in_indptr", "in_indices", "in_weights",
)


def _first_occurrences(keys):
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return first


def _oracle_arrays(vertex_ids, src, dst, weights, directed):
    """Every array a Graph exposes, built the way the parent built it."""
    n = len(vertex_ids)
    arrays = dict(vertex_ids=vertex_ids, edge_src=src, edge_dst=dst, edge_weights=weights)
    if directed:
        out, inn = _csr(n, src, dst, weights), _csr(n, dst, src, weights)
    else:
        both_w = np.concatenate([weights, weights]) if weights is not None else None
        out = inn = _csr(
            n, np.concatenate([src, dst]), np.concatenate([dst, src]), both_w
        )
    for prefix, csr in (("out", out), ("in", inn)):
        arrays.update(zip((f"{prefix}_indptr", f"{prefix}_indices", f"{prefix}_weights"), csr))
    return arrays


def _graph500_oracle(scale, edgefactor, weighted, seed):
    config = Graph500Config(scale=scale, edgefactor=edgefactor, seed=seed)
    rng = np.random.default_rng(seed)
    src, dst = _rmat_edges(config, rng)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    first = _first_occurrences(lo * np.int64(config.num_vertex_slots) + hi)
    lo, hi = lo[first], hi[first]
    vertex_ids = np.unique(np.concatenate([lo, hi]))
    index = np.full(config.num_vertex_slots, -1, dtype=np.int64)
    index[vertex_ids] = np.arange(len(vertex_ids))
    weights = None
    if weighted:
        weights = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=len(lo))
    return _oracle_arrays(vertex_ids, index[lo], index[hi], weights, directed=False)


def _assert_arrays(graph, expected):
    for name in ARRAYS:
        got, want = getattr(graph, name), expected[name]
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("edgefactor", [16, 3])
@pytest.mark.parametrize("scale", range(1, 15))
def test_graph500_equals_the_unique_and_lexsort_pipeline(scale, edgefactor, weighted):
    seed = scale + edgefactor
    _assert_arrays(
        graph500(scale, edgefactor=edgefactor, weighted=weighted, seed=seed),
        _graph500_oracle(scale, edgefactor, weighted, seed),
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("weighted", [False, True])
def test_to_undirected_equals_the_unique_pipeline(seed, weighted):
    # Dense enough that many directed edges have their reverse.
    g = erdos_renyi(120, 0.15, directed=True, weighted=weighted, seed=seed)
    lo = np.minimum(g.edge_src, g.edge_dst)
    hi = np.maximum(g.edge_src, g.edge_dst)
    first = _first_occurrences(lo * np.int64(g.num_vertices) + hi)
    weights = g.edge_weights[first] if weighted else None
    expected = _oracle_arrays(g.vertex_ids, lo[first], hi[first], weights, directed=False)
    undirected = g.to_undirected()
    assert undirected.num_edges < g.num_edges  # reciprocal pairs collapsed
    _assert_arrays(undirected, expected)


def test_directed_graph_equals_the_lexsort_pipeline():
    g = erdos_renyi(200, 0.05, directed=True, weighted=True, seed=9)
    expected = _oracle_arrays(
        np.asarray(g.vertex_ids), g.edge_src, g.edge_dst, g.edge_weights, directed=True
    )
    _assert_arrays(
        Graph(vertex_ids=g.vertex_ids, src=g.edge_src, dst=g.edge_dst,
              directed=True, weights=g.edge_weights),
        expected,
    )
