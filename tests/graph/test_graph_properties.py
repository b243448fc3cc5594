"""Property-based tests (hypothesis) for the graph substrate invariants."""

import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph
from repro.graph.io import read_graph, write_graph

from tests.algorithms.test_properties import random_graphs

#: Valid weights at the edges of the model (zero either sign, the least
#: subnormal, the largest float) mixed with ordinary ones.
EDGE_WEIGHTS = st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max]) | st.floats(0.0, 10.0)


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_csr_consistency(graph):
    """CSR arrays must exactly encode the logical edge list."""
    # Reconstruct directed edge pairs from the out-CSR.
    pairs = set()
    for v in range(graph.num_vertices):
        for u in graph.out_neighbors(v):
            pairs.add((v, int(u)))
    expected = set()
    for s, d in zip(graph.edge_src, graph.edge_dst):
        expected.add((int(s), int(d)))
        if not graph.directed:
            expected.add((int(d), int(s)))
    assert pairs == expected


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_in_csr_is_transpose_of_out_csr(graph):
    forward = set()
    for v in range(graph.num_vertices):
        for u in graph.out_neighbors(v):
            forward.add((v, int(u)))
    backward = set()
    for v in range(graph.num_vertices):
        for u in graph.in_neighbors(v):
            backward.add((int(u), v))
    assert forward == backward


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_adjacency_sorted_and_loop_free(graph):
    for v in range(graph.num_vertices):
        nbrs = graph.out_neighbors(v)
        assert np.all(np.diff(nbrs) > 0)  # sorted, duplicate-free
        assert v not in nbrs              # no self-loops


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_degree_identities(graph):
    if graph.directed:
        assert graph.out_degrees().sum() == graph.num_edges
        assert graph.in_degrees().sum() == graph.num_edges
    else:
        assert graph.out_degrees().sum() == 2 * graph.num_edges
    assert graph.degrees().sum() == 2 * graph.num_edges


@settings(max_examples=30, deadline=None)
@given(random_graphs(weighted=True))
def test_csr_weight_alignment(graph):
    """Every CSR slot's weight equals its logical edge's weight."""
    lookup = {}
    for k in range(graph.num_edges):
        key = (int(graph.edge_src[k]), int(graph.edge_dst[k]))
        lookup[key] = float(graph.edge_weights[k])
        if not graph.directed:
            lookup[(key[1], key[0])] = float(graph.edge_weights[k])
    for v in range(graph.num_vertices):
        nbrs, weights = graph.out_edges(v)
        for u, w in zip(nbrs, weights):
            assert lookup[(v, int(u))] == float(w)


@settings(max_examples=25, deadline=None)
@given(random_graphs(weighted=True))
def test_evl_roundtrip_property(graph):
    with tempfile.TemporaryDirectory() as tmp:
        write_graph(graph, Path(tmp) / "g")
        reloaded = read_graph(
            Path(tmp) / "g", directed=graph.directed, weighted=True
        )
        assert reloaded.num_vertices == graph.num_vertices
        assert reloaded.num_edges == graph.num_edges
        assert sorted(reloaded.edges()) == sorted(graph.edges())


@settings(max_examples=40, deadline=None)
@given(random_graphs(weighted=True, weights=EDGE_WEIGHTS))
def test_every_constructible_graph_survives_the_evl_files(graph):
    """What ``Graph`` admits, ``write_graph`` writes and ``read_graph``
    reads back byte for byte: one weight rule serves both."""
    with tempfile.TemporaryDirectory() as tmp:
        write_graph(graph, Path(tmp) / "g")
        back = read_graph(Path(tmp) / "g", directed=graph.directed, weighted=True)
    for name in ("vertex_ids", "edge_src", "edge_dst", "edge_weights"):
        a, b = getattr(back, name), getattr(graph, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


@settings(max_examples=40, deadline=None)
@given(random_graphs(weighted=True), st.data())
def test_graph_refuses_weights_outside_the_model(graph, data):
    """NaN, ±inf and negative weights never build, and the error names
    the first offending edge in input order."""
    assume(graph.num_edges > 0)
    weights = graph.edge_weights.copy()
    edge = st.integers(0, graph.num_edges - 1)
    poisoned = data.draw(st.lists(edge, min_size=1, unique=True))
    for k in poisoned:
        weights[k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.5]))
    k = min(poisoned)
    ids = graph.vertex_ids
    expected = (
        f"edge {k} ({ids[graph.edge_src[k]]},{ids[graph.edge_dst[k]]}) has weight "
        f"{float(weights[k])}, not a finite non-negative number"
    )
    with pytest.raises(GraphFormatError, match=f"^{re.escape(expected)}$"):
        Graph(vertex_ids=ids, src=graph.edge_src, dst=graph.edge_dst,
              directed=graph.directed, weights=weights)


@settings(max_examples=40, deadline=None)
@given(random_graphs(directed=True))
def test_to_undirected_properties(graph):
    undirected = graph.to_undirected()
    assert not undirected.directed
    assert undirected.num_vertices == graph.num_vertices
    # Edge count: unordered pairs of the directed edge set.
    pairs = {
        (min(int(s), int(d)), max(int(s), int(d)))
        for s, d in zip(graph.edge_src, graph.edge_dst)
    }
    assert undirected.num_edges == len(pairs)
    # Adjacency preserved.
    for a, b in pairs:
        assert undirected.has_edge(a, b)


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.integers(min_value=1, max_value=8))
def test_subgraph_properties(graph, keep):
    keep = min(keep, graph.num_vertices)
    indices = list(range(keep))
    sub = graph.subgraph(indices)
    assert sub.num_vertices == keep
    kept_ids = {graph.id_of(i) for i in indices}
    for s, d in sub.edges():
        assert s in kept_ids and d in kept_ids
    # Every original edge among kept vertices survives.
    survived = {(min(s, d), max(s, d)) for s, d in sub.edges()}
    for s, d in graph.edges():
        if s in kept_ids and d in kept_ids:
            assert (min(s, d), max(s, d)) in survived


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                max_size=40, unique=True))
def test_from_edges_vertex_set_roundtrip(ids):
    graph = Graph.from_edges([], vertices=ids)
    assert sorted(graph.vertex_ids.tolist()) == sorted(ids)
    for vid in ids:
        assert graph.id_of(graph.index_of(vid)) == vid
