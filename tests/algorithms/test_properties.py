"""Property-based tests (hypothesis) for the core algorithm invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms.bfs import BFS_UNREACHABLE, breadth_first_search
from repro.algorithms.cdlp import community_detection_lp
from repro.algorithms.lcc import local_clustering_coefficient
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import single_source_shortest_paths
from repro.algorithms.wcc import weakly_connected_components
from repro.graph.graph import Graph


#: The weights ``random_graphs`` draws unless told otherwise.
WEIGHTS = st.floats(min_value=0.01, max_value=10.0)


@st.composite
def random_graphs(draw, directed=None, weighted=False, max_vertices=24, weights=WEIGHTS):
    """Arbitrary small graphs with at least one vertex: drawn pairs minus
    self-loops and repeats (the first occurrence kept; undirected, either
    way round), each drawn pair's weight drawn before the repeat is."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    if directed is None:
        directed = draw(st.booleans())
    max_edges = min(60, n * (n - 1) // (1 if directed else 2))
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges, drawn, seen = [], [], set()
    for s, d in draw(st.lists(pair, max_size=max_edges)):
        if s == d:
            continue
        weight = draw(weights) if weighted else None
        key = (s, d) if directed else (min(s, d), max(s, d))
        if key not in seen:
            seen.add(key)
            edges.append((s, d))
            drawn.append(weight)
    return Graph.from_edges(
        edges, directed=directed, weights=drawn if weighted else None, vertices=range(n)
    )


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_bfs_triangle_inequality(graph):
    """Depths along any edge differ by at most one (forward direction)."""
    source = int(graph.vertex_ids[0])
    depth = breadth_first_search(graph, source)
    for s, d in zip(graph.edge_src, graph.edge_dst):
        if depth[s] != BFS_UNREACHABLE:
            assert depth[d] <= depth[s] + 1
        if not graph.directed and depth[d] != BFS_UNREACHABLE:
            assert depth[s] <= depth[d] + 1


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_bfs_levels_are_contiguous(graph):
    depth = breadth_first_search(graph, int(graph.vertex_ids[0]))
    finite = sorted(set(int(d) for d in depth if d != BFS_UNREACHABLE))
    assert finite == list(range(len(finite)))


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_pagerank_is_a_distribution(graph):
    ranks = pagerank(graph, iterations=25)
    assert np.all(ranks > 0)
    assert ranks.sum() == np.float64(1.0) or abs(ranks.sum() - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_wcc_labels_constant_on_edges(graph):
    labels = weakly_connected_components(graph)
    for s, d in zip(graph.edge_src, graph.edge_dst):
        assert labels[s] == labels[d]


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_wcc_label_is_member_minimum(graph):
    labels = weakly_connected_components(graph)
    for component in np.unique(labels):
        members = graph.vertex_ids[labels == component]
        assert component == members.min()


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_lcc_bounded(graph):
    lcc = local_clustering_coefficient(graph)
    assert np.all(lcc >= 0.0)
    assert np.all(lcc <= 1.0)


@settings(max_examples=40, deadline=None)
@given(random_graphs(weighted=True))
def test_sssp_triangle_inequality(graph):
    source = int(graph.vertex_ids[0])
    dist = single_source_shortest_paths(graph, source)
    weights = graph.edge_weights
    for k in range(graph.num_edges):
        s, d = graph.edge_src[k], graph.edge_dst[k]
        if np.isfinite(dist[s]):
            assert dist[d] <= dist[s] + weights[k] + 1e-9
        if not graph.directed and np.isfinite(dist[d]):
            assert dist[s] <= dist[d] + weights[k] + 1e-9


@settings(max_examples=40, deadline=None)
@given(random_graphs(weighted=True))
def test_sssp_dominated_by_bfs_times_max_weight(graph):
    """d(v) <= hops(v) * max_weight for every reachable vertex."""
    source = int(graph.vertex_ids[0])
    dist = single_source_shortest_paths(graph, source)
    hops = breadth_first_search(graph, source)
    max_w = graph.edge_weights.max() if graph.num_edges else 0.0
    for v in range(graph.num_vertices):
        if hops[v] != BFS_UNREACHABLE:
            assert dist[v] <= hops[v] * max_w + 1e-9
        else:
            assert not np.isfinite(dist[v])


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.integers(min_value=0, max_value=6))
def test_cdlp_labels_are_vertex_ids(graph, iterations):
    labels = community_detection_lp(graph, iterations=iterations)
    valid = set(int(v) for v in graph.vertex_ids)
    assert all(int(label) in valid for label in labels)


@settings(max_examples=30, deadline=None)
@given(random_graphs())
def test_cdlp_deterministic(graph):
    a = community_detection_lp(graph, iterations=5)
    b = community_detection_lp(graph, iterations=5)
    assert np.array_equal(a, b)
