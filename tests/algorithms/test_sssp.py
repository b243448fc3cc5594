"""Tests for single-source shortest paths."""

import numpy as np
import pytest

from repro.exceptions import GraphFormatError
from tests.algorithms import variants
from repro.algorithms.sssp import (
    SSSP_UNREACHABLE,
    check_sssp_input,
    single_source_shortest_paths,
)
from repro.engines import gas, pregel, spmv
from repro.graph.graph import Graph


def weighted_graph(edges, directed=False, vertices=None):
    return Graph.from_edges(
        [(s, d) for s, d, _ in edges],
        directed=directed,
        weights=[w for _, _, w in edges],
        vertices=vertices,
    )


class TestAnalyticCases:
    def test_weighted_path(self):
        g = weighted_graph([(0, 1, 2.0), (1, 2, 3.0)])
        dist = single_source_shortest_paths(g, 0)
        assert dist[g.index_of(2)] == pytest.approx(5.0)

    def test_shortcut_preferred(self):
        # Direct edge weight 10 vs two-hop route weight 3.
        g = weighted_graph([(0, 2, 10.0), (0, 1, 1.0), (1, 2, 2.0)])
        dist = single_source_shortest_paths(g, 0)
        assert dist[g.index_of(2)] == pytest.approx(3.0)

    def test_source_distance_zero(self):
        g = weighted_graph([(0, 1, 5.0)])
        assert single_source_shortest_paths(g, 0)[g.index_of(0)] == 0.0

    def test_unreachable_infinite(self):
        g = weighted_graph([(0, 1, 1.0)], vertices=[0, 1, 9])
        dist = single_source_shortest_paths(g, 0)
        assert dist[g.index_of(9)] == SSSP_UNREACHABLE
        assert np.isinf(SSSP_UNREACHABLE)

    def test_zero_weight_edges(self):
        g = weighted_graph([(0, 1, 0.0), (1, 2, 0.0)])
        dist = single_source_shortest_paths(g, 0)
        assert dist[g.index_of(2)] == 0.0

    def test_double_precision(self):
        w = 0.1 + 1e-12
        g = weighted_graph([(0, 1, w)])
        assert single_source_shortest_paths(g, 0)[g.index_of(1)] == w


class TestDirected:
    def test_follows_direction(self):
        g = weighted_graph([(0, 1, 1.0), (2, 1, 1.0)], directed=True)
        dist = single_source_shortest_paths(g, 0)
        assert dist[g.index_of(2)] == SSSP_UNREACHABLE

    def test_asymmetric_routes(self):
        g = weighted_graph(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 100.0)], directed=True
        )
        assert single_source_shortest_paths(g, 0)[g.index_of(2)] == 2.0
        assert single_source_shortest_paths(g, 2)[g.index_of(1)] == 101.0


class TestValidation:
    def test_unweighted_graph_rejected(self, path5):
        with pytest.raises(GraphFormatError, match="weighted"):
            single_source_shortest_paths(path5, 0)

    def test_unknown_source(self):
        g = weighted_graph([(0, 1, 1.0)])
        with pytest.raises(GraphFormatError, match="source vertex"):
            single_source_shortest_paths(g, 42)


#: Everything that computes SSSP shares one input check.
SSSP_IMPLEMENTATIONS = [
    single_source_shortest_paths,
    variants.sssp_dijkstra,
    variants.sssp_delta_stepping,
    variants.sssp_bellman_ford,
    spmv.run_sssp,
    gas.sssp_gas_program,
    pregel.sssp_program,
    check_sssp_input,
]


def _raw_weighted(weights):
    """A 3-vertex path with the given weights, straight through the
    constructor."""
    return Graph(
        vertex_ids=np.arange(3), src=np.array([0, 1]), dst=np.array([1, 2]),
        directed=True, weights=np.array(weights),
    )


@pytest.mark.parametrize("run", SSSP_IMPLEMENTATIONS)
class TestSharedInputCheck:
    def test_unweighted_graph_rejected(self, run, path5):
        with pytest.raises(GraphFormatError, match="weighted"):
            run(path5, 0)

    def test_unknown_source(self, run):
        with pytest.raises(GraphFormatError, match="source vertex"):
            run(_raw_weighted([1.0, 1.0]), 42)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("-inf")])
    def test_negative_and_nan_weights_rejected(self, run, bad):
        with pytest.raises(GraphFormatError, match="non-negative"):
            run(_raw_weighted([1.0, bad]), 0)

    def test_zero_weights_accepted(self, run):
        run(_raw_weighted([0.0, -0.0]), 0)

    def test_infinite_weight_refused_before_any_run(self, run):
        # The data model's weights are finite: no implementation sees inf.
        with pytest.raises(GraphFormatError, match="has weight inf"):
            run(_raw_weighted([0.0, float("inf")]), 0)


class TestAgainstNetworkx:
    def test_matches_networkx(self, er_weighted, nx_converter):
        import networkx as nx

        source = int(er_weighted.vertex_ids[0])
        ours = single_source_shortest_paths(er_weighted, source)
        expected = nx.single_source_dijkstra_path_length(
            nx_converter(er_weighted), source
        )
        for idx in range(er_weighted.num_vertices):
            vid = er_weighted.id_of(idx)
            if vid in expected:
                assert ours[idx] == pytest.approx(expected[vid], rel=1e-12)
            else:
                assert ours[idx] == SSSP_UNREACHABLE
