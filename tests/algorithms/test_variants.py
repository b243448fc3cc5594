"""Tests for the platform-style kernel variants.

Every variant must be output-equivalent to its reference implementation
under the Graphalytics validation rules — the property the benchmark
relies on when platforms choose different strategies (§4.1).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms.bfs import breadth_first_search
from repro.algorithms.sssp import single_source_shortest_paths
from repro.algorithms.validation import validate_output
from tests.algorithms.variants import (
    bfs_bottom_up,
    bfs_queue,
    sssp_bellman_ford,
    sssp_delta_stepping,
    sssp_dijkstra,
)
from repro.exceptions import GraphFormatError
from repro.graph.generators import erdos_renyi

from tests.algorithms.test_properties import random_graphs


class TestBfsVariants:
    @pytest.mark.parametrize("variant", [bfs_queue, bfs_bottom_up])
    def test_equivalent_on_fixtures(self, variant, er_undirected, er_directed):
        for graph in (er_undirected, er_directed):
            source = int(graph.vertex_ids[0])
            reference = breadth_first_search(graph, source)
            validate_output("bfs", variant(graph, source), reference)

    @pytest.mark.parametrize("variant", [bfs_queue, bfs_bottom_up])
    def test_unknown_source(self, variant, er_undirected):
        with pytest.raises(GraphFormatError):
            variant(er_undirected, 10_000)

    def test_bottom_up_switch_both_modes(self):
        # A dense graph reaches the switch threshold after one level, so
        # both the top-down and bottom-up paths execute.
        graph = erdos_renyi(60, 0.3, seed=4)
        source = int(graph.vertex_ids[0])
        reference = breadth_first_search(graph, source)
        result = bfs_bottom_up(graph, source, switch_fraction=0.02)
        assert np.array_equal(result, reference)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_queue_bfs_property(self, graph):
        source = int(graph.vertex_ids[0])
        assert np.array_equal(
            bfs_queue(graph, source), breadth_first_search(graph, source)
        )

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_bottom_up_bfs_property(self, graph):
        source = int(graph.vertex_ids[0])
        assert np.array_equal(
            bfs_bottom_up(graph, source), breadth_first_search(graph, source)
        )


class TestSsspVariants:
    @pytest.mark.parametrize(
        "variant", [sssp_delta_stepping, sssp_bellman_ford, sssp_dijkstra]
    )
    def test_equivalent_on_fixture(self, variant, er_weighted):
        source = int(er_weighted.vertex_ids[0])
        reference = single_source_shortest_paths(er_weighted, source)
        validate_output("sssp", variant(er_weighted, source), reference)

    def test_delta_parameter(self, er_weighted):
        source = int(er_weighted.vertex_ids[0])
        reference = single_source_shortest_paths(er_weighted, source)
        for delta in (0.05, 0.5, 5.0):
            result = sssp_delta_stepping(er_weighted, source, delta=delta)
            validate_output("sssp", result, reference)

    def test_invalid_delta(self, er_weighted):
        with pytest.raises(GraphFormatError):
            sssp_delta_stepping(er_weighted, int(er_weighted.vertex_ids[0]), delta=0)

    @pytest.mark.parametrize(
        "variant", [sssp_delta_stepping, sssp_bellman_ford, sssp_dijkstra]
    )
    def test_unweighted_rejected(self, variant, er_undirected):
        with pytest.raises(GraphFormatError):
            variant(er_undirected, int(er_undirected.vertex_ids[0]))

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(weighted=True))
    def test_delta_stepping_property(self, graph):
        source = int(graph.vertex_ids[0])
        reference = single_source_shortest_paths(graph, source)
        result = sssp_delta_stepping(graph, source)
        assert np.array_equal(np.isinf(result), np.isinf(reference))
        assert np.allclose(
            result[np.isfinite(result)], reference[np.isfinite(reference)]
        )

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(weighted=True))
    def test_bellman_ford_property(self, graph):
        source = int(graph.vertex_ids[0])
        reference = single_source_shortest_paths(graph, source)
        result = sssp_bellman_ford(graph, source)
        assert np.array_equal(np.isinf(result), np.isinf(reference))
        assert np.allclose(
            result[np.isfinite(result)], reference[np.isfinite(reference)]
        )
